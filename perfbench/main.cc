// bwperf: the serving-path benchmark program.
//
//   bwperf --workload knn-memory|knn-cold-pool|fleet-wire-mixed
//          --seed N --seconds S --trace 0|1
//
// Runs one workload, checks every answer it got, and prints as its last
// line of standard output one JSON object: correct, attempted, failed,
// and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any check failed, 2 on bad arguments.
// Progress and check failures go to standard error. Run it from the
// repository root: index files live under .bench_build/perfbench-run/
// <pid> for the run's duration, and a traced run's spans go to
// .bench_build/perfbench-traces/<workload>.jsonl.
//
// Test-only flags: --blobs, --queries and --write_ops shrink the
// inputs; --inject swap_neighbor|drop_insert|checksum feeds a
// deliberate fault to the checks, which must then fail the run.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "storage/async_io.h"
#include "trace.h"
#include "util/cpu.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, bwperf::RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "bwperf: %s needs a value\n", flag.c_str());
      return false;
    }
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    const bool numeric = end != value.c_str() && *end == '\0' &&
                         std::isfinite(number) && number >= 0;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--inject") {
      options->inject = value;
    } else if (!numeric) {
      std::fprintf(stderr, "bwperf: bad flag or value: %s %s\n",
                   flag.c_str(), value.c_str());
      return false;
    } else if (flag == "--seed") {
      options->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      options->seconds = number;
    } else if (flag == "--trace") {
      options->trace = number != 0;
    } else if (flag == "--blobs") {
      options->blobs = static_cast<size_t>(number);
    } else if (flag == "--queries") {
      options->queries = static_cast<size_t>(number);
    } else if (flag == "--write_ops") {
      options->write_ops = static_cast<size_t>(number);
    } else {
      std::fprintf(stderr, "bwperf: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  const std::string& w = options->workload;
  if (w != "knn-memory" && w != "knn-cold-pool" && w != "fleet-wire-mixed") {
    std::fprintf(stderr, "bwperf: unknown --workload '%s'\n", w.c_str());
    return false;
  }
  if (options->seconds <= 0 || options->blobs < options->queries ||
      options->queries == 0 || options->k == 0) {
    std::fprintf(stderr, "bwperf: bad sizes\n");
    return false;
  }
  return true;
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bwperf::NowNs();  // the clock's epoch: set-up is timed from here.
  bwperf::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) return 2;

  const std::string build_dir = ".bench_build";
  options.work_dir =
      build_dir + "/perfbench-run/" + std::to_string(::getpid());
  // One span file per workload, overwritten by its next traced run.
  options.trace_path =
      build_dir + "/perfbench-traces/" + options.workload + ".jsonl";
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  std::filesystem::create_directories(build_dir + "/perfbench-traces");

  // The machine, as the README records it.
  std::fprintf(stderr,
               "bwperf: %u hardware threads, kernel ISA %s, I/O engine %s\n",
               std::thread::hardware_concurrency(),
               bw::util::ActiveKernelIsa() == bw::util::KernelIsa::kAvx2
                   ? "avx2"
                   : "scalar",
               bw::storage::IoEngineName(bw::storage::ResolveIoEngine()));

  bwperf::Checker checker;
  bwperf::RunResult result =
      options.workload == "fleet-wire-mixed"
          ? bwperf::RunFleetWorkload(options, &checker)
          : bwperf::RunKnnWorkload(options,
                                   options.workload == "knn-cold-pool",
                                   &checker);
  std::filesystem::remove_all(options.work_dir);

  for (const std::string& message : checker.messages()) {
    std::fprintf(stderr, "bwperf: CHECK FAILED: %s\n", message.c_str());
  }
  const bool correct = checker.failures() == 0;
  std::string metrics;
  const auto& wanted = options.trace ? bwperf::PerLayerMetrics()
                                     : bwperf::EndToEndMetrics();
  for (const auto& [name, unit] : wanted) {
    const auto it = result.values.find(name);
    const double value = it == result.values.end() ? 0.0 : it->second;
    std::fprintf(stderr, "bwperf: %-34s %14.3f %s\n", name.c_str(), value,
                 unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + JsonNumber(value) +
               ", \"unit\": \"" + unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
