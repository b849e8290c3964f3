#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "blobworld/dataset.h"
#include "linalg/reducer.h"
#include "trace.h"
#include "util/logging.h"
#include "util/random.h"

namespace bwperf {

namespace {

/// The corpus is the bench harness's default data set (seed 1234) for
/// every workload seed, so runs with different seeds serve the same
/// index and differ only in the requests they send.
constexpr uint64_t kCorpusSeed = 1234;

std::vector<float> Flatten(const std::vector<bw::geom::Vec>& rows) {
  std::vector<float> out;
  for (const bw::geom::Vec& v : rows) {
    out.insert(out.end(), v.coords().begin(), v.coords().end());
  }
  return out;
}

}  // namespace

Inputs MakeInputs(const RunOptions& options, size_t pool) {
  const size_t want = options.blobs + pool;
  // The bench harness's synthetic parameters (bench/bench_common.cc);
  // the generator averages 5 blobs per image.
  bw::blobworld::DatasetParams params;
  params.blobs_per_image = 5.0;
  params.num_images = want / 5 + 64;
  params.latent_clusters = 60;
  params.within_cluster_sigma = 0.5;
  params.direct_noise = 0.02;
  params.blend_fraction = 0.2;
  params.zipf_exponent = 0.8;
  params.local_dims = 2;
  params.seed = kCorpusSeed;
  bw::blobworld::BlobDataset dataset;
  for (;; params.num_images += params.num_images / 8 + 1) {
    dataset = bw::blobworld::GenerateDatasetDirect(params);
    if (dataset.num_blobs() >= want) break;
  }

  std::vector<bw::geom::Vec> histograms = dataset.Histograms();
  histograms.resize(want);
  const std::vector<bw::geom::Vec> corpus_histograms(
      histograms.begin(), histograms.begin() + options.blobs);
  bw::linalg::SvdReducer reducer;
  BW_CHECK_OK(reducer.Fit(corpus_histograms, options.dim));

  Inputs inputs;
  std::vector<bw::geom::Vec> reduced =
      reducer.ProjectAll(histograms, options.dim);
  inputs.corpus.assign(reduced.begin(), reduced.begin() + options.blobs);
  inputs.pool.assign(reduced.begin() + options.blobs, reduced.end());

  // The seed picks the query foci and the order the pool is inserted in.
  bw::Rng rng(options.seed ^ 0xF0C1);
  rng.Shuffle(inputs.pool);
  for (size_t focus : rng.SampleWithoutReplacement(options.blobs,
                                                   options.queries)) {
    inputs.foci.push_back(static_cast<uint32_t>(focus));
  }
  inputs.oracle = std::make_unique<Oracle>(options.dim, Flatten(inputs.corpus),
                                           Flatten(inputs.pool),
                                           options.blobs);
  return inputs;
}

bw::core::IndexBuildOptions ServedIndexOptions(const RunOptions& options) {
  bw::core::IndexBuildOptions build;
  build.am = "xjb";
  build.xjb_x = 0;
  build.page_bytes = options.page_bytes;
  return build;
}

void ComputeExactAnswers(Inputs* inputs, size_t k) {
  inputs->exact.clear();
  for (size_t q = 0; q < inputs->foci.size(); ++q) {
    inputs->exact.push_back(
        inputs->oracle->Knn(inputs->query(q).data(), k + 1, {}));
  }
}

std::vector<std::vector<Exact>> ExactAnswersWith(const Inputs& inputs,
                                                 const std::vector<char>& acked,
                                                 size_t k) {
  const std::vector<bool> rows(acked.begin(), acked.end());
  std::vector<std::vector<Exact>> out;
  for (size_t q = 0; q < inputs.foci.size(); ++q) {
    out.push_back(inputs.oracle->Knn(inputs.query(q).data(), k, rows));
  }
  return out;
}

void CheckAfterRun(const Inputs& inputs, const std::vector<char>& acked,
                   size_t k, const KnnCall& knn, Checker* checker) {
  std::vector<bool> rows(acked.size());
  for (size_t j = 0; j < acked.size(); ++j) {
    rows[j] = acked[j] != 0;
    if (!rows[j]) continue;
    auto found = knn(inputs.pool[j], 4);
    if (!found.ok() || !HoldsAtZero(*found, inputs.insert_rid(j))) {
      checker->Fail("acked insert rid " +
                    std::to_string(inputs.insert_rid(j)) +
                    " is not found at distance 0");
    }
  }
  const size_t samples = std::min<size_t>(50, inputs.foci.size());
  for (size_t s = 0; s < samples; ++s) {
    const size_t q = s * inputs.foci.size() / samples;
    const float* query = inputs.query(q).data();
    auto answer = knn(inputs.query(q), k);
    if (!answer.ok()) {
      checker->Fail("after-run k-NN failed: " + answer.status().ToString());
      continue;
    }
    const std::string error = inputs.oracle->CheckExact(
        query, *answer, inputs.oracle->Knn(query, k, rows), k);
    if (!error.empty()) {
      checker->Fail("after-run k-NN of focus " +
                    std::to_string(inputs.foci[q]) + ": " + error);
    }
  }
}

void Checker::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(what);
}

uint64_t Checker::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

std::vector<std::string> Checker::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double TrimmedResidentMb() {
  ::malloc_trim(0);
  return ResidentMb();
}

void SleepUntil(uint64_t ns) {
  for (uint64_t now = NowNs(); now < ns; now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
  }
}

std::vector<uint64_t> PoissonArrivals(uint64_t seed, double rate,
                                      size_t count, double seconds) {
  bw::Rng rng(seed);
  std::vector<uint64_t> offsets;
  double t = 0;
  while (offsets.size() < count) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    offsets.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return offsets;
}

void RunOpenLoop(uint64_t start_ns, const std::vector<uint64_t>& offsets,
                 size_t clients, const std::function<size_t(size_t)>& client_of,
                 const std::function<void(size_t, size_t, uint64_t)>& send) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < offsets.size(); ++i) {
        if (client_of(i) != c) continue;
        const uint64_t due = start_ns + offsets[i];
        SleepUntil(due);
        send(c, i, due);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

uint64_t KeyOf(const bw::geom::Vec& v) {
  uint64_t hash = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (size_t i = 0; i < v.dim() * sizeof(float); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  return hash;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"knn_qps", "queries/s"},
      {"index_mem_mb", "MB"},
      {"disk_bytes_per_blob", "bytes"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"service.queue_wait_us", "us"},
      {"service.exec_us", "us"},
      {"service.dispatch_us", "us"},
      {"gist.knn_cpu_us", "us"},
      {"gist.leaf_accesses_per_query", "count"},
      {"gist.internal_accesses_per_query", "count"},
      {"pages.hit_ratio", "ratio"},
      {"pages.misses_per_query", "count"},
      {"pages.evictions_per_query", "count"},
      {"pages.contention_per_query", "count"},
      {"storage.read_retries", "count"},
      {"storage.insert_queue_wait_us", "us"},
      {"storage.insert_apply_us", "us"},
      {"storage.inserts_per_commit", "count"},
      {"storage.wal_bytes_per_insert", "bytes"},
      {"net.wire_us", "us"},
      {"net.bytes_out_per_query", "bytes"},
      {"shard.router_us", "us"},
      {"shard.backend_us", "us"},
      {"shard.merge_us", "us"},
      {"shard.visits_per_query", "count"},
      {"shard.pruned_per_query", "count"},
      {"shard.hedges_per_query", "count"},
      {"shard.insert_fanout_us", "us"},
      {"load.knn_p50_us", "us"},
      {"load.knn_p99_us", "us"},
      {"load.insert_p50_us", "us"},
      {"load.insert_p99_us", "us"},
      {"load.lag_p50_us", "us"},
      {"load.lag_p99_us", "us"},
      {"load.capacity_qps", "queries/s"},
      {"trace.overhead_p50_pct", "%"},
      {"trace.overhead_qps_pct", "%"},
      {"self.knn.net_us", "us"},
      {"self.knn.shard_us", "us"},
      {"self.knn.service_us", "us"},
      {"self.knn.gist_us", "us"},
      {"self.knn.pages_us", "us"},
      {"self.insert.net_us", "us"},
      {"self.insert.shard_us", "us"},
      {"self.insert.service_us", "us"},
      {"self.insert.storage_us", "us"},
  };
  return kMetrics;
}

}  // namespace bwperf
