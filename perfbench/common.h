// Shared pieces of the serving-path benchmark: its options, the inputs
// it generates from the seed, the checker that collects failed checks,
// and small measurement helpers (percentiles, resident memory, bytes on
// disk).

#ifndef BWPERF_COMMON_H_
#define BWPERF_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/index_factory.h"
#include "geom/vec.h"
#include "oracle.h"

namespace bwperf {

/// What a run was asked to do.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scale of the inputs (the defaults are the paper's query workload at
  // the repository's default bench scale).
  size_t blobs = 20000;
  size_t queries = 400;
  size_t k = 200;
  size_t dim = 5;
  size_t page_bytes = 4096;
  // knn-* workloads: inserts in the closed-loop write phase.
  size_t write_ops = 2000;
  /// Deliberate fault fed to the checks (self test): "", "swap_neighbor",
  /// "drop_insert" or "checksum".
  std::string inject;
  /// Directory for the run's index files (inside the checkout).
  std::string work_dir;
  /// Where a traced run writes its spans.
  std::string trace_path;
};

/// The benchmark's inputs: the corpus (rid i = row i; the same for every
/// seed), a pool of further generator blobs for inserts (rid blobs + j,
/// in an order the seed shuffles), the query foci the seed samples, and
/// the exact answers over the corpus.
struct Inputs {
  std::vector<bw::geom::Vec> corpus;
  std::vector<bw::geom::Vec> pool;
  std::vector<uint32_t> foci;
  std::unique_ptr<Oracle> oracle;
  /// exact[q]: the k + 1 nearest corpus blobs of corpus[foci[q]].
  std::vector<std::vector<Exact>> exact;

  uint64_t insert_rid(size_t j) const { return corpus.size() + j; }
  const bw::geom::Vec& query(size_t q) const { return corpus[foci[q]]; }
};

/// Generates the synthetic Blobworld corpus (direct latent sampling,
/// 5-D SVD fitted on the corpus) plus `pool` further blobs of the same
/// generator, and samples the query foci.
Inputs MakeInputs(const RunOptions& options, size_t pool);

/// The index bwserver and bwrouter serve: XJB with the automatic bite
/// count, at the bench page size.
bw::core::IndexBuildOptions ServedIndexOptions(const RunOptions& options);

/// Fills inputs->exact (k + 1 neighbours per focus, corpus only).
void ComputeExactAnswers(Inputs* inputs, size_t k);

/// The k nearest of every focus over the corpus plus the pool rows
/// flagged in `acked`.
std::vector<std::vector<Exact>> ExactAnswersWith(const Inputs& inputs,
                                                 const std::vector<char>& acked,
                                                 size_t k);

/// Collects failed checks from any thread; keeps the first few messages.
class Checker {
 public:
  void Fail(const std::string& what);
  uint64_t failures() const;
  std::vector<std::string> messages() const;

 private:
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// What a workload hands back to main: operations attempted and failed
/// in its measured phases, and its metric values by name (end-to-end
/// names in an untraced run, per-layer names in a traced one).
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
};

/// The q-quantile (0..1) of `values` by linear interpolation; 0 when
/// empty. Sorts a copy.
double Quantile(std::vector<double> values, double q);

/// Resident set size of this process, in MB.
double ResidentMb();

/// Returns freed heap to the system, then ResidentMb(): the base that
/// index_mem_mb is counted from, taken once the inputs are in memory.
double TrimmedResidentMb();

/// Sleeps until NowNs() reaches `ns`.
void SleepUntil(uint64_t ns);

/// Arrival offsets (ns from an open loop's start) of a Poisson process
/// at `rate` per second: `count` of them, or fewer if they pass
/// `seconds` first. The same seed gives the same offsets.
std::vector<uint64_t> PoissonArrivals(uint64_t seed, double rate,
                                      size_t count, double seconds);

/// Runs an open loop on `clients` threads: op i is sent by client
/// client_of(i), in order, by send(client, i, due) once NowNs() reaches
/// due = start_ns + offsets[i]. Returns when every op has been sent and
/// answered.
void RunOpenLoop(uint64_t start_ns, const std::vector<uint64_t>& offsets,
                 size_t clients, const std::function<size_t(size_t)>& client_of,
                 const std::function<void(size_t, size_t, uint64_t)>& send);

/// A k-NN through whichever path a workload serves: the neighbours, or
/// the error.
using KnnCall = std::function<bw::Result<std::vector<bw::gist::Neighbor>>(
    const bw::geom::Vec&, size_t)>;

/// The after-run checks through `knn`: every acked insert (pool row j
/// with acked[j] set) is found at distance 0, and 50 sampled answers
/// equal brute force over the corpus plus the acked inserts.
void CheckAfterRun(const Inputs& inputs, const std::vector<char>& acked,
                   size_t k, const KnnCall& knn, Checker* checker);

/// Sum of the sizes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// FNV-1a over a vector's coordinates: matches a request seen inside the
/// server to the client request that sent it.
uint64_t KeyOf(const bw::geom::Vec& v);

/// (name, unit) of the metrics every untraced run prints, in order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// (name, unit) of the metrics every traced run prints, in order; a
/// workload reports 0 for a layer it does not exercise.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace bwperf

#endif  // BWPERF_COMMON_H_
