// The benchmark's answer key: exact k-NN by brute-force scan, with its
// own distance code (no geom/ or gist/ call), and the checks that hold
// each program answer against it.
//
// Distances are compared within the ULP band the AVX2/FMA node-scan
// kernels are allowed (DESIGN.md §14: 4 * dim units of the larger
// magnitude); neighbours at equal distance are interchangeable, so an
// answer matches when its sorted distances match the exact ones
// position by position and every returned pair is genuine.

#ifndef BWPERF_ORACLE_H_
#define BWPERF_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gist/tree.h"

namespace bwperf {

struct Exact {
  uint64_t rid = 0;
  double distance = 0;
};

class Oracle {
 public:
  /// `corpus` and `extra` are row-major float vectors of `dim`
  /// coordinates; corpus row i has rid i, extra row j has rid
  /// extra_base + j.
  Oracle(size_t dim, std::vector<float> corpus, std::vector<float> extra,
         uint64_t extra_base);

  size_t corpus_size() const { return corpus_.size() / dim_; }

  /// The stored vector of `rid`, or null for an unknown rid.
  const float* PointOf(uint64_t rid) const;

  /// Euclidean distance, accumulated in double.
  double Distance(const float* a, const float* b) const;

  /// The k nearest of the corpus plus the extra rows whose index is
  /// flagged in `extra_rows` (may be empty = none), sorted by
  /// (distance, rid).
  std::vector<Exact> Knn(const float* query, size_t k,
                         const std::vector<bool>& extra_rows) const;

  /// True when a and b agree within the kernels' ULP band.
  bool Close(double a, double b) const;

  /// Checks an answer against the exact one: k results, distinct and
  /// genuine rids (distance recomputed from the rid's vector), sorted,
  /// and the same distances as `exact` position by position. Returns
  /// "" when it holds, else what failed.
  std::string CheckExact(const float* query,
                         const std::vector<bw::gist::Neighbor>& answer,
                         const std::vector<Exact>& exact, size_t k) const;

  /// The check for reads that race inserts: k results, distinct,
  /// genuine and sorted, with the k-th distance inside [lo_kth, hi_kth]
  /// (the exact k-th with every insert that could be visible, and with
  /// none of them).
  std::string CheckBounded(const float* query,
                           const std::vector<bw::gist::Neighbor>& answer,
                           size_t k, double lo_kth, double hi_kth) const;

 private:
  std::string CheckGenuine(const float* query,
                           const std::vector<bw::gist::Neighbor>& answer,
                           size_t k) const;

  size_t dim_;
  std::vector<float> corpus_;
  std::vector<float> extra_;
  uint64_t extra_base_;
};

/// True when `neighbors` holds `rid` at distance 0 (a stored blob
/// found by its own vector).
bool HoldsAtZero(const std::vector<bw::gist::Neighbor>& neighbors,
                 uint64_t rid);

}  // namespace bwperf

#endif  // BWPERF_ORACLE_H_
