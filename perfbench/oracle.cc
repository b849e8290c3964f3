#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace bwperf {

namespace {

std::string Describe(size_t i, const bw::gist::Neighbor& n) {
  return "result " + std::to_string(i) + " (rid " + std::to_string(n.rid) +
         ", distance " + std::to_string(n.distance) + ")";
}

}  // namespace

Oracle::Oracle(size_t dim, std::vector<float> corpus,
               std::vector<float> extra, uint64_t extra_base)
    : dim_(dim),
      corpus_(std::move(corpus)),
      extra_(std::move(extra)),
      extra_base_(extra_base) {}

const float* Oracle::PointOf(uint64_t rid) const {
  if (rid < corpus_size()) return corpus_.data() + rid * dim_;
  if (rid >= extra_base_ && (rid - extra_base_) < extra_.size() / dim_) {
    return extra_.data() + (rid - extra_base_) * dim_;
  }
  return nullptr;
}

double Oracle::Distance(const float* a, const float* b) const {
  double sum = 0.0;
  for (size_t i = 0; i < dim_; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

bool Oracle::Close(double a, double b) const {
  const double ulps = 4.0 * static_cast<double>(dim_);
  return std::abs(a - b) <= ulps * std::numeric_limits<double>::epsilon() *
                                std::max(std::abs(a), std::abs(b));
}

std::vector<Exact> Oracle::Knn(const float* query, size_t k,
                               const std::vector<bool>& extra_rows) const {
  std::vector<Exact> all;
  all.reserve(corpus_size() + extra_rows.size());
  for (size_t i = 0; i < corpus_size(); ++i) {
    all.push_back({i, Distance(query, corpus_.data() + i * dim_)});
  }
  for (size_t j = 0; j < extra_rows.size(); ++j) {
    if (!extra_rows[j]) continue;
    all.push_back(
        {extra_base_ + j, Distance(query, extra_.data() + j * dim_)});
  }
  const auto less = [](const Exact& a, const Exact& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.rid < b.rid;
  };
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(), less);
  // A copy, not resize(): the scan buffer holds a slot per stored blob.
  return std::vector<Exact>(all.begin(), all.begin() + keep);
}

std::string Oracle::CheckGenuine(
    const float* query, const std::vector<bw::gist::Neighbor>& answer,
    size_t k) const {
  if (answer.size() != k) {
    return "returned " + std::to_string(answer.size()) + " results, want " +
           std::to_string(k);
  }
  std::unordered_set<uint64_t> seen;
  for (size_t i = 0; i < answer.size(); ++i) {
    const bw::gist::Neighbor& n = answer[i];
    if (!seen.insert(n.rid).second) return Describe(i, n) + " is a duplicate";
    const float* point = PointOf(n.rid);
    if (point == nullptr) return Describe(i, n) + " names no stored blob";
    const double truth = Distance(query, point);
    if (!Close(truth, n.distance)) {
      return Describe(i, n) + " but the rid lies at " +
             std::to_string(truth);
    }
    if (i > 0 && n.distance < answer[i - 1].distance &&
        !Close(n.distance, answer[i - 1].distance)) {
      return Describe(i, n) + " is out of order";
    }
  }
  return "";
}

std::string Oracle::CheckExact(const float* query,
                               const std::vector<bw::gist::Neighbor>& answer,
                               const std::vector<Exact>& exact,
                               size_t k) const {
  std::string error = CheckGenuine(query, answer, k);
  if (!error.empty()) return error;
  for (size_t i = 0; i < k; ++i) {
    if (!Close(answer[i].distance, exact[i].distance)) {
      return Describe(i, answer[i]) + " but the exact answer has rid " +
             std::to_string(exact[i].rid) + " at " +
             std::to_string(exact[i].distance);
    }
  }
  return "";
}

std::string Oracle::CheckBounded(
    const float* query, const std::vector<bw::gist::Neighbor>& answer,
    size_t k, double lo_kth, double hi_kth) const {
  std::string error = CheckGenuine(query, answer, k);
  if (!error.empty()) return error;
  const double kth = answer[k - 1].distance;
  if ((kth < lo_kth && !Close(kth, lo_kth)) ||
      (kth > hi_kth && !Close(kth, hi_kth))) {
    return "k-th distance " + std::to_string(kth) + " outside [" +
           std::to_string(lo_kth) + ", " + std::to_string(hi_kth) + "]";
  }
  return "";
}

bool HoldsAtZero(const std::vector<bw::gist::Neighbor>& neighbors,
                 uint64_t rid) {
  return std::any_of(neighbors.begin(), neighbors.end(),
                     [rid](const bw::gist::Neighbor& n) {
                       return n.rid == rid && n.distance == 0.0;
                     });
}

}  // namespace bwperf
