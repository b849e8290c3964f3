// Corpus partitioning for the horizontal sharding tier: split a blob
// corpus into N shard slices by STR order (reusing the bulk loader's
// Sort-Tile-Recursive sort with node_capacity = ceil(n / N), so each
// shard is one spatially coherent STR "tile run"), build each slice as
// an independent DurableIndex that keeps the *global* RIDs, and keep a
// ShardMap of per-shard bounding boxes the router prunes and routes
// with.
//
// Why STR runs: the paper's own finding is that STR tiling minimizes
// clustering loss, and a spatially tight shard is exactly what makes
// the router's root bound useful — the k-th global distance beats a
// far shard's box early, so most shards are never opened. TerraServer
// partitioned imagery the same way (by spatial tile), for the same
// reason.
//
// Bound admissibility: ShardBounds::MinDistance is the Euclidean
// point-to-box distance, a lower bound on the distance to *every*
// point inside the box — and therefore on every result a shard's
// frontier can ever stream. Inserts only ever enlarge a box
// (R-tree-style), deletes never shrink it, so the bound stays
// admissible across online mutations (it just gets looser).

#ifndef BLOBWORLD_SHARD_PARTITIONER_H_
#define BLOBWORLD_SHARD_PARTITIONER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/durable_index.h"
#include "core/index_factory.h"
#include "geom/vec.h"
#include "gist/tree.h"
#include "util/status.h"

namespace bw::shard {

/// Axis-aligned bounding box of one shard's points (enlarge-only).
struct ShardBounds {
  geom::Vec lo;  // dim()==0 -> empty shard (bound is +infinity).
  geom::Vec hi;

  bool empty() const { return lo.dim() == 0; }

  /// Grows the box to contain `p` (starts the box when empty).
  void Enlarge(const geom::Vec& p);

  /// Euclidean distance from `q` to the nearest point of the box: an
  /// admissible lower bound on the distance to anything stored in the
  /// shard. +infinity for an empty shard (it can contain nothing).
  double MinDistance(const geom::Vec& q) const;
};

/// One corpus split: points[s] / rids[s] are shard s's slice (rids are
/// positions in the original corpus — global, never re-numbered).
struct Partition {
  std::vector<std::vector<geom::Vec>> points;
  std::vector<std::vector<gist::Rid>> rids;
  std::vector<ShardBounds> bounds;

  size_t num_shards() const { return points.size(); }
};

/// Splits `corpus` into `num_shards` slices of (near-)equal size along
/// the STR order. RID of corpus[i] is i. Shards at the tail may be one
/// element smaller; none is empty while corpus.size() >= num_shards.
Partition PartitionByStr(const std::vector<geom::Vec>& corpus,
                         size_t num_shards);

/// Builds one shard slice as a DurableIndex at (base_path, wal_path),
/// preserving the given global RIDs: core::BuildDurableIndex with RIDs,
/// so automatic XJB selection resolves X from the slice's size.
Result<std::unique_ptr<core::DurableIndex>> BuildShardIndex(
    const std::vector<geom::Vec>& points, const std::vector<gist::Rid>& rids,
    const core::IndexBuildOptions& options, const std::string& base_path,
    const std::string& wal_path,
    storage::StoreOptions store_options = storage::StoreOptions());

/// The router's routing/pruning table: per-shard boxes.
/// Thread-compatible: RootBound/OwnerOf are const reads; the router
/// serializes EnlargeForInsert with its own write lock.
class ShardMap {
 public:
  ShardMap(size_t dim, std::vector<ShardBounds> bounds)
      : dim_(dim), bounds_(std::move(bounds)) {}

  size_t num_shards() const { return bounds_.size(); }
  size_t dim() const { return dim_; }
  const ShardBounds& bounds(size_t shard) const { return bounds_[shard]; }

  /// Lower bound on the distance from `q` to anything in `shard`.
  double RootBound(size_t shard, const geom::Vec& q) const {
    return bounds_[shard].MinDistance(q);
  }

  /// The shard an insert of `p` routes to: the one whose box is
  /// nearest (distance 0 means containment; ties break to the lowest
  /// index, so routing is deterministic).
  size_t OwnerOf(const geom::Vec& p) const;

  /// Grows `shard`'s box to cover an accepted insert, keeping
  /// RootBound admissible afterward.
  void EnlargeForInsert(size_t shard, const geom::Vec& p) {
    bounds_[shard].Enlarge(p);
  }

 private:
  size_t dim_;
  std::vector<ShardBounds> bounds_;
};

}  // namespace bw::shard

#endif  // BLOBWORLD_SHARD_PARTITIONER_H_
