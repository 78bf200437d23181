// Packed bounding-volume hierarchy index (the IndexBackend::kBvh seam).
//
// LBVH-style construction: points are sorted by 32-bit Morton code
// (16 bits per axis over the dataset's bounding box), packed into fixed-
// capacity leaves, and the upper levels are packed bottom-up with a fixed
// fan-out — every node's children are contiguous, so the whole tree is
// four flat arrays that upload to the device as-is (gpu/bvh_device_index).
// The same spatial-locality property the grid gets from bin-sorting, the
// BVH gets from the Morton order.
//
// Id space: the tree is built over the grid index's reordered database D,
// and `leaf_ids` are *resident* ids (positions in D). Degrees, union-find
// parents, CSR rows and labels all stay in the one id space regardless of
// backend, so tables and clusterings are comparable bit-for-bit.
//
// ScanMode::kHalf under a tree: there is no forward cell stencil, so the
// half-traversal rule is id-based instead — row i owns exactly the
// candidates with id >= i (self included). Every cross pair (i, j) then
// appears in exactly one row (the smaller id's), which is precisely the
// cover NeighborTable::assemble's expansion and the fused union pass
// require. Each node records the maximum resident id in its subtree so a
// half-traversal can prune whole subtrees that hold only smaller ids.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace hdbscan {

/// Tree node; a POD so the nodes array can live in a device buffer.
/// Children of an internal node are contiguous: [first, first + count).
/// A leaf's entries are contiguous in the leaf-packed arrays likewise.
struct BvhNode {
  Rect2 mbr;
  std::uint32_t first = 0;   ///< first child node index, or first entry
  std::uint32_t count = 0;   ///< children (internal) or entries (leaf)
  std::uint32_t max_id = 0;  ///< max resident id in the subtree (kHalf prune)
  std::uint32_t leaf = 0;    ///< 1 = leaf (u32 keeps the struct tightly POD)
};

/// Host-resident BVH index over the grid index's reordered database.
struct BvhIndex {
  std::vector<BvhNode> nodes;
  std::uint32_t root = 0;
  std::vector<Point2> points;       ///< D in resident-id order
  std::vector<PointId> leaf_ids;    ///< resident ids, leaf-packed order
  std::vector<Point2> leaf_points;  ///< point copies, leaf-packed order
  unsigned leaf_capacity = 0;
  unsigned fanout = 0;
  unsigned height = 0;
  /// Owned-query prefix, mirroring GridIndex::num_query; 0 = all points.
  std::uint32_t num_query = 0;

  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }
  [[nodiscard]] std::size_t query_count() const noexcept {
    return num_query != 0 ? num_query : points.size();
  }
};

/// Non-owning view passed to kernels; pointers may reference host vectors
/// (tests) or device buffers (gpu/bvh_device_index).
struct BvhView {
  const BvhNode* nodes = nullptr;
  std::uint32_t num_nodes = 0;
  std::uint32_t root = 0;
  const Point2* points = nullptr;       ///< resident-id order (query reads)
  const PointId* leaf_ids = nullptr;    ///< leaf-packed candidate ids
  const Point2* leaf_points = nullptr;  ///< leaf-packed candidate points
  std::uint32_t num_points = 0;
  std::uint32_t num_query = 0;  ///< owned prefix; 0 = num_points

  [[nodiscard]] std::uint32_t query_count() const noexcept {
    return num_query != 0 ? num_query : num_points;
  }

  /// BVH builds are whole-index only, so values are resident ids.
  [[nodiscard]] PointId emit(PointId c) const noexcept { return c; }

  [[nodiscard]] static BvhView of(const BvhIndex& b) noexcept {
    return BvhView{b.nodes.data(),
                   static_cast<std::uint32_t>(b.nodes.size()),
                   b.root,
                   b.points.data(),
                   b.leaf_ids.data(),
                   b.leaf_points.data(),
                   static_cast<std::uint32_t>(b.points.size()),
                   b.num_query};
  }
};

/// Builds the packed BVH over `points` (the grid index's reordered D, so
/// resident ids are array positions). Throws std::invalid_argument on an
/// empty database or capacities < 2.
BvhIndex build_bvh_index(std::span<const Point2> points,
                         unsigned leaf_capacity = 16, unsigned fanout = 4);

/// Reference search used by tests: all resident ids within eps of q.
void bvh_query(const BvhIndex& index, const Point2& q, float eps,
               std::vector<PointId>& out);

/// Forward-only reference search mirroring the kernels' kHalf traversal
/// under the tree's id-ownership rule: all resident ids >= `query`
/// (including query itself) within eps of point `query`. The union of
/// forward results over all queries, transposed, is the full neighbor
/// table — exactly the contract of NeighborTable::assemble's expansion.
void bvh_query_forward(const BvhIndex& index, PointId query, float eps,
                       std::vector<PointId>& out);

}  // namespace hdbscan
