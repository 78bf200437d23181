// R-tree index (Guttman 1984) used by the reference sequential DBSCAN
// implementation the paper compares against (their citation [4]) and by
// perfbench's correctness gate.
//
// Built with Sort-Tile-Recursive (STR) bulk loading, or incrementally with
// Guttman's insert + linear split as a structural reference the bulk load
// is validated against. Both builds produce the same packed node layout
// and answer queries through the same explicit-stack traversal.
// query_circle optionally charges its elapsed time to a TimeAccumulator —
// that instrumentation produces Table I (fraction of the total DBSCAN
// response time spent searching the R-tree).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"

namespace hdbscan {

/// How the tree is constructed. The incremental build produces a generally
/// different — and worse-packed — structure than the STR bulk load, whose
/// query *results* must nonetheless match.
enum class RTreeBuild {
  kStrSerial,    ///< single-threaded STR bulk load
  kIncremental,  ///< Guttman insert + linear split, one point at a time
};

class RTree {
 public:
  /// Builds the tree over `points`. `node_capacity` is the fan-out of both
  /// leaves and internal nodes.
  explicit RTree(std::span<const Point2> points, unsigned node_capacity = 16,
                 RTreeBuild build = RTreeBuild::kStrSerial);

  /// Appends to `out` the ids of all points within the closed eps-ball
  /// around q. When `acc` is non-null the call's wall time is added to it.
  void query_circle(const Point2& q, float eps, std::vector<PointId>& out,
                    TimeAccumulator* acc = nullptr) const;

  /// Appends ids of all points whose location intersects `rect`.
  void query_rect(const Rect2& rect, std::vector<PointId>& out) const;

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] unsigned height() const noexcept { return height_; }

 private:
  struct Node {
    Rect2 mbr;
    std::uint32_t first = 0;  ///< index of first child node, or first entry
    std::uint32_t count = 0;
    bool leaf = false;
  };

  void build_str(std::span<const Point2> points);
  void build_incremental(std::span<const Point2> points);
  void query_impl(const Point2& q, float eps, std::vector<PointId>& out) const;

  std::vector<Point2> points_;   ///< copy of the data, in leaf-packed order
  std::vector<PointId> entries_; ///< original point ids, leaf-packed
  std::vector<Node> nodes_;
  std::uint32_t root_ = 0;
  unsigned capacity_;
  unsigned height_ = 0;
};

}  // namespace hdbscan
