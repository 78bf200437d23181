// Core value types shared by every subsystem.
#pragma once

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace hdbscan {

/// A point of D float coordinates. The paper clusters spatial (x, y) data
/// and its grid method works in any dimension (§II-A): the grid gains an
/// axis and a neighborhood spans 3^D cells. float matches the precision
/// used on the GPU in the original implementation. Each dimension keeps
/// its coordinates' names; code written once for every D reads them by
/// axis number through operator[] and sizes its loops by kDims.
template <unsigned D>
struct Point;

template <>
struct Point<2> {
  static constexpr unsigned kDims = 2;
  float x = 0.0f;
  float y = 0.0f;

  [[nodiscard]] float operator[](unsigned axis) const noexcept {
    return axis == 0 ? x : y;
  }
  friend bool operator==(const Point&, const Point&) = default;
};

template <>
struct Point<3> {
  static constexpr unsigned kDims = 3;
  float x = 0.0f;
  float y = 0.0f;
  float z = 0.0f;

  [[nodiscard]] float operator[](unsigned axis) const noexcept {
    return axis == 0 ? x : (axis == 1 ? y : z);
  }
  friend bool operator==(const Point&, const Point&) = default;
};

using Point2 = Point<2>;
using Point3 = Point<3>;

/// Squared Euclidean distance, summed in axis order (dx² + dy² + dz²);
/// kernels compare against eps^2 to avoid sqrt.
template <unsigned D>
[[nodiscard]] inline float dist2(const Point<D>& a,
                                 const Point<D>& b) noexcept {
  float sum = (a[0] - b[0]) * (a[0] - b[0]);
  for (unsigned axis = 1; axis < D; ++axis) {
    sum += (a[axis] - b[axis]) * (a[axis] - b[axis]);
  }
  return sum;
}

template <unsigned D>
[[nodiscard]] inline float dist(const Point<D>& a, const Point<D>& b) noexcept {
  return std::sqrt(dist2(a, b));
}

/// Axis-aligned bounding rectangle (used by the R-tree and generators).
struct Rect2 {
  float min_x = std::numeric_limits<float>::max();
  float min_y = std::numeric_limits<float>::max();
  float max_x = std::numeric_limits<float>::lowest();
  float max_y = std::numeric_limits<float>::lowest();

  void expand(const Point2& p) noexcept {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }

  void expand(const Rect2& r) noexcept {
    min_x = std::min(min_x, r.min_x);
    max_x = std::max(max_x, r.max_x);
    min_y = std::min(min_y, r.min_y);
    max_y = std::max(max_y, r.max_y);
  }

  [[nodiscard]] bool contains(const Point2& p) const noexcept {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  [[nodiscard]] bool intersects(const Rect2& o) const noexcept {
    return min_x <= o.max_x && o.min_x <= max_x && min_y <= o.max_y &&
           o.min_y <= max_y;
  }

  /// Minimum squared distance from p to this rectangle (0 when inside).
  [[nodiscard]] float min_dist2(const Point2& p) const noexcept {
    const float dx = p.x < min_x ? min_x - p.x : (p.x > max_x ? p.x - max_x : 0.0f);
    const float dy = p.y < min_y ? min_y - p.y : (p.y > max_y ? p.y - max_y : 0.0f);
    return dx * dx + dy * dy;
  }

  [[nodiscard]] float area() const noexcept {
    if (max_x < min_x || max_y < min_y) return 0.0f;
    return (max_x - min_x) * (max_y - min_y);
  }

  /// Rectangle enclosing the eps-ball around p (circle query pre-filter).
  [[nodiscard]] static Rect2 around(const Point2& p, float eps) noexcept {
    return Rect2{p.x - eps, p.y - eps, p.x + eps, p.y + eps};
  }
};

/// Point index into the database D, which is also the point's position in
/// the grid index's D. 32-bit matches the paper's GPU layout (result-set
/// keys/values are point ids).
using PointId = std::uint32_t;

/// A (key, value) neighbor pair produced by the GPU kernels: `value` lies
/// within eps of `key`. Matches the paper's result-set element r_j = (k, v).
struct NeighborPair {
  PointId key = 0;
  PointId value = 0;

  friend auto operator<=>(const NeighborPair&, const NeighborPair&) = default;
};

/// How the epsilon-neighborhood kernels traverse the candidate space.
///
/// Distance is symmetric, so the full 3^D-cell scan
/// evaluates every qualifying pair (i, j) twice — once from each side.
/// kHalf exploits the grid index's ordering invariant (a cell's residents
/// are the ascending ids of its range; see build_grid_index) to test each
/// pair exactly once: a query scans only the same-cell candidates from its
/// own id to the cell's end, plus the cells of the forward stencil (linear
/// cell id greater than its own). Each tested pair is then emitted in both
/// directions — either device-side (the
/// shared-tile kernel's dual-row staged push) or host-side (the batched
/// pipelines emit forward rows and NeighborTable::assemble transposes
/// them as it merges the shards).
enum class ScanMode {
  kFull,  ///< legacy bidirectional scan: every pair tested twice
  kHalf,  ///< unidirectional scan: every pair tested once, emitted twice
};

/// How much exactness a clustering run trades for throughput. Every exact
/// pipeline does work proportional to the eps-pair count; the cell graph
/// breaks that ceiling by unioning whole eps/sqrt(d) cells (theoretically
/// efficient parallel DBSCAN; see DESIGN.md §16). The traversal kernels
/// never see this knob: it only routes a run to the cell graph.
enum class ClusterQuality {
  kExact,      ///< every eps-pair evaluated (the paper's pipelines)
  kCellGraph,  ///< union whole eps/sqrt(d) cells; pairs -> cells + boundary
};

[[nodiscard]] inline std::optional<ClusterQuality> parse_cluster_quality(
    std::string_view name) noexcept {
  if (name == "exact") return ClusterQuality::kExact;
  if (name == "cellgraph" || name == "cell-graph") {
    return ClusterQuality::kCellGraph;
  }
  return std::nullopt;
}

/// The quality knob an entire run (or one service job) is parameterized by.
struct QualitySpec {
  ClusterQuality mode = ClusterQuality::kExact;

  friend bool operator==(const QualitySpec&, const QualitySpec&) = default;
};

}  // namespace hdbscan
