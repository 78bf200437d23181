// Grid index for epsilon-neighborhood searches (paper §IV, Figure 1),
// written once for points of any dimension D (Point2, Point3).
//
// The index consists of:
//   * D  — the database, stored in eps-cell order: every cell's residents
//          are one contiguous run, in input order, so points in similar
//          locations are nearby in memory (the paper's locality
//          optimization, §IV, sorts by unit-width bins instead);
//   * G  — an array of eps-wide cells (squares in 2-D, cubes in 3-D), each
//          holding the range [begin, end) of D its residents occupy;
//   * S  — the schedule of non-empty cells (GPUCalcShared assigns one
//          thread block per entry of S).
// A point's id is its position in D, so a cell's range is also the range
// of its residents' ids. The paper's lookup array A, which maps a cell's
// slots to point ids, would be the identity: the index has none, and
// every scan reads points[a] as candidate a.
//
// Because cells are eps wide, all neighbors within eps of a point are
// guaranteed to lie in the 3^D-cell block around the point's cell: its
// own cell and the 8 adjacent ones in 2-D, 26 in 3-D.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace hdbscan {

/// Half-open range [begin, end) of D, and so of point ids: a cell's
/// residents.
struct CellRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  [[nodiscard]] bool empty() const noexcept { return begin == end; }
  [[nodiscard]] std::uint32_t count() const noexcept { return end - begin; }
};

/// A grid's fields, named by axis as its point type names coordinates:
/// the min corner, the cell side eps and the cells per axis. min() and
/// cells() read them by axis number for the code written once for all D.
template <typename Point>
struct GridAxes;

template <>
struct GridAxes<Point2> {
  float min_x = 0.0f;
  float min_y = 0.0f;
  float eps = 0.0f;
  std::uint32_t cells_x = 0;
  std::uint32_t cells_y = 0;

  [[nodiscard]] Point2 min() const noexcept { return {min_x, min_y}; }
  [[nodiscard]] std::array<std::uint32_t, 2> cells() const noexcept {
    return {cells_x, cells_y};
  }
};

template <>
struct GridAxes<Point3> {
  float min_x = 0.0f;
  float min_y = 0.0f;
  float min_z = 0.0f;
  float eps = 0.0f;
  std::uint32_t cells_x = 0;
  std::uint32_t cells_y = 0;
  std::uint32_t cells_z = 0;

  [[nodiscard]] Point3 min() const noexcept { return {min_x, min_y, min_z}; }
  [[nodiscard]] std::array<std::uint32_t, 3> cells() const noexcept {
    return {cells_x, cells_y, cells_z};
  }
};

/// Geometry of the grid; a POD so it can be passed to kernels by value.
/// Cells are linearized with x fastest: h = (z * cells_y + y) * cells_x + x.
template <typename Point>
struct BasicGridParams : GridAxes<Point> {
  using GridAxes<Point>::eps;

  [[nodiscard]] std::uint64_t num_cells() const noexcept {
    std::uint64_t n = 1;
    for (const std::uint32_t c : this->cells()) n *= c;
    return n;
  }

  /// The cell coordinate of `v` on `axis`, clamped into the grid.
  [[nodiscard]] std::uint32_t axis_cell(unsigned axis,
                                        float v) const noexcept {
    auto c = static_cast<std::int64_t>((v - this->min()[axis]) / eps);
    const std::uint32_t n = this->cells()[axis];
    if (c < 0) c = 0;
    if (c >= static_cast<std::int64_t>(n)) c = n - 1;
    return static_cast<std::uint32_t>(c);
  }

  /// Linearized cell id h of a point (paper: h computed from its coords).
  [[nodiscard]] std::uint32_t linear_cell(const Point& p) const noexcept {
    std::uint32_t h = 0;
    for (unsigned axis = Point::kDims; axis-- > 0;) {
      h = h * this->cells()[axis] + axis_cell(axis, p[axis]);
    }
    return h;
  }

  /// Which of its cell's 2^D sub-cells of side eps/2 holds p: bit a is set
  /// in the cell's upper half along axis a. It splits the axis_cell bin,
  /// so a sub-cell never straddles two cells. Only 2-D grids build
  /// sub-cells (build_sub_cells).
  [[nodiscard]] unsigned sub_cell_of(const Point& p) const noexcept {
    unsigned sub = 0;
    for (unsigned axis = 0; axis < Point::kDims; ++axis) {
      const float t = (p[axis] - this->min()[axis]) / eps -
                      static_cast<float>(axis_cell(axis, p[axis]));
      sub |= (t >= 0.5f ? 1u : 0u) << axis;
    }
    return sub;
  }
};

using GridParams = BasicGridParams<Point2>;
using GridParams3 = BasicGridParams<Point3>;

/// Room for the 3^D cells of a stencil: 9 in 2-D, 27 in 3-D.
template <typename Point>
using CellStencil = std::array<std::uint32_t, Point::kDims == 2 ? 9 : 27>;

namespace detail {

/// Appends the stencil cells of the cell at `at` on axes [0, A), in
/// ascending linear id: axis A - 1 is walked slowest, by offset -1, 0, +1,
/// clipped at the grid's edge, and `base` is the id prefix of the axes
/// above. kForward keeps only the cells after the cell itself in that
/// order: offset 0 on this axis with the forward cells of the axes below,
/// then offset +1 with all of them.
template <unsigned A, bool kForward, typename Point>
void walk_stencil(const BasicGridParams<Point>& params,
                  const std::array<std::uint32_t, Point::kDims>& at,
                  std::uint32_t base, CellStencil<Point>& out,
                  unsigned& count) noexcept {
  if constexpr (A == 0) {
    if constexpr (!kForward) out[count++] = base;
  } else {
    const std::uint32_t n = params.cells()[A - 1];
    const std::uint32_t c = at[A - 1];
    if (!kForward && c > 0) {
      walk_stencil<A - 1, false>(params, at, base * n + c - 1, out, count);
    }
    walk_stencil<A - 1, kForward>(params, at, base * n + c, out, count);
    if (c + 1 < n) {
      walk_stencil<A - 1, false>(params, at, base * n + c + 1, out, count);
    }
  }
}

template <bool kForward, typename Point>
unsigned stencil_cells(const BasicGridParams<Point>& params,
                       std::uint32_t cell, CellStencil<Point>& out) noexcept {
  const std::array<std::uint32_t, Point::kDims> n = params.cells();
  std::array<std::uint32_t, Point::kDims> at{};
  for (unsigned axis = 0; axis + 1 < Point::kDims; ++axis) {
    at[axis] = cell % n[axis];
    cell /= n[axis];
  }
  at[Point::kDims - 1] = cell;
  unsigned count = 0;
  walk_stencil<Point::kDims, kForward>(params, at, 0, out, count);
  return count;
}

}  // namespace detail

/// Fills `out` with the linear ids of the (at most 3^D) cells that can
/// contain points within eps of anything in `cell`, ascending — in 2-D
/// by (dy, dx), in 3-D by (dz, dy, dx); returns how many. Cells outside
/// the grid boundary are clipped.
template <typename Point>
unsigned get_neighbor_cells(const BasicGridParams<Point>& params,
                            std::uint32_t cell,
                            CellStencil<Point>& out) noexcept {
  return detail::stencil_cells</*kForward=*/false>(params, cell, out);
}

/// Forward half of the stencil: the adjacent cells with linear id strictly
/// greater than `cell`, in the same order — in 2-D (+1, 0) in the same row
/// plus the whole dy = +1 row (at most 4), in 3-D that plus the whole
/// dz = +1 plane (at most 13). Cell adjacency is symmetric, so every
/// adjacent cell pair (a, b) with a != b appears in exactly one of the two
/// forward stencils; a unidirectional scan (ScanMode::kHalf) therefore
/// tests every cross-cell candidate pair exactly once. The cell itself is
/// NOT included — same-cell pairs are halved by the ordering invariant
/// instead (see build_grid_index).
template <typename Point>
unsigned get_forward_neighbor_cells(const BasicGridParams<Point>& params,
                                    std::uint32_t cell,
                                    CellStencil<Point>& out) noexcept {
  return detail::stencil_cells</*kForward=*/true>(params, cell, out);
}

/// Host-resident grid index.
template <typename Point>
struct BasicGridIndex {
  BasicGridParams<Point> params;
  std::vector<Point> points;           ///< D, in cell order
  std::vector<PointId> original_ids;   ///< points[i] came from input[original_ids[i]]
  std::vector<CellRange> cells;        ///< G
  std::vector<std::uint32_t> nonempty_cells;  ///< S
  std::uint32_t max_cell_occupancy = 0;

  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }
};

using GridIndex = BasicGridIndex<Point2>;
using GridIndex3 = BasicGridIndex<Point3>;

/// Non-owning view of the index data; what kernels receive. The pointers
/// may reference host vectors (tests, the host rungs) or device buffers.
template <typename Point>
struct BasicGridView {
  BasicGridParams<Point> params;
  const Point* points = nullptr;
  std::uint32_t num_points = 0;  ///< |D|; kernels query [0, num_points)
  const CellRange* cells = nullptr;
  /// The index's sub-cell runs (SubCells::order, bounds); null when the
  /// traversal has none.
  const PointId* sub_order = nullptr;
  const std::uint32_t* sub_bounds = nullptr;

  [[nodiscard]] static BasicGridView of(
      const BasicGridIndex<Point>& g) noexcept {
    return BasicGridView{g.params, g.points.data(),
                         static_cast<std::uint32_t>(g.points.size()),
                         g.cells.data()};
  }
};

using GridView = BasicGridView<Point2>;
using GridView3 = BasicGridView<Point3>;

/// The eps/2 sub-cells of a whole 2-D grid index, which the fused union
/// pass reads (DESIGN.md §15). Any two residents of one sub-cell are within
/// eps of each other: its diagonal is eps/√2. order[a], for a in cells[h],
/// lists cell h's residents again, grouped into one run per sub-cell in
/// sub_cell_of order — a per-cell permutation of the same ids. For a cell
/// of at least kSubCellMinResidents residents starting at position b,
/// bounds[b + k] is where the run of sub-cell k + 1 starts (k = 0, 1, 2);
/// sub-cell 0's run starts at b and sub-cell 3's ends at the cell's end. A
/// smaller cell keeps its order and has no bounds.
struct SubCells {
  std::vector<PointId> order;
  std::vector<std::uint32_t> bounds;
};

/// Fewest residents a cell needs for its sub-cell runs to be built and
/// walked. Walking a cell costs a bounds read and a scan per run; on SDSS2
/// samples, whose runs are mostly under 16 residents, walking them made
/// the union pass slower than scanning the cell.
inline constexpr std::uint32_t kSubCellMinResidents = 16;

/// Widest grid, in cells per axis, that gets sub-cells. Binning divides in
/// float, so a point's quotient is off by up to about 2^-23 of itself: at
/// 2^19 cells two residents of one sub-cell are at most 0.625 eps apart
/// per axis (0.78 eps² squared, inside the kernels' float test). Wider
/// grids go without, and the fused union pass scans them as before. The
/// bound is why sub-cells stay 2-D: three such axes give 1.17 eps², past
/// eps².
inline constexpr std::uint32_t kMaxSubCellAxis = 1u << 19;

/// Groups each cell of `index` by sub-cell: a four-bucket counting sort per
/// cell of at least kSubCellMinResidents residents, O(n) — nothing is sized
/// by the number of (sub-)cells. Empty when no cell is that full, or the
/// grid is wider than kMaxSubCellAxis.
SubCells build_sub_cells(const GridIndex& index);

/// Cells a grid index may hold unless its builder is told otherwise: 2^27,
/// a 1 GiB cell array (the same capacity concern a 5 GB GPU imposes).
inline constexpr std::uint64_t kMaxGridCells = 1ull << 27;

/// The geometry build_grid_index gives a 2-D grid over `extent`: its min
/// corner, `eps`, and floor(span / eps) + 1 cells per axis, the ratio
/// divided in float as points are binned. Throws std::invalid_argument for
/// an eps that is not positive and finite, an extent that is not finite,
/// or a grid of more than `max_cells` cells. It sizes the cell array
/// without allocating it, so a caller can learn before a build whether
/// the grid can index an eps at all (the service does, at admission).
GridParams grid_params(const Rect2& extent, float eps,
                       std::uint64_t max_cells = kMaxGridCells);

/// Builds the grid index for database `input` and search radius `eps`:
/// one counting sort stores D in cell order, so cells[h] is the range of D,
/// and of ids, holding cell h's points. The point type is Point2 unless
/// named: build_grid_index<Point3>(points, eps) builds a 3-D grid. Throws
/// std::invalid_argument for an empty database, for a point with a
/// coordinate that is not finite (naming the first one), or for whatever
/// grid_params throws for the database's extent.
///
/// Ordering invariant (load-bearing for ScanMode::kHalf): a cell's
/// residents are the ascending ids of its range, because ids are
/// positions. Half-comparison kernels scan the same-cell candidates from
/// their own id to the cell's end.
template <typename Point = Point2>
BasicGridIndex<Point> build_grid_index(
    std::span<const std::type_identity_t<Point>> input, float eps,
    std::uint64_t max_cells = kMaxGridCells);

/// Reference search: all point ids (into the index's reordered D) within
/// eps of q. It shares no code with the kernels' traversal, which is what
/// makes it the oracle the host table builder and dbscan_grid run on; the
/// host fallback runs the kernel bodies instead (gpu/kernels.hpp).
template <typename Point>
void grid_query(const BasicGridIndex<Point>& index, const Point& q, float eps,
                std::vector<PointId>& out) {
  out.clear();
  const float eps2 = eps * eps;
  const std::uint32_t cell = index.params.linear_cell(q);
  CellStencil<Point> neighbors{};
  const unsigned n = get_neighbor_cells(index.params, cell, neighbors);
  for (unsigned c = 0; c < n; ++c) {
    const CellRange range = index.cells[neighbors[c]];
    for (PointId id = range.begin; id < range.end; ++id) {
      if (dist2(q, index.points[id]) <= eps2) out.push_back(id);
    }
  }
}

}  // namespace hdbscan
