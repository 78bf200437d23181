// Grid index for epsilon-neighborhood searches (paper §IV, Figure 1).
//
// The index consists of:
//   * D  — the database, stored in eps-cell order: every cell's residents
//          are one contiguous run, in input order, so points in similar
//          locations are nearby in memory (the paper's locality
//          optimization, §IV, sorts by unit-width bins instead);
//   * G  — an array of eps x eps cells, each holding a range [Amin, Amax]
//          into the lookup array;
//   * A  — the lookup array of point ids, |A| == |D| (a point lives in
//          exactly one cell, so no per-cell over-allocation is needed);
//   * S  — the schedule of non-empty cells (GPUCalcShared assigns one
//          thread block per entry of S).
//
// Because cells are eps wide, all neighbors within eps of a point are
// guaranteed to lie in the point's cell or the 8 adjacent cells.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace hdbscan {

/// Half-open range [begin, end) into the lookup array A.
struct CellRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  [[nodiscard]] bool empty() const noexcept { return begin == end; }
  [[nodiscard]] std::uint32_t count() const noexcept { return end - begin; }
};

/// Geometry of the grid; a POD so it can be passed to kernels by value.
struct GridParams {
  float min_x = 0.0f;
  float min_y = 0.0f;
  float eps = 0.0f;
  std::uint32_t cells_x = 0;
  std::uint32_t cells_y = 0;

  [[nodiscard]] std::uint64_t num_cells() const noexcept {
    return static_cast<std::uint64_t>(cells_x) * cells_y;
  }

  [[nodiscard]] std::uint32_t cell_x_of(float x) const noexcept {
    auto c = static_cast<std::int64_t>((x - min_x) / eps);
    if (c < 0) c = 0;
    if (c >= static_cast<std::int64_t>(cells_x)) c = cells_x - 1;
    return static_cast<std::uint32_t>(c);
  }

  [[nodiscard]] std::uint32_t cell_y_of(float y) const noexcept {
    auto c = static_cast<std::int64_t>((y - min_y) / eps);
    if (c < 0) c = 0;
    if (c >= static_cast<std::int64_t>(cells_y)) c = cells_y - 1;
    return static_cast<std::uint32_t>(c);
  }

  /// Linearized cell id h of a point (paper: h computed from x/y coords).
  [[nodiscard]] std::uint32_t linear_cell(const Point2& p) const noexcept {
    return cell_y_of(p.y) * cells_x + cell_x_of(p.x);
  }

  /// Which of its cell's 2 x 2 sub-cells of side eps/2 holds p: bit 0 is
  /// set in the cell's upper half along x, bit 1 along y. It splits the
  /// quotient cell_x_of/cell_y_of bin, so a sub-cell never straddles two
  /// cells.
  [[nodiscard]] unsigned sub_cell_of(const Point2& p) const noexcept {
    const float tx = (p.x - min_x) / eps - static_cast<float>(cell_x_of(p.x));
    const float ty = (p.y - min_y) / eps - static_cast<float>(cell_y_of(p.y));
    return (tx >= 0.5f ? 1u : 0u) | (ty >= 0.5f ? 2u : 0u);
  }
};

/// Fills `out` with the linear ids of the (at most 9) cells that can
/// contain points within eps of anything in `cell`; returns how many.
/// Cells outside the grid boundary are clipped.
unsigned get_neighbor_cells(const GridParams& params, std::uint32_t cell,
                            std::array<std::uint32_t, 9>& out) noexcept;

/// Forward half of the 9-cell stencil: the (at most 4) adjacent cells with
/// linear id strictly greater than `cell` — (+1, 0) in the same row plus
/// the whole dy = +1 row. Cell adjacency is symmetric, so every adjacent
/// cell pair (a, b) with a != b appears in exactly one of the two forward
/// stencils; a unidirectional scan (ScanMode::kHalf) therefore tests every
/// cross-cell candidate pair exactly once. The cell itself is NOT included
/// — same-cell pairs are halved by the ordering invariant instead (see
/// build_grid_index).
unsigned get_forward_neighbor_cells(const GridParams& params,
                                    std::uint32_t cell,
                                    std::array<std::uint32_t, 9>& out) noexcept;

/// Host-resident grid index.
///
/// A *shard sub-index* (core/shard_planner.hpp) reuses this struct for a
/// contiguous slab of grid-cell rows: `params` keeps the GLOBAL geometry
/// (so every point hashes to the same cell id it has in the full index),
/// `cells` holds only the slab — cells[h - cell_base] is global cell h —
/// and `points`/`lookup` hold the slab's residents in *owned-first* order:
/// the first `num_query` points are the ones this shard owns (ascending
/// global id), followed by the epsilon-halo ghosts (ascending global id).
/// Kernels and host queries only ever query owned points, whose full
/// 9-cell stencil lies inside the slab by construction.
struct GridIndex {
  GridParams params;
  std::vector<Point2> points;          ///< D, in cell order
  std::vector<PointId> original_ids;   ///< points[i] came from input[original_ids[i]]
  std::vector<CellRange> cells;        ///< G
  std::vector<PointId> lookup;         ///< A
  std::vector<std::uint32_t> nonempty_cells;  ///< S
  std::uint32_t max_cell_occupancy = 0;
  /// Linear id of cells[0] (nonzero only for shard sub-indexes).
  std::uint32_t cell_base = 0;
  /// Number of query (owned) points; 0 means every point is owned. A
  /// shard's ghost points are resident for distance tests but never
  /// queried, counted, or assigned to batches.
  std::uint32_t num_query = 0;
  /// Value-emission map: neighbor candidates are emitted as emit_ids[c]
  /// instead of their resident id c. Empty means identity. Shard
  /// sub-indexes set this to local->global so kernels produce globally
  /// addressed neighbor values directly — the merge then never touches
  /// individual pairs. Comparisons (the half-scan ordering rule) stay in
  /// resident-id space; only the emitted value is mapped.
  std::vector<PointId> emit_ids;

  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }
  [[nodiscard]] std::size_t query_count() const noexcept {
    return num_query != 0 ? num_query : points.size();
  }
  [[nodiscard]] PointId emit(PointId c) const noexcept {
    return emit_ids.empty() ? c : emit_ids[c];
  }
};

/// Non-owning view of the index data; what kernels receive. The pointers
/// may reference host vectors (tests, the host rungs) or device buffers.
struct GridView {
  GridParams params;
  const Point2* points = nullptr;
  std::uint32_t num_points = 0;  ///< resident points (extent of the arrays)
  const CellRange* cells = nullptr;
  const PointId* lookup = nullptr;
  std::uint32_t cell_base = 0;  ///< linear id of cells[0] (shard slabs)
  std::uint32_t num_query = 0;  ///< owned prefix; 0 = num_points
  /// Optional value-emission map (GridIndex::emit_ids); null = identity.
  const PointId* emit_ids = nullptr;
  /// The index's sub-cell runs (SubCells::order, bounds); null when the
  /// traversal has none.
  const PointId* sub_order = nullptr;
  const std::uint32_t* sub_bounds = nullptr;

  /// The batch/query domain: kernels iterate points [0, query_count()).
  [[nodiscard]] std::uint32_t query_count() const noexcept {
    return num_query != 0 ? num_query : num_points;
  }

  [[nodiscard]] PointId emit(PointId c) const noexcept {
    return emit_ids == nullptr ? c : emit_ids[c];
  }

  [[nodiscard]] static GridView of(const GridIndex& g) noexcept {
    return GridView{g.params,
                    g.points.data(),
                    static_cast<std::uint32_t>(g.points.size()),
                    g.cells.data(),
                    g.lookup.data(),
                    g.cell_base,
                    g.num_query,
                    g.emit_ids.empty() ? nullptr : g.emit_ids.data()};
  }
};

/// The eps/2 sub-cells of a whole grid index, which the fused union pass
/// reads (DESIGN.md §15). Any two residents of one sub-cell are within eps
/// of each other: its diagonal is eps/√2. order[a], for a in cells[h],
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
/// grids go without, and the fused union pass scans them as before.
inline constexpr std::uint32_t kMaxSubCellAxis = 1u << 19;

/// Groups each cell of a whole `index` (not a shard slab) by sub-cell: a
/// four-bucket counting sort per cell of at least kSubCellMinResidents
/// residents, O(n) — nothing is sized by the number of (sub-)cells. Empty
/// when no cell is that full, or the grid is wider than kMaxSubCellAxis.
SubCells build_sub_cells(const GridIndex& index);

/// Cells a grid index may hold unless its builder is told otherwise: 2^27,
/// a 1 GiB cell array (the same capacity concern a 5 GB GPU imposes).
inline constexpr std::uint64_t kMaxGridCells = 1ull << 27;

/// The geometry build_grid_index gives a grid over `extent`: its min
/// corner, `eps`, and floor(span / eps) + 1 cells per axis, the ratio
/// divided in float as points are binned. Throws std::invalid_argument for
/// an eps that is not positive and finite, an extent that is not finite,
/// or a grid of more than `max_cells` cells. It sizes the cell array
/// without allocating it, so a caller can learn before a build whether
/// the grid can index an eps at all (the service does, at admission).
GridParams grid_params(const Rect2& extent, float eps,
                       std::uint64_t max_cells = kMaxGridCells);

/// Builds the grid index for database `input` and search radius `eps`:
/// one counting sort stores D in cell order, so cells[h] is also the range
/// of D holding cell h's points and lookup[a] == a. Throws
/// std::invalid_argument for an empty database or whatever grid_params
/// throws for the database's extent.
///
/// Ordering invariant (load-bearing for ScanMode::kHalf): within every
/// cell's [begin, end) range the lookup array A stores point ids in
/// strictly ascending order. A whole index has it trivially (A is the
/// identity); shard slabs keep it through their owned-first relabeling.
/// The builder verifies it before returning. Half-comparison kernels rely
/// on it to binary-search their own lookup position and scan only
/// same-cell candidates with id >= their own.
GridIndex build_grid_index(std::span<const Point2> input, float eps,
                           std::uint64_t max_cells = kMaxGridCells);

/// Reference search: all point ids (into the index's reordered D) within
/// eps of q. It shares no code with the kernels' traversal, which is what
/// makes it the oracle the host table builder and dbscan_grid run on; the
/// host fallback runs the kernel bodies instead (gpu/kernels.hpp).
void grid_query(const GridIndex& index, const Point2& q, float eps,
                std::vector<PointId>& out);

}  // namespace hdbscan
