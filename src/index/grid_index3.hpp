// 3-D grid index: the straightforward extension of the paper's 2-D scheme
// (§IV) to spatial volumes — eps-cube cells, D stored in cell order by the
// same counting sort as the 2-D builder (so lookup[a] == a), a lookup
// array A with |A| = |D|, and neighborhoods guaranteed to lie within the
// 27-cell block around a point's cell.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "index/grid_index.hpp"  // CellRange

namespace hdbscan {

struct GridParams3 {
  float min_x = 0.0f;
  float min_y = 0.0f;
  float min_z = 0.0f;
  float eps = 0.0f;
  std::uint32_t cells_x = 0;
  std::uint32_t cells_y = 0;
  std::uint32_t cells_z = 0;

  [[nodiscard]] std::uint64_t num_cells() const noexcept {
    return static_cast<std::uint64_t>(cells_x) * cells_y * cells_z;
  }

  [[nodiscard]] std::uint32_t axis_cell(float v, float lo,
                                        std::uint32_t n) const noexcept {
    auto c = static_cast<std::int64_t>((v - lo) / eps);
    if (c < 0) c = 0;
    if (c >= static_cast<std::int64_t>(n)) c = n - 1;
    return static_cast<std::uint32_t>(c);
  }

  [[nodiscard]] std::uint32_t linear_cell(const Point3& p) const noexcept {
    const std::uint32_t cx = axis_cell(p.x, min_x, cells_x);
    const std::uint32_t cy = axis_cell(p.y, min_y, cells_y);
    const std::uint32_t cz = axis_cell(p.z, min_z, cells_z);
    return (cz * cells_y + cy) * cells_x + cx;
  }
};

/// Fills `out` with the (at most 27) linear cell ids adjacent to `cell`
/// (inclusive); returns how many. Boundary cells are clipped. The 3-D
/// overload of the 2-D stencil, so one kernel traversal serves both.
unsigned get_neighbor_cells(const GridParams3& params, std::uint32_t cell,
                            std::array<std::uint32_t, 27>& out) noexcept;

/// Forward half of the 27-cell stencil: the (at most 13) adjacent cells
/// with linear id strictly greater than `cell` — the 2-D forward stencil
/// in the dz = 0 plane plus the entire dz = +1 plane. Excludes `cell`
/// itself; same-cell pairs are halved via the lookup ordering invariant,
/// exactly as in 2-D (see build_grid_index).
unsigned get_forward_neighbor_cells(
    const GridParams3& params, std::uint32_t cell,
    std::array<std::uint32_t, 27>& out) noexcept;

struct GridIndex3 {
  GridParams3 params;
  std::vector<Point3> points;
  std::vector<PointId> original_ids;
  std::vector<CellRange> cells;
  std::vector<PointId> lookup;
  std::vector<std::uint32_t> nonempty_cells;
  std::uint32_t max_cell_occupancy = 0;

  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }
};

/// Non-owning kernel view (host vectors or device buffers). It carries the
/// few members the shared kernel bodies read from the 2-D GridView: a 3-D
/// index is always whole, so every point is queried, values are emitted
/// as resident ids and cells[0] is cell 0.
struct GridView3 {
  GridParams3 params;
  const Point3* points = nullptr;
  std::uint32_t num_points = 0;
  const CellRange* cells = nullptr;
  const PointId* lookup = nullptr;
  static constexpr std::uint32_t cell_base = 0;

  [[nodiscard]] std::uint32_t query_count() const noexcept {
    return num_points;
  }
  [[nodiscard]] PointId emit(PointId c) const noexcept { return c; }

  [[nodiscard]] static GridView3 of(const GridIndex3& g) noexcept {
    return GridView3{g.params, g.points.data(),
                     static_cast<std::uint32_t>(g.points.size()),
                     g.cells.data(), g.lookup.data()};
  }
};

/// Builds the 3-D index; the same contract and checks as build_grid_index.
GridIndex3 build_grid_index3(std::span<const Point3> input, float eps,
                             std::uint64_t max_cells = kMaxGridCells);

/// Reference search (the 3-D oracle): all point ids within eps of q.
void grid_query3(const GridIndex3& index, const Point3& q, float eps,
                 std::vector<PointId>& out);

}  // namespace hdbscan
