#include "index/grid_index.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "index/cell_sort.hpp"

namespace hdbscan {

unsigned get_neighbor_cells(const GridParams& params, std::uint32_t cell,
                            std::array<std::uint32_t, 9>& out) noexcept {
  const std::uint32_t cx = cell % params.cells_x;
  const std::uint32_t cy = cell / params.cells_x;
  unsigned n = 0;
  for (int dy = -1; dy <= 1; ++dy) {
    const std::int64_t ny = static_cast<std::int64_t>(cy) + dy;
    if (ny < 0 || ny >= static_cast<std::int64_t>(params.cells_y)) continue;
    for (int dx = -1; dx <= 1; ++dx) {
      const std::int64_t nx = static_cast<std::int64_t>(cx) + dx;
      if (nx < 0 || nx >= static_cast<std::int64_t>(params.cells_x)) continue;
      out[n++] = static_cast<std::uint32_t>(ny) * params.cells_x +
                 static_cast<std::uint32_t>(nx);
    }
  }
  return n;
}

unsigned get_forward_neighbor_cells(
    const GridParams& params, std::uint32_t cell,
    std::array<std::uint32_t, 9>& out) noexcept {
  const std::uint32_t cx = cell % params.cells_x;
  const std::uint32_t cy = cell / params.cells_x;
  unsigned n = 0;
  // Row-major linearization: (+1, 0) and every dy = +1 cell have a larger
  // linear id than `cell`; everything else is smaller.
  if (cx + 1 < params.cells_x) out[n++] = cell + 1;
  if (cy + 1 < params.cells_y) {
    const std::uint32_t row = cell + params.cells_x;
    if (cx > 0) out[n++] = row - 1;
    out[n++] = row;
    if (cx + 1 < params.cells_x) out[n++] = row + 1;
  }
  return n;
}

GridParams grid_params(const Rect2& extent, float eps,
                       std::uint64_t max_cells) {
  if (!(eps > 0.0f) || !std::isfinite(eps)) {
    throw std::invalid_argument("grid index: eps must be positive and finite");
  }
  GridParams params;
  params.min_x = extent.min_x;
  params.min_y = extent.min_y;
  params.eps = eps;
  const std::array<float, 2> spans{extent.max_x - extent.min_x,
                                   extent.max_y - extent.min_y};
  std::array<std::uint32_t, 2> dims{};
  detail::eps_grid_dims(spans, eps, max_cells, dims, "grid index");
  params.cells_x = dims[0];
  params.cells_y = dims[1];
  return params;
}

GridIndex build_grid_index(std::span<const Point2> input, float eps,
                           std::uint64_t max_cells) {
  if (input.empty()) throw std::invalid_argument("grid index: empty database");
  Rect2 extent;
  for (const Point2& p : input) extent.expand(p);
  GridIndex index;
  index.params = grid_params(extent, eps, max_cells);

  // D in cell order: one counting sort fills G, A and D (paper Figure 1;
  // the unit-bin pre-sort of §IV is replaced, see DESIGN.md §2).
  detail::sort_into_cells(index, input, "grid index");
  return index;
}

SubCells build_sub_cells(const GridIndex& index) {
  const GridParams& params = index.params;
  SubCells sub_cells;
  if (index.max_cell_occupancy < kSubCellMinResidents ||
      params.cells_x > kMaxSubCellAxis || params.cells_y > kMaxSubCellAxis) {
    return sub_cells;
  }
  const std::size_t n = index.points.size();
  std::vector<std::uint8_t> sub(n);
  sub_cells.order.resize(n);
  sub_cells.bounds.resize(n);
  // A whole index has lookup[a] == a: position and id coincide.
  for (const std::uint32_t h : index.nonempty_cells) {
    const CellRange range = index.cells[h];
    if (range.count() < kSubCellMinResidents) {
      for (std::uint32_t a = range.begin; a < range.end; ++a) {
        sub_cells.order[a] = a;
      }
      continue;
    }
    std::array<std::uint32_t, 4> cursor{};  // counts, then cursors
    for (std::uint32_t a = range.begin; a < range.end; ++a) {
      sub[a] = static_cast<std::uint8_t>(params.sub_cell_of(index.points[a]));
      ++cursor[sub[a]];
    }
    std::uint32_t start = range.begin;
    for (unsigned s = 0; s < 4; ++s) {
      if (s > 0) sub_cells.bounds[range.begin + s - 1] = start;
      start += std::exchange(cursor[s], start);
    }
    for (std::uint32_t a = range.begin; a < range.end; ++a) {
      sub_cells.order[cursor[sub[a]]++] = a;
    }
  }
  return sub_cells;
}

void grid_query(const GridIndex& index, const Point2& q, float eps,
                std::vector<PointId>& out) {
  out.clear();
  const float eps2 = eps * eps;
  const std::uint32_t cell = index.params.linear_cell(q);
  std::array<std::uint32_t, 9> neighbors{};
  const unsigned n = get_neighbor_cells(index.params, cell, neighbors);
  for (unsigned c = 0; c < n; ++c) {
    // Shard sub-indexes hold a slab: global cell h lives at h - cell_base.
    // Queries for owned points never leave the slab; the bound check only
    // guards direct queries of ghost/outside points (unsigned wrap covers
    // cells below the base).
    const std::uint32_t local = neighbors[c] - index.cell_base;
    if (local >= index.cells.size()) continue;
    const CellRange range = index.cells[local];
    for (std::uint32_t a = range.begin; a < range.end; ++a) {
      const PointId id = index.lookup[a];
      if (dist2(q, index.points[id]) <= eps2) out.push_back(id);
    }
  }
}

}  // namespace hdbscan
