#include "index/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

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

GridIndex build_grid_index(std::span<const Point2> input, float eps,
                           std::uint64_t max_cells) {
  if (input.empty()) throw std::invalid_argument("grid index: empty database");
  if (!(eps > 0.0f) || !std::isfinite(eps)) {
    throw std::invalid_argument("grid index: eps must be positive and finite");
  }

  GridIndex index;

  // Dataset extent.
  Rect2 extent;
  for (const Point2& p : input) extent.expand(p);

  // Locality pre-sort: order the database by unit-width spatial bins (paper
  // §IV: "binning p_i in x and y dimensions of unit width such that points
  // in similar spatial locations will be stored nearby each other").
  std::vector<PointId> order(input.size());
  std::iota(order.begin(), order.end(), PointId{0});
  auto unit_bin = [&](PointId id) {
    const Point2& p = input[id];
    const auto bx = static_cast<std::int64_t>(std::floor(p.x - extent.min_x));
    const auto by = static_cast<std::int64_t>(std::floor(p.y - extent.min_y));
    return std::pair<std::int64_t, std::int64_t>(by, bx);
  };
  std::stable_sort(order.begin(), order.end(), [&](PointId a, PointId b) {
    return unit_bin(a) < unit_bin(b);
  });

  index.points.reserve(input.size());
  index.original_ids = std::move(order);
  for (PointId id : index.original_ids) index.points.push_back(input[id]);

  // Grid geometry.
  GridParams& params = index.params;
  params.min_x = extent.min_x;
  params.min_y = extent.min_y;
  params.eps = eps;
  params.cells_x = static_cast<std::uint32_t>(
                       std::floor((extent.max_x - extent.min_x) / eps)) +
                   1;
  params.cells_y = static_cast<std::uint32_t>(
                       std::floor((extent.max_y - extent.min_y) / eps)) +
                   1;
  if (params.num_cells() > max_cells) {
    throw std::invalid_argument(
        "grid index: cell array would exceed the configured capacity (eps "
        "too small for this extent)");
  }

  // Counting sort of point ids into cells: G holds [Amin, Amax) ranges into
  // the lookup array A, |A| == |D| (paper Figure 1).
  const auto num_cells = static_cast<std::size_t>(params.num_cells());
  std::vector<std::uint32_t> counts(num_cells, 0);
  std::vector<std::uint32_t> cell_of(index.points.size());
  for (std::size_t i = 0; i < index.points.size(); ++i) {
    const std::uint32_t h = params.linear_cell(index.points[i]);
    cell_of[i] = h;
    ++counts[h];
  }

  index.cells.resize(num_cells);
  std::uint32_t running = 0;
  for (std::size_t h = 0; h < num_cells; ++h) {
    index.cells[h].begin = running;
    running += counts[h];
    index.cells[h].end = running;
    if (counts[h] > 0) {
      index.nonempty_cells.push_back(static_cast<std::uint32_t>(h));
      index.max_cell_occupancy = std::max(index.max_cell_occupancy, counts[h]);
    }
  }

  index.lookup.resize(index.points.size());
  std::vector<std::uint32_t> cursor(num_cells);
  for (std::size_t h = 0; h < num_cells; ++h) cursor[h] = index.cells[h].begin;
  for (std::size_t i = 0; i < index.points.size(); ++i) {
    index.lookup[cursor[cell_of[i]]++] = static_cast<PointId>(i);
  }

  // Ordering invariant: filling A in increasing point-index order with one
  // cursor per cell leaves every cell's slice of A strictly ascending. The
  // half-comparison kernels depend on this, so verify it here (one linear
  // pass — noise next to the sorts above) rather than trusting it silently.
  for (std::size_t a = 1; a < index.lookup.size(); ++a) {
    if (cell_of[index.lookup[a - 1]] == cell_of[index.lookup[a]] &&
        index.lookup[a - 1] >= index.lookup[a]) {
      throw std::logic_error(
          "grid index: lookup ids not ascending within a cell (ordering "
          "invariant violated)");
    }
  }

  return index;
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
