#include "index/grid_index3.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "index/cell_sort.hpp"

namespace hdbscan {

unsigned get_neighbor_cells(const GridParams3& params, std::uint32_t cell,
                            std::array<std::uint32_t, 27>& out) noexcept {
  const std::uint32_t plane = params.cells_x * params.cells_y;
  const std::uint32_t cz = cell / plane;
  const std::uint32_t rem = cell % plane;
  const std::uint32_t cy = rem / params.cells_x;
  const std::uint32_t cx = rem % params.cells_x;
  unsigned n = 0;
  for (int dz = -1; dz <= 1; ++dz) {
    const std::int64_t nz = static_cast<std::int64_t>(cz) + dz;
    if (nz < 0 || nz >= static_cast<std::int64_t>(params.cells_z)) continue;
    for (int dy = -1; dy <= 1; ++dy) {
      const std::int64_t ny = static_cast<std::int64_t>(cy) + dy;
      if (ny < 0 || ny >= static_cast<std::int64_t>(params.cells_y)) continue;
      for (int dx = -1; dx <= 1; ++dx) {
        const std::int64_t nx = static_cast<std::int64_t>(cx) + dx;
        if (nx < 0 || nx >= static_cast<std::int64_t>(params.cells_x)) {
          continue;
        }
        out[n++] = (static_cast<std::uint32_t>(nz) * params.cells_y +
                    static_cast<std::uint32_t>(ny)) *
                       params.cells_x +
                   static_cast<std::uint32_t>(nx);
      }
    }
  }
  return n;
}

unsigned get_forward_neighbor_cells(
    const GridParams3& params, std::uint32_t cell,
    std::array<std::uint32_t, 27>& out) noexcept {
  const std::uint32_t plane = params.cells_x * params.cells_y;
  const std::uint32_t cz = cell / plane;
  const std::uint32_t rem = cell % plane;
  const std::uint32_t cy = rem / params.cells_x;
  const std::uint32_t cx = rem % params.cells_x;
  unsigned n = 0;
  // dz = 0 plane: the 2-D forward stencil (+1, 0) plus the whole dy = +1 row.
  if (cx + 1 < params.cells_x) out[n++] = cell + 1;
  if (cy + 1 < params.cells_y) {
    const std::uint32_t row = cell + params.cells_x;
    if (cx > 0) out[n++] = row - 1;
    out[n++] = row;
    if (cx + 1 < params.cells_x) out[n++] = row + 1;
  }
  // dz = +1 plane: all 9 adjacent columns have a larger linear id.
  if (cz + 1 < params.cells_z) {
    for (int dy = -1; dy <= 1; ++dy) {
      const std::int64_t ny = static_cast<std::int64_t>(cy) + dy;
      if (ny < 0 || ny >= static_cast<std::int64_t>(params.cells_y)) continue;
      for (int dx = -1; dx <= 1; ++dx) {
        const std::int64_t nx = static_cast<std::int64_t>(cx) + dx;
        if (nx < 0 || nx >= static_cast<std::int64_t>(params.cells_x)) {
          continue;
        }
        out[n++] = ((cz + 1) * params.cells_y +
                    static_cast<std::uint32_t>(ny)) *
                       params.cells_x +
                   static_cast<std::uint32_t>(nx);
      }
    }
  }
  return n;
}

GridIndex3 build_grid_index3(std::span<const Point3> input, float eps,
                             std::uint64_t max_cells) {
  if (input.empty()) {
    throw std::invalid_argument("grid index 3d: empty database");
  }
  if (!(eps > 0.0f) || !std::isfinite(eps)) {
    throw std::invalid_argument("grid index 3d: eps must be positive");
  }

  GridIndex3 index;

  float min_x = std::numeric_limits<float>::max(), max_x = -min_x;
  float min_y = min_x, max_y = max_x;
  float min_z = min_x, max_z = max_x;
  for (const Point3& p : input) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
    min_z = std::min(min_z, p.z);
    max_z = std::max(max_z, p.z);
  }

  GridParams3& params = index.params;
  params.min_x = min_x;
  params.min_y = min_y;
  params.min_z = min_z;
  params.eps = eps;
  const std::array<float, 3> spans{max_x - min_x, max_y - min_y,
                                   max_z - min_z};
  std::array<std::uint32_t, 3> dims{};
  detail::eps_grid_dims(spans, eps, max_cells, dims, "grid index 3d");
  params.cells_x = dims[0];
  params.cells_y = dims[1];
  params.cells_z = dims[2];

  // D in cell order, exactly as in the 2-D builder.
  detail::sort_into_cells(index, input, "grid index 3d");
  return index;
}

void grid_query3(const GridIndex3& index, const Point3& q, float eps,
                 std::vector<PointId>& out) {
  out.clear();
  const float eps2 = eps * eps;
  std::array<std::uint32_t, 27> neighbors{};
  const unsigned n =
      get_neighbor_cells(index.params, index.params.linear_cell(q), neighbors);
  for (unsigned c = 0; c < n; ++c) {
    const CellRange range = index.cells[neighbors[c]];
    for (std::uint32_t a = range.begin; a < range.end; ++a) {
      const PointId id = index.lookup[a];
      if (dist2(q, index.points[id]) <= eps2) out.push_back(id);
    }
  }
}

}  // namespace hdbscan
