#include "index/grid_index.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace hdbscan {

namespace {

/// The geometry of a grid of eps-wide cells from corner `lo` to `hi`. Each
/// axis's span / eps is divided in float, as BasicGridParams bins points,
/// but floored and checked in double before it is narrowed: a span that is
/// not finite (it overflowed float) or a grid of more than `max_cells`
/// cells (or more than 32-bit cell ids can address) throws
/// std::invalid_argument.
template <typename Point>
BasicGridParams<Point> make_grid_params(
    const std::array<float, Point::kDims>& lo,
    const std::array<float, Point::kDims>& hi, float eps,
    std::uint64_t max_cells) {
  if (!(eps > 0.0f) || !std::isfinite(eps)) {
    throw std::invalid_argument("grid index: eps must be positive and finite");
  }
  const double limit = static_cast<double>(std::min<std::uint64_t>(
      max_cells, std::numeric_limits<std::uint32_t>::max()));
  std::array<std::uint32_t, Point::kDims> dims{};
  double total = 1.0;
  for (unsigned axis = 0; axis < Point::kDims; ++axis) {
    const float span = hi[axis] - lo[axis];
    if (!std::isfinite(span)) {
      throw std::invalid_argument("grid index: extent is not finite");
    }
    const double cells = std::floor(static_cast<double>(span / eps)) + 1.0;
    total *= cells;
    if (!(total <= limit)) {
      throw std::invalid_argument(
          "grid index: cell array would exceed its capacity of " +
          std::to_string(static_cast<std::uint64_t>(limit)) +
          " cells (eps too small for this extent)");
    }
    dims[axis] = static_cast<std::uint32_t>(cells);
  }
  return [&]<std::size_t... A>(std::index_sequence<A...>) {
    return BasicGridParams<Point>{{lo[A]..., eps, dims[A]...}};
  }(std::make_index_sequence<Point::kDims>{});
}

}  // namespace

GridParams grid_params(const Rect2& extent, float eps,
                       std::uint64_t max_cells) {
  return make_grid_params<Point2>({extent.min_x, extent.min_y},
                                 {extent.max_x, extent.max_y}, eps, max_cells);
}

template <typename Point>
BasicGridIndex<Point> build_grid_index(
    std::span<const std::type_identity_t<Point>> input, float eps,
    std::uint64_t max_cells) {
  if (input.empty()) throw std::invalid_argument("grid index: empty database");
  // The extent, with every coordinate checked first: std::min and std::max
  // would skip a NaN, and a NaN has no cell to be binned into.
  std::array<float, Point::kDims> lo{};
  std::array<float, Point::kDims> hi{};
  lo.fill(std::numeric_limits<float>::max());
  hi.fill(std::numeric_limits<float>::lowest());
  for (std::size_t i = 0; i < input.size(); ++i) {
    for (unsigned axis = 0; axis < Point::kDims; ++axis) {
      const float v = input[i][axis];
      if (!std::isfinite(v)) {
        throw std::invalid_argument("grid index: point " + std::to_string(i) +
                                    " has a coordinate that is not finite");
      }
      lo[axis] = std::min(lo[axis], v);
      hi[axis] = std::max(hi[axis], v);
    }
  }
  BasicGridIndex<Point> index;
  index.params = make_grid_params<Point>(lo, hi, eps, max_cells);

  // D in cell order: one counting sort fills G and D (paper Figure 1; the
  // unit-bin pre-sort of §IV is replaced, see DESIGN.md §2) — linear_cell
  // once per input point, per-cell counts, an exclusive scan into G, and
  // one scatter that writes D and original_ids at each cell's cursor. Each
  // cell's residents end up contiguous and in input order, and their ids
  // are their positions.
  const auto num_cells = static_cast<std::size_t>(index.params.num_cells());
  const std::size_t n = input.size();
  std::vector<std::uint32_t> cell_of(n);
  std::vector<std::uint32_t> cursor(num_cells, 0);  // counts, then cursors
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t h = index.params.linear_cell(input[i]);
    cell_of[i] = h;
    ++cursor[h];
  }

  index.cells.resize(num_cells);
  std::uint32_t running = 0;
  for (std::size_t h = 0; h < num_cells; ++h) {
    const std::uint32_t count = cursor[h];
    index.cells[h] = CellRange{running, running + count};
    cursor[h] = running;
    running += count;
    if (count > 0) {
      index.nonempty_cells.push_back(static_cast<std::uint32_t>(h));
      index.max_cell_occupancy = std::max(index.max_cell_occupancy, count);
    }
  }

  index.points.resize(n);
  index.original_ids.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t a = cursor[cell_of[i]]++;
    index.points[a] = input[i];
    index.original_ids[a] = static_cast<PointId>(i);
  }
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

template GridIndex build_grid_index<Point2>(std::span<const Point2>, float,
                                            std::uint64_t);
template GridIndex3 build_grid_index<Point3>(std::span<const Point3>, float,
                                             std::uint64_t);

}  // namespace hdbscan
