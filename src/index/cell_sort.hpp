// The two steps the 2-D and 3-D grid builders share: sizing the eps-cell
// grid without overflow, and the counting sort that stores the database in
// cell order. Internal to index/.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "index/grid_index.hpp"

namespace hdbscan::detail {

/// Cells per axis of a grid of eps-wide cells over per-axis extents
/// `spans`. Each ratio is divided in float, as GridParams bins points, but
/// floored and checked in double before it is narrowed: a span that is not
/// finite (it overflowed float) or a grid of more than `max_cells` cells
/// (or more than 32-bit cell ids can address) throws
/// std::invalid_argument. `what` prefixes the messages.
inline void eps_grid_dims(std::span<const float> spans, float eps,
                          std::uint64_t max_cells,
                          std::span<std::uint32_t> dims, const char* what) {
  const double limit = static_cast<double>(std::min<std::uint64_t>(
      max_cells, std::numeric_limits<std::uint32_t>::max()));
  double total = 1.0;
  for (std::size_t d = 0; d < spans.size(); ++d) {
    if (!std::isfinite(spans[d])) {
      throw std::invalid_argument(std::string(what) +
                                  ": extent is not finite");
    }
    const double cells = std::floor(static_cast<double>(spans[d] / eps)) + 1.0;
    total *= cells;
    if (!(total <= limit)) {
      throw std::invalid_argument(
          std::string(what) + ": cell array would exceed its capacity of " +
          std::to_string(static_cast<std::uint64_t>(limit)) +
          " cells (eps too small for this extent)");
    }
    dims[d] = static_cast<std::uint32_t>(cells);
  }
}

/// Stores `input` in eps-cell order: linear_cell once per input point,
/// per-cell counts, an exclusive scan into `index.cells`, and one scatter
/// that writes points, original_ids and lookup at each cell's cursor. Each
/// cell's residents end up contiguous and in input order, so on a whole
/// index lookup[a] == a. `index.params` must already hold the geometry.
template <typename Index, typename Point>
void sort_into_cells(Index& index, std::span<const Point> input,
                     const char* what) {
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
  index.lookup.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t a = cursor[cell_of[i]]++;
    index.points[a] = input[i];
    index.original_ids[a] = static_cast<PointId>(i);
    index.lookup[a] = a;
  }

  // Ordering invariant (ScanMode::kHalf depends on it): every cell's slice
  // of A is strictly ascending. One linear pass, so verify it rather than
  // trust it.
  for (const std::uint32_t h : index.nonempty_cells) {
    const CellRange range = index.cells[h];
    for (std::uint32_t a = range.begin + 1; a < range.end; ++a) {
      if (index.lookup[a - 1] >= index.lookup[a]) {
        throw std::logic_error(
            std::string(what) +
            ": lookup ids not ascending within a cell (ordering invariant "
            "violated)");
      }
    }
  }
}

}  // namespace hdbscan::detail
