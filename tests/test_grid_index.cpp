#include "index/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "data/generators.hpp"

namespace hdbscan {
namespace {

std::vector<PointId> brute_force_neighbors(std::span<const Point2> points,
                                           const Point2& q, float eps) {
  std::vector<PointId> out;
  for (PointId i = 0; i < points.size(); ++i) {
    if (dist2(q, points[i]) <= eps * eps) out.push_back(i);
  }
  return out;
}

TEST(GridIndex, RejectsBadInput) {
  const std::vector<Point2> points{{0, 0}, {1, 1}};
  EXPECT_THROW(build_grid_index({}, 1.0f), std::invalid_argument);
  EXPECT_THROW(build_grid_index(points, 0.0f), std::invalid_argument);
  EXPECT_THROW(build_grid_index(points, -1.0f), std::invalid_argument);
  EXPECT_THROW(build_grid_index(points, 1e-9f, /*max_cells=*/100),
               std::invalid_argument);
}

TEST(GridIndex, RejectsGridBeyondCapacityBeforeNarrowing) {
  // extent / eps = 1e10 cells per axis: more than a 32-bit count holds.
  const std::vector<Point2> wide{{0.0f, 0.0f}, {1e6f, 1e6f}};
  EXPECT_THROW(build_grid_index(wide, 1e-4f), std::invalid_argument);
  // A span that overflows float must not collapse to a one-column grid.
  const std::vector<Point2> huge{{-3e38f, 0.0f}, {3e38f, 1.0f}};
  EXPECT_THROW(build_grid_index(huge, 1.0f), std::invalid_argument);
  const std::vector<Point2> huge_y{{0.0f, -3e38f}, {1.0f, 3e38f}};
  EXPECT_THROW(build_grid_index(huge_y, 1.0f), std::invalid_argument);
}

/// A NaN coordinate would pass the extent check (std::min and std::max skip
/// it) and then be cast to a cell index: the builder rejects it, naming the
/// first point that has one.
template <typename Point>
void expect_point_3_rejected(const std::vector<Point>& points) {
  try {
    (void)build_grid_index<Point>(points, 0.3f);
    ADD_FAILURE() << "a non-finite coordinate was binned";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("point 3 "), std::string::npos)
        << e.what();
  }
}

TEST(GridIndex, RejectsNonFiniteCoordinatesNamingThePoint) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float v : {nan, inf, -inf}) {
    SCOPED_TRACE(std::to_string(v));
    // Each axis of each dimension, beside three finite points.
    expect_point_3_rejected<Point2>({{0, 0}, {0.1f, 0}, {0.2f, 0}, {v, 0.5f}});
    expect_point_3_rejected<Point2>({{0, 0}, {0.1f, 0}, {0.2f, 0}, {0.5f, v}});
    expect_point_3_rejected<Point3>(
        {{0, 0, 0}, {0.1f, 0, 0}, {0.2f, 0, 0}, {v, 0.5f, 0.5f}});
    expect_point_3_rejected<Point3>(
        {{0, 0, 0}, {0.1f, 0, 0}, {0.2f, 0, 0}, {0.5f, v, 0.5f}});
    expect_point_3_rejected<Point3>(
        {{0, 0, 0}, {0.1f, 0, 0}, {0.2f, 0, 0}, {0.5f, 0.5f, v}});
  }
}

/// The stencils list their cells in ascending linear id, by (dy, dx) over
/// -1, 0, +1 with the grid's edges clipped; the forward half keeps the
/// cells with a larger id than the cell's own.
TEST(NeighborCells, StencilsListCellsInAscendingIdOrder) {
  const GridParams p{0, 0, 1.0f, 4, 3};
  for (std::uint32_t cell = 0; cell < p.num_cells(); ++cell) {
    const int cx = static_cast<int>(cell % 4);
    const int cy = static_cast<int>(cell / 4);
    std::vector<std::uint32_t> want;
    for (int y = cy - 1; y <= cy + 1; ++y) {
      for (int x = cx - 1; x <= cx + 1; ++x) {
        if (x >= 0 && x < 4 && y >= 0 && y < 3) want.push_back(y * 4 + x);
      }
    }
    std::array<std::uint32_t, 9> out{};
    const unsigned n = get_neighbor_cells(p, cell, out);
    EXPECT_EQ(std::vector<std::uint32_t>(out.begin(), out.begin() + n), want);
    std::erase_if(want, [&](std::uint32_t id) { return id <= cell; });
    const unsigned f = get_forward_neighbor_cells(p, cell, out);
    EXPECT_EQ(std::vector<std::uint32_t>(out.begin(), out.begin() + f), want);
  }
}

/// grid_params is the builder's own sizing: it gives the geometry the
/// builder builds, and the capacity check holds to the cell, without the
/// cell array being allocated.
TEST(GridIndex, GridParamsSizeTheGridTheBuilderBuilds) {
  const auto points = data::generate_uniform(500, 3, 10.0f, 7.0f);
  Rect2 extent;
  for (const Point2& p : points) extent.expand(p);
  const GridParams params = grid_params(extent, 0.3f);
  const GridIndex g = build_grid_index(points, 0.3f);
  EXPECT_EQ(params.min_x, g.params.min_x);
  EXPECT_EQ(params.min_y, g.params.min_y);
  EXPECT_EQ(params.eps, g.params.eps);
  EXPECT_EQ(params.cells_x, g.params.cells_x);
  EXPECT_EQ(params.cells_y, g.params.cells_y);

  // 8192 x 16384 cells is exactly kMaxGridCells; one more column is past.
  const GridParams full = grid_params(
      Rect2{.min_x = 0.0f, .min_y = 0.0f, .max_x = 8191.0f, .max_y = 16383.0f},
      1.0f);
  EXPECT_EQ(full.num_cells(), kMaxGridCells);
  EXPECT_THROW(
      (void)grid_params(Rect2{.min_x = 0.0f, .min_y = 0.0f, .max_x = 8192.0f,
                              .max_y = 16383.0f},
                        1.0f),
      std::invalid_argument);
  EXPECT_THROW((void)grid_params(extent, 0.0f), std::invalid_argument);
}

TEST(GridIndex, SinglePointGrid) {
  const std::vector<Point2> points{{3.5f, -2.0f}};
  const GridIndex g = build_grid_index(points, 0.5f);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.params.cells_x, 1u);
  EXPECT_EQ(g.params.cells_y, 1u);
  EXPECT_EQ(g.cells[0].begin, 0u);
  EXPECT_EQ(g.cells[0].end, 1u);
  EXPECT_EQ(g.nonempty_cells.size(), 1u);
  EXPECT_EQ(g.max_cell_occupancy, 1u);
}

TEST(GridIndex, CellRangesHoldEveryPointIdOnce) {
  // Ids are positions: the cells' ranges together list every point id
  // exactly once.
  const auto points = data::generate_uniform(5000, 1, 10.0f, 10.0f);
  const GridIndex g = build_grid_index(points, 0.3f);
  ASSERT_EQ(g.size(), points.size());
  std::vector<PointId> ids;
  for (const CellRange& range : g.cells) {
    for (PointId id = range.begin; id < range.end; ++id) ids.push_back(id);
  }
  ASSERT_EQ(ids.size(), points.size());
  std::sort(ids.begin(), ids.end());
  for (PointId i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

TEST(GridIndex, OriginalIdsArePermutation) {
  const auto points = data::generate_uniform(3000, 2, 10.0f, 10.0f);
  const GridIndex g = build_grid_index(points, 0.5f);
  std::vector<PointId> sorted(g.original_ids.begin(), g.original_ids.end());
  std::sort(sorted.begin(), sorted.end());
  for (PointId i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Reordered points really are the originals.
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.points[i], points[g.original_ids[i]]);
  }
}

TEST(GridIndex, PointsAreStoredInCellOrder) {
  // D is in cell order: each cell's residents are one contiguous run of D,
  // in input order, and the cells' runs follow one another in cell order,
  // so a point's id is its position.
  for (const float eps : {0.15f, 0.4f}) {
    const auto points = data::generate_space_weather(4000, 6);
    const GridIndex g = build_grid_index(points, eps);
    ASSERT_EQ(g.size(), points.size());
    ASSERT_EQ(g.cells.front().begin, 0u);
    ASSERT_EQ(g.cells.back().end, points.size());
    for (std::uint32_t h = 0; h < g.cells.size(); ++h) {
      if (h > 0) ASSERT_EQ(g.cells[h].begin, g.cells[h - 1].end);
      const CellRange range = g.cells[h];
      for (std::uint32_t a = range.begin; a < range.end; ++a) {
        ASSERT_EQ(g.params.linear_cell(g.points[a]), h) << "slot " << a;
        if (a > range.begin) {
          ASSERT_LT(g.original_ids[a - 1], g.original_ids[a])
              << "cell " << h << " not in input order";
        }
      }
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_EQ(g.points[i], points[g.original_ids[i]]);
    }
  }
}

TEST(GridIndex, CellRangesPartitionLookup) {
  const auto points = data::generate_sky_survey(4000, 3);
  const GridIndex g = build_grid_index(points, 0.4f);
  std::uint32_t covered = 0;
  std::uint32_t prev_end = 0;
  for (const CellRange& c : g.cells) {
    EXPECT_EQ(c.begin, prev_end);  // contiguous, in cell order
    EXPECT_LE(c.begin, c.end);
    covered += c.count();
    prev_end = c.end;
  }
  EXPECT_EQ(covered, points.size());
}

TEST(GridIndex, EveryPointInItsOwnCellRange) {
  const auto points = data::generate_space_weather(3000, 4);
  const GridIndex g = build_grid_index(points, 0.25f);
  for (PointId i = 0; i < g.size(); ++i) {
    const std::uint32_t h = g.params.linear_cell(g.points[i]);
    const CellRange range = g.cells[h];
    EXPECT_TRUE(range.begin <= i && i < range.end)
        << "point " << i << " missing from its cell";
  }
}

TEST(GridIndex, NonemptyCellsMatchOccupancy) {
  const auto points = data::generate_space_weather(2000, 5);
  const GridIndex g = build_grid_index(points, 0.5f);
  std::set<std::uint32_t> nonempty(g.nonempty_cells.begin(),
                                   g.nonempty_cells.end());
  std::uint32_t max_occ = 0;
  for (std::uint32_t h = 0; h < g.cells.size(); ++h) {
    if (g.cells[h].count() > 0) {
      EXPECT_TRUE(nonempty.count(h)) << h;
      max_occ = std::max(max_occ, g.cells[h].count());
    } else {
      EXPECT_FALSE(nonempty.count(h)) << h;
    }
  }
  EXPECT_EQ(g.max_cell_occupancy, max_occ);
}

TEST(NeighborCells, InteriorCellHasNine) {
  GridParams p{0, 0, 1.0f, 5, 5};
  std::array<std::uint32_t, 9> out{};
  EXPECT_EQ(get_neighbor_cells(p, 12, out), 9u);  // center of 5x5
  std::set<std::uint32_t> cells(out.begin(), out.end());
  for (const std::uint32_t c : {6u, 7u, 8u, 11u, 12u, 13u, 16u, 17u, 18u}) {
    EXPECT_TRUE(cells.count(c));
  }
}

TEST(NeighborCells, CornerCellHasFour) {
  GridParams p{0, 0, 1.0f, 5, 5};
  std::array<std::uint32_t, 9> out{};
  EXPECT_EQ(get_neighbor_cells(p, 0, out), 4u);
  EXPECT_EQ(get_neighbor_cells(p, 24, out), 4u);
}

TEST(NeighborCells, EdgeCellHasSix) {
  GridParams p{0, 0, 1.0f, 5, 5};
  std::array<std::uint32_t, 9> out{};
  EXPECT_EQ(get_neighbor_cells(p, 2, out), 6u);   // top edge
  EXPECT_EQ(get_neighbor_cells(p, 10, out), 6u);  // left edge
}

TEST(NeighborCells, SingleCellGrid) {
  GridParams p{0, 0, 1.0f, 1, 1};
  std::array<std::uint32_t, 9> out{};
  EXPECT_EQ(get_neighbor_cells(p, 0, out), 1u);
  EXPECT_EQ(out[0], 0u);
}

// Property sweep: grid_query must agree with brute force over datasets of
// both characters and a range of eps values.
class GridQueryProperty
    : public ::testing::TestWithParam<std::tuple<int, float>> {};

TEST_P(GridQueryProperty, MatchesBruteForce) {
  const auto [family, eps] = GetParam();
  const std::size_t n = 1500;
  const std::vector<Point2> points =
      family == 0   ? data::generate_uniform(n, 77, 8.0f, 8.0f)
      : family == 1 ? data::generate_space_weather(
                          n, 78, {.width = 8.0f, .height = 8.0f})
                    : data::generate_sky_survey(
                          n, 79, {.width = 8.0f, .height = 8.0f});
  const GridIndex g = build_grid_index(points, eps);

  std::vector<PointId> got;
  for (PointId q = 0; q < g.size(); q += 37) {  // sample queries
    grid_query(g, g.points[q], eps, got);
    auto expected = brute_force_neighbors(g.points, g.points[q], eps);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expected) << "query " << q << " eps " << eps;
    // Self-inclusion: the point itself is always within eps.
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), q));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndEps, GridQueryProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.05f, 0.2f, 0.5f, 1.0f, 2.5f)));

TEST(GridIndex, DuplicatePointsAllIndexed) {
  std::vector<Point2> points(100, Point2{1.0f, 1.0f});
  const GridIndex g = build_grid_index(points, 0.5f);
  EXPECT_EQ(g.max_cell_occupancy, 100u);
  std::vector<PointId> out;
  grid_query(g, {1.0f, 1.0f}, 0.5f, out);
  EXPECT_EQ(out.size(), 100u);
}

TEST(GridIndex, EpsLargerThanExtent) {
  const auto points = data::generate_uniform(200, 11, 2.0f, 2.0f);
  const GridIndex g = build_grid_index(points, 10.0f);
  EXPECT_EQ(g.params.num_cells(), 1u);
  std::vector<PointId> out;
  grid_query(g, points[0], 10.0f, out);
  EXPECT_EQ(out.size(), 200u);
}

}  // namespace
}  // namespace hdbscan
