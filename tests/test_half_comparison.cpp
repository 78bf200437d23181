// ScanMode::kHalf property tests: every half-comparison build (batched
// CSR, 3-D, host-run kernel bodies) must canonicalize to the exact table
// the full scan produces — including on the inputs that stress the
// ordering invariant (duplicate coordinates, points sitting exactly on
// cell boundaries, one dense cell) — while doing roughly half the
// distance-test FLOPs.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/neighbor_table_builder.hpp"
#include "data/generators.hpp"
#include "gpu/kernels.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

cudasim::SimulationOptions fast_options() {
  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  opt.executor_threads = 2;
  return opt;
}

void expect_identical(NeighborTable got, NeighborTable want) {
  got.canonicalize();
  want.canonicalize();
  ASSERT_EQ(got.num_points(), want.num_points());
  EXPECT_EQ(got.total_pairs(), want.total_pairs());
  EXPECT_TRUE(got.identical_to(want));
}

/// Builds the same index twice — once per scan mode — and checks byte
/// equality after canonicalization.
void expect_half_matches_full(const std::vector<Point2>& points, float eps) {
  const GridIndex index = build_grid_index(points, eps);
  BatchPolicy policy;

  policy.scan_mode = ScanMode::kFull;
  cudasim::Device full_dev({}, fast_options());
  NeighborTable full = NeighborTableBuilder(full_dev, policy).build(index, eps);

  policy.scan_mode = ScanMode::kHalf;
  cudasim::Device half_dev({}, fast_options());
  NeighborTable half = NeighborTableBuilder(half_dev, policy).build(index, eps);

  expect_identical(std::move(half), std::move(full));
}

/// Duplicate coordinates: zero-distance pairs between distinct ids, where
/// "tested exactly once" leans entirely on the lookup-position ordering
/// (coordinates cannot break the tie).
std::vector<Point2> duplicate_heavy_points() {
  std::vector<Point2> points;
  for (int i = 0; i < 60; ++i) points.push_back({1.05f, 1.05f});
  for (int i = 0; i < 40; ++i) points.push_back({1.05f, 1.35f});
  const auto filler = data::generate_uniform(400, 11, 4.0f, 4.0f);
  points.insert(points.end(), filler.begin(), filler.end());
  return points;
}

/// Points exactly on cell boundaries: candidates sit in the first row/col
/// of their cell, where an off-by-one in the forward stencil would drop or
/// double-count cross-cell pairs.
std::vector<Point2> cell_boundary_points(float eps) {
  std::vector<Point2> points;
  for (int cx = 0; cx < 8; ++cx) {
    for (int cy = 0; cy < 8; ++cy) {
      points.push_back({cx * eps, cy * eps});          // cell corner
      points.push_back({cx * eps + eps / 2, cy * eps});  // edge midpoint
    }
  }
  return points;
}

TEST(HalfComparison, CsrMatchesFullOnDuplicateCoordinates) {
  expect_half_matches_full(duplicate_heavy_points(), 0.3f);
}

TEST(HalfComparison, CsrMatchesFullOnCellBoundaryPoints) {
  expect_half_matches_full(cell_boundary_points(0.25f), 0.25f);
}

TEST(HalfComparison, CsrMatchesFullOnDenseSingleCell) {
  // Every point in one grid cell: the same-cell >= rule carries the whole
  // invariant (the stencil contributes nothing).
  std::vector<Point2> points(500, Point2{2.0f, 2.0f});
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].x += 0.0001f * static_cast<float>(i % 7);
  }
  expect_half_matches_full(points, 0.5f);
}

TEST(HalfComparison, MatchesHostOracle) {
  // Not just full-vs-half consistency: the half build equals the
  // independently computed host table.
  const auto points = data::generate_space_weather(
      2000, 33, {.width = 8.0f, .height = 8.0f});
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(points, eps);
  cudasim::Device dev({}, fast_options());
  NeighborTable table = NeighborTableBuilder(dev).build(index, eps);
  expect_identical(std::move(table), build_neighbor_table_host(index, eps));
}

TEST(HalfComparison, HostStridedForwardShardsExpandToFullTable) {
  // The degradation ladder's host rung builds *forward* shards in half
  // mode; merged and expanded they must equal the full host table.
  const auto points = data::generate_uniform(1500, 7, 6.0f, 6.0f);
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(points, eps);
  std::vector<NeighborTable> parts;
  const std::uint32_t stride = 3;
  for (std::uint32_t first = 0; first < stride; ++first) {
    parts.push_back(gpu::host_csr_batch(GridView::of(index), eps,
                                        {first, stride}, ScanMode::kHalf));
  }
  NeighborTable merged(index.size());
  const double expand_seconds =
      merged.assemble(std::move(parts), /*expand_half=*/true, 12);
  EXPECT_GE(expand_seconds, 0.0);
  expect_identical(std::move(merged), build_neighbor_table_host(index, eps));
}

TEST(HalfComparison, Device3MatchesFullAndHost) {
  std::vector<Point3> points;
  Xoshiro256 rng(19);
  for (int i = 0; i < 1200; ++i) {
    points.push_back({rng.uniform(0.0f, 4.0f), rng.uniform(0.0f, 4.0f),
                      rng.uniform(0.0f, 4.0f)});
  }
  // Duplicate-coordinate clump in 3-D too.
  for (int i = 0; i < 30; ++i) points.push_back({1.5f, 1.5f, 1.5f});
  const float eps = 0.4f;
  const GridIndex3 index = build_grid_index<Point3>(points, eps);
  BatchPolicy policy;

  policy.scan_mode = ScanMode::kFull;
  cudasim::Device full_dev({}, fast_options());
  NeighborTable full = NeighborTableBuilder(full_dev, policy).build(index, eps);
  policy.scan_mode = ScanMode::kHalf;
  cudasim::Device half_dev({}, fast_options());
  NeighborTable half = NeighborTableBuilder(half_dev, policy).build(index, eps);

  NeighborTable oracle = build_neighbor_table_host(index, eps);
  expect_identical(std::move(half), std::move(full));

  cudasim::Device dev2({}, fast_options());
  NeighborTable again = NeighborTableBuilder(dev2, policy).build(index, eps);
  expect_identical(std::move(again), std::move(oracle));
}

TEST(HalfComparison, HalfScanRoughlyHalvesDistanceFlops) {
  // The tentpole's arithmetic claim, as a regression gate: on uniform data
  // the half scan must cut the batch kernels' distance-test FLOPs to
  // under 0.6x of the full scan (ideal is ~0.5x; self-pairs and stencil
  // edges keep it above that).
  const auto points = data::generate_uniform(6000, 5, 8.0f, 8.0f);
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(points, eps);

  BatchPolicy policy;
  BuildReport full_report, half_report;
  policy.scan_mode = ScanMode::kFull;
  cudasim::Device full_dev({}, fast_options());
  NeighborTable full =
      NeighborTableBuilder(full_dev, policy).build(index, eps, &full_report);
  policy.scan_mode = ScanMode::kHalf;
  cudasim::Device half_dev({}, fast_options());
  NeighborTable half =
      NeighborTableBuilder(half_dev, policy).build(index, eps, &half_report);

  ASSERT_GT(full_report.kernel_flops, 0u);
  ASSERT_GT(half_report.kernel_flops, 0u);
  const double ratio = static_cast<double>(half_report.kernel_flops) /
                       static_cast<double>(full_report.kernel_flops);
  EXPECT_LT(ratio, 0.6);
  // Same output, and the half build shipped fewer result bytes.
  EXPECT_EQ(half_report.total_pairs, full_report.total_pairs);
  EXPECT_LT(half_report.d2h_bytes, full_report.d2h_bytes);
  EXPECT_GT(half_report.expand_seconds, 0.0);
  EXPECT_EQ(half_report.scan_mode, ScanMode::kHalf);
  EXPECT_EQ(full_report.scan_mode, ScanMode::kFull);
  expect_identical(std::move(half), std::move(full));
}

}  // namespace
}  // namespace hdbscan
