// The two-pass CSR pipeline must produce exactly the neighbor table the
// host oracle does — across clustered, uniform, and degenerate (every point
// in one cell) data — and account for its transfers and atomics exactly:
// per-point offsets plus bare values cross PCIe, and no batch kernel
// issues a global atomic.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/neighbor_table_builder.hpp"
#include "data/generators.hpp"
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

void expect_tables_equal(const NeighborTable& got, const NeighborTable& want) {
  ASSERT_EQ(got.num_points(), want.num_points());
  EXPECT_EQ(got.total_pairs(), want.total_pairs());
  for (PointId i = 0; i < got.num_points(); ++i) {
    std::vector<PointId> a(got.neighbors(i).begin(), got.neighbors(i).end());
    std::vector<PointId> b(want.neighbors(i).begin(), want.neighbors(i).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "neighborhood mismatch at point " << i;
  }
}

/// Builds T under the given scan mode and checks it against the host
/// oracle.
BuildReport build_and_check(const std::vector<Point2>& points, float eps,
                            ScanMode scan = ScanMode::kHalf) {
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  cudasim::Device dev({}, fast_options());
  BatchPolicy policy;
  policy.scan_mode = scan;
  BuildReport report;
  NeighborTableBuilder builder(dev, policy);
  expect_tables_equal(builder.build(index, eps, &report), oracle);
  EXPECT_EQ(report.scan_mode, scan);
  EXPECT_EQ(report.total_pairs, oracle.total_pairs());
  return report;
}

TEST(CsrPipeline, MatchesOracleClustered) {
  build_and_check(data::generate_sky_survey(4000, 71), 0.3f);
}

TEST(CsrPipeline, MatchesOracleUniform) {
  build_and_check(data::generate_uniform(4000, 72, 10.0f, 10.0f), 0.4f);
}

TEST(CsrPipeline, MatchesOracleDegenerateOneCell) {
  // Every point identical: the entire dataset lands in one grid cell and
  // every point neighbors every point (n^2 pairs) — worst-case skew for
  // batching, counting, and the CSR offsets.
  const std::vector<Point2> points(600, Point2{1.0f, 1.0f});
  build_and_check(points, 0.5f, ScanMode::kFull);
  build_and_check(points, 0.5f, ScanMode::kHalf);
}

TEST(CsrPipeline, OverflowSplitsRecoverWithCsr) {
  // Sabotage the estimate so the planned buffer is ~50x too small: the
  // count pass detects the exact overflow before any fill work and the
  // batch splits recursively until everything fits.
  const auto points = data::generate_space_weather(3000, 73);
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  cudasim::Device dev({}, fast_options());
  BatchPolicy policy;
  policy.estimated_total_override = oracle.total_pairs() / 50 + 1;
  BuildReport report;
  NeighborTableBuilder builder(dev, policy);
  expect_tables_equal(builder.build(index, eps, &report), oracle);
  EXPECT_GT(report.overflow_splits, 0u);
  EXPECT_EQ(report.total_pairs, oracle.total_pairs());
}

TEST(CsrPipeline, ShipsExactCsrBytesAndOnlyEstimationAtomics) {
  // A materialized build of n points and a final table of P pairs ships
  // 4 B of offset per point plus 4 B per shipped value. kFull ships every
  // row whole: 4n + 4P. kHalf ships forward rows only — the n self pairs
  // plus each of the (P - n) / 2 cross pairs once: 4n + 4 (P + n) / 2 =
  // 6n + 2P. The count and fill kernels issue no atomics, so the only
  // ones left are the estimation kernel's.
  const auto points = data::generate_uniform(4000, 74, 10.0f, 10.0f);
  const std::uint64_t n = points.size();
  for (const ScanMode scan : {ScanMode::kFull, ScanMode::kHalf}) {
    const BuildReport r = build_and_check(points, 0.5f, scan);
    ASSERT_EQ(r.overflow_splits, 0u);
    ASSERT_EQ(r.transient_retries, 0u);
    const std::uint64_t pairs = r.total_pairs;
    EXPECT_EQ(r.d2h_bytes,
              scan == ScanMode::kFull ? 4 * n + 4 * pairs : 6 * n + 2 * pairs);
    ASSERT_GT(r.estimate.kernel_stats.work.atomic_ops, 0u);
    EXPECT_EQ(r.atomic_ops, r.estimate.kernel_stats.work.atomic_ops);
    EXPECT_GT(r.scan_modeled_seconds, 0.0);
  }
}

}  // namespace
}  // namespace hdbscan
