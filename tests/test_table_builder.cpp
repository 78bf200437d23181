// End-to-end batched construction of T on the simulated device must equal
// the host-built oracle, across batch counts, stream counts, device sizes,
// and under deliberately broken estimates (overflow-recovery path).
#include "core/neighbor_table_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cudasim/buffer_pool.hpp"
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

TEST(TableBuilder, MatchesHostOracleDefaultPolicy) {
  const auto points = data::generate_space_weather(4000, 51);
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  cudasim::Device dev({}, fast_options());
  BuildReport report;
  // A denser sample than the paper's 1% keeps the estimate tight enough on
  // this small skewed input that no overflow split should ever trigger.
  BatchPolicy policy;
  policy.sample_fraction = 0.2;
  NeighborTableBuilder builder(dev, policy);
  const NeighborTable table = builder.build(index, eps, &report);
  expect_tables_equal(table, oracle);
  EXPECT_EQ(report.total_pairs, oracle.total_pairs());
  EXPECT_EQ(report.plan.num_batches, 3u);  // variable-buffer path
  EXPECT_EQ(report.overflow_splits, 0u);
  EXPECT_GT(report.kernel_modeled_seconds, 0.0);
}

class TableBuilderStreams : public ::testing::TestWithParam<unsigned> {};

TEST_P(TableBuilderStreams, MatchesOracleForAnyStreamCount) {
  const auto points = data::generate_sky_survey(3000, 52);
  const float eps = 0.35f;
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  cudasim::Device dev({}, fast_options());
  BatchPolicy policy;
  policy.num_streams = GetParam();
  NeighborTableBuilder builder(dev, policy);
  expect_tables_equal(builder.build(index, eps), oracle);
}

INSTANTIATE_TEST_SUITE_P(Streams, TableBuilderStreams,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(TableBuilder, ManyBatchesViaStaticPolicy) {
  const auto points = data::generate_space_weather(3000, 53);
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  cudasim::Device dev({}, fast_options());
  BatchPolicy policy;
  policy.static_threshold_pairs = 1;  // always static
  policy.static_buffer_pairs = oracle.total_pairs() / 10 + 1;
  policy.sample_fraction = 1.0;       // exact a_b
  BuildReport report;
  NeighborTableBuilder builder(dev, policy);
  expect_tables_equal(builder.build(index, eps, &report), oracle);
  EXPECT_GE(report.plan.num_batches, 10u);
}

TEST(TableBuilder, OverflowRecoveryViaSplitting) {
  // Lie to the planner: claim the result is 50x smaller than reality. The
  // per-batch buffers overflow and the builder must recover by splitting
  // batches instead of crashing or dropping pairs.
  const auto points = data::generate_space_weather(3000, 54);
  const float eps = 0.4f;
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  cudasim::Device dev({}, fast_options());
  BatchPolicy policy;
  policy.estimated_total_override = oracle.total_pairs() / 50 + 1;
  BuildReport report;
  NeighborTableBuilder builder(dev, policy);
  expect_tables_equal(builder.build(index, eps, &report), oracle);
  EXPECT_GT(report.overflow_splits, 0u);
  EXPECT_GT(report.batches_run, report.plan.num_batches);
}

TEST(TableBuilder, DeviceMemoryFullyReleased) {
  const auto points = data::generate_sky_survey(2000, 56);
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(points, eps);
  cudasim::Device dev({}, fast_options());
  {
    NeighborTableBuilder builder(dev);
    builder.build(index, eps);
  }
  // Scratch is cached in the device's pool across builds; after a trim the
  // device must be back to an empty footprint.
  dev.pool().trim();
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

TEST(TableBuilder, TinyDeviceMemoryForcesManySmallBatchesCsr) {
  // 768 KiB of "GPU" memory: index + per-point counts + three small value
  // buffers. Exercises the device-capacity cap in the planner (a slot is
  // a bare PointId, so the device must be tiny for the cap to bite).
  const auto points = data::generate_uniform(5000, 57, 10.0f, 10.0f);
  const float eps = 0.5f;
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  cudasim::DeviceConfig cfg;
  cfg.global_mem_bytes = 768ull << 10;
  cudasim::Device dev(cfg, fast_options());
  BuildReport report;
  NeighborTableBuilder builder(dev);
  expect_tables_equal(builder.build(index, eps, &report), oracle);
  EXPECT_GT(report.plan.num_batches, 3u);
}

TEST(TableBuilder, EstimateSecondsAreNegligible) {
  // Paper: the estimation kernel "executes once in negligible time".
  const auto points = data::generate_sky_survey(20000, 58);
  const float eps = 0.25f;
  const GridIndex index = build_grid_index(points, eps);
  cudasim::Device dev({}, fast_options());
  BuildReport report;
  NeighborTableBuilder builder(dev);
  builder.build(index, eps, &report);
  EXPECT_LT(report.estimate_seconds, 0.25 * report.table_seconds);
}

}  // namespace
}  // namespace hdbscan
