// Multi-device neighbor-table construction: the index is replicated and
// batches are interleaved across devices (Mr. Scan's GPU-per-node
// direction, the paper's citation [7]). The front doors take any fleet the
// same way, and one device is a fleet of one: table and fused runs give
// the labels of one device on any fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/hybrid_dbscan.hpp"
#include "core/neighbor_table_builder.hpp"
#include "core/pipeline.hpp"
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
  ASSERT_EQ(got.total_pairs(), want.total_pairs());
  for (PointId i = 0; i < got.num_points(); ++i) {
    std::vector<PointId> a(got.neighbors(i).begin(), got.neighbors(i).end());
    std::vector<PointId> b(want.neighbors(i).begin(), want.neighbors(i).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "point " << i;
  }
}

class MultiDevice : public ::testing::TestWithParam<int> {};

TEST_P(MultiDevice, MatchesHostOracle) {
  const int num_devices = GetParam();
  const auto points = data::generate_space_weather(
      3000, 101, {.width = 10.0f, .height = 10.0f});
  const float eps = 0.35f;
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);

  std::vector<std::unique_ptr<cudasim::Device>> devices;
  std::vector<cudasim::Device*> device_ptrs;
  for (int d = 0; d < num_devices; ++d) {
    devices.push_back(
        std::make_unique<cudasim::Device>(cudasim::DeviceConfig{},
                                          fast_options()));
    device_ptrs.push_back(devices.back().get());
  }
  NeighborTableBuilder builder(device_ptrs);
  BuildReport report;
  expect_tables_equal(builder.build(index, eps, &report), oracle);
  // Every device's contexts get at least one batch.
  EXPECT_GE(report.plan.num_batches, static_cast<std::uint32_t>(num_devices));
  // Work actually lands on every device.
  for (const auto& dev : devices) {
    EXPECT_GT(dev->metrics().kernel_launches, 0u);
    EXPECT_GT(dev->metrics().d2h_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MultiDevice,
                         ::testing::Values(1, 2, 3, 4));

TEST(MultiDeviceBuilder, RejectsEmptyAndNullDeviceLists) {
  EXPECT_THROW(NeighborTableBuilder(std::vector<cudasim::Device*>{}),
               std::invalid_argument);
  EXPECT_THROW(NeighborTableBuilder(std::vector<cudasim::Device*>{nullptr}),
               std::invalid_argument);
}

TEST(MultiDeviceBuilder, ModeledTimeImprovesWithDevices) {
  const auto points = data::generate_sky_survey(
      20000, 102, {.width = 12.0f, .height = 12.0f});
  const float eps = 0.4f;
  const GridIndex index = build_grid_index(points, eps);

  // Min of three trials per device count: the model folds in measured
  // host CPU (staging appends), so a descheduled thread on a loaded CI
  // host can inflate any single trial.
  auto modeled_with = [&](int num_devices) {
    double best = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<std::unique_ptr<cudasim::Device>> devices;
      std::vector<cudasim::Device*> ptrs;
      for (int d = 0; d < num_devices; ++d) {
        devices.push_back(std::make_unique<cudasim::Device>(
            cudasim::DeviceConfig{}, fast_options()));
        ptrs.push_back(devices.back().get());
      }
      NeighborTableBuilder builder(ptrs);
      BuildReport report;
      (void)builder.build(index, eps, &report);
      best = std::min(best, report.modeled_table_seconds);
    }
    return best;
  };

  const double one = modeled_with(1);
  const double four = modeled_with(4);
  EXPECT_LT(four, one);
}

TEST(MultiDeviceBuilder, DeviceMemoryReleasedOnAll) {
  const auto points = data::generate_uniform(2000, 103, 8.0f, 8.0f);
  const GridIndex index = build_grid_index(points, 0.3f);
  std::vector<std::unique_ptr<cudasim::Device>> devices;
  std::vector<cudasim::Device*> ptrs;
  for (int d = 0; d < 3; ++d) {
    devices.push_back(std::make_unique<cudasim::Device>(
        cudasim::DeviceConfig{}, fast_options()));
    ptrs.push_back(devices.back().get());
  }
  {
    NeighborTableBuilder builder(ptrs);
    builder.build(index, 0.3f);
  }
  for (const auto& dev : devices) {
    dev->pool().trim();  // drop pooled scratch before the leak check
    EXPECT_EQ(dev->used_global_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Front doors: any fleet, one device's labels
// ---------------------------------------------------------------------------

struct Fleet {
  std::vector<std::unique_ptr<cudasim::Device>> owned;
  std::vector<cudasim::Device*> ptrs;

  explicit Fleet(int n) {
    for (int d = 0; d < n; ++d) {
      owned.push_back(std::make_unique<cudasim::Device>(
          cudasim::DeviceConfig{}, fast_options()));
      ptrs.push_back(owned.back().get());
    }
  }
};

struct Scenario {
  std::vector<Point2> points;
  float eps = 0.0f;
  std::uint64_t total_pairs = 0;  ///< of the full table
};

Scenario make_scenario(std::size_t n, float eps, std::uint64_t seed) {
  Scenario s;
  s.eps = eps;
  s.points = data::generate_space_weather(
      n, seed, {.width = 10.0f, .height = 10.0f});
  s.total_pairs =
      build_neighbor_table_host(build_grid_index(s.points, eps), eps)
          .total_pairs();
  return s;
}

/// Small batches under kHalf, so every lane of every device runs several.
BatchPolicy many_batch_policy(const Scenario& s) {
  BatchPolicy policy;
  policy.estimated_total_override = s.total_pairs;
  policy.static_threshold_pairs = 1;
  policy.static_buffer_pairs = std::max<std::uint64_t>(1, s.total_pairs / 12);
  return policy;
}

std::string mode_name(const ::testing::TestParamInfo<ClusterMode>& mode) {
  return mode.param == ClusterMode::kFused ? "fused" : "table";
}

class FleetOfOne : public ::testing::TestWithParam<ClusterMode> {};

TEST_P(FleetOfOne, HybridDbscanOverloadsAgree) {
  const Scenario s = make_scenario(3000, 0.35f, 32);
  const int minpts = 4;
  const ClusterMode mode = GetParam();
  cudasim::Device dev({}, fast_options());

  const ClusterResult single = hybrid_dbscan(dev, s.points, s.eps, minpts,
                                             nullptr, many_batch_policy(s),
                                             mode);
  const ClusterResult fleet = hybrid_dbscan({&dev}, s.points, s.eps, minpts,
                                            nullptr, many_batch_policy(s),
                                            mode);
  EXPECT_EQ(fleet.labels, single.labels);
  EXPECT_EQ(fleet.num_clusters, single.num_clusters);
}

TEST(FleetOfOne, RunMultiClusteringOverloadsAgree) {
  const Scenario s = make_scenario(2500, 0.35f, 33);
  const std::vector<Variant> variants = {{0.3f, 4}, {0.35f, 8}, {0.4f, 4}};
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "sequential");
    PipelineOptions opts;
    opts.pipelined = pipelined;
    opts.keep_results = true;
    cudasim::Device dev({}, fast_options());
    const PipelineReport single =
        run_multi_clustering(dev, s.points, variants, opts);
    const PipelineReport fleet =
        run_multi_clustering({&dev}, s.points, variants, opts);
    ASSERT_EQ(single.results.size(), variants.size());
    ASSERT_EQ(fleet.results.size(), variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
      EXPECT_TRUE(single.variants[i].outcome.ok);
      EXPECT_TRUE(fleet.variants[i].outcome.ok);
      EXPECT_EQ(fleet.results[i].labels, single.results[i].labels)
          << "variant " << i;
    }
  }
}

class TwoDeviceFleet : public ::testing::TestWithParam<ClusterMode> {};

TEST_P(TwoDeviceFleet, HybridDbscanLabelsMatchOneDevice) {
  const Scenario s = make_scenario(3000, 0.35f, 34);
  const int minpts = 4;
  const ClusterMode mode = GetParam();
  cudasim::Device dev({}, fast_options());
  const ClusterResult one = hybrid_dbscan(dev, s.points, s.eps, minpts,
                                          nullptr, many_batch_policy(s), mode);

  Fleet fleet(2);
  HybridTimings timings;
  const ClusterResult two = hybrid_dbscan(fleet.ptrs, s.points, s.eps, minpts,
                                          &timings, many_batch_policy(s), mode);
  EXPECT_EQ(two.labels, one.labels);
  EXPECT_EQ(two.num_clusters, one.num_clusters);
  EXPECT_EQ(timings.fused, mode == ClusterMode::kFused);
  EXPECT_EQ(timings.build_report.devices_lost, 0u);
  // The batches striped over both devices.
  for (const auto& dev2 : fleet.owned) {
    EXPECT_GT(dev2->metrics().kernel_launches, 0u);
  }
}

TEST_P(TwoDeviceFleet, RunMultiClusteringLabelsMatchOneDevice) {
  const Scenario s = make_scenario(2500, 0.35f, 35);
  const std::vector<Variant> variants = {{0.3f, 4}, {0.35f, 8}, {0.4f, 4}};
  PipelineOptions opts;
  opts.keep_results = true;
  opts.cluster_mode = GetParam();
  opts.policy = many_batch_policy(s);
  cudasim::Device dev({}, fast_options());
  const PipelineReport one = run_multi_clustering(dev, s.points, variants, opts);

  Fleet fleet(2);
  const PipelineReport two =
      run_multi_clustering(fleet.ptrs, s.points, variants, opts);
  ASSERT_EQ(one.results.size(), variants.size());
  ASSERT_EQ(two.results.size(), variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_TRUE(two.variants[i].outcome.ok) << two.variants[i].outcome.error;
    EXPECT_EQ(two.variants[i].fused, GetParam() == ClusterMode::kFused);
    EXPECT_EQ(two.results[i].labels, one.results[i].labels)
        << "variant " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, FleetOfOne,
                         ::testing::Values(ClusterMode::kBatchTable,
                                           ClusterMode::kFused),
                         mode_name);
INSTANTIATE_TEST_SUITE_P(Modes, TwoDeviceFleet,
                         ::testing::Values(ClusterMode::kBatchTable,
                                           ClusterMode::kFused),
                         mode_name);

// A queue_bytes_budget smaller than any single table must still drain a
// multi-variant pipeline whose tables each build striped over two
// devices: the empty-queue one-item minimum keeps the producer from
// deadlocking against consumers that cannot admit an over-budget table.
TEST(FleetPipeline, ByteBudgetOneItemMinimumDrainsTwoDeviceBuilds) {
  const Scenario s = make_scenario(3000, 0.35f, 31);
  const std::vector<Variant> variants = {
      {0.35f, 4}, {0.35f, 8}, {0.35f, 12}, {0.35f, 16}};

  PipelineOptions want_opts;
  want_opts.pipelined = false;
  want_opts.keep_results = true;
  want_opts.cluster_mode = ClusterMode::kBatchTable;
  want_opts.policy = many_batch_policy(s);
  cudasim::Device single({}, fast_options());
  const PipelineReport want =
      run_multi_clustering(single, s.points, variants, want_opts);

  Fleet fleet(2);
  PipelineOptions opts = want_opts;
  opts.pipelined = true;
  opts.queue_capacity = 3;
  opts.queue_bytes_budget = 1;  // every table is over budget
  const PipelineReport got =
      run_multi_clustering(fleet.ptrs, s.points, variants, opts);

  ASSERT_EQ(got.variants.size(), variants.size());
  ASSERT_EQ(got.results.size(), variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_TRUE(got.variants[i].outcome.ok) << got.variants[i].outcome.error;
    EXPECT_EQ(got.variants[i].outcome.failure, FailureReason::kNone);
    EXPECT_EQ(got.results[i].labels, want.results[i].labels)
        << "variant " << i << " labels diverge under byte-budget 1";
  }
  // The budget pressure must not leak device memory on either device.
  for (const auto& dev : fleet.owned) {
    dev->pool().trim();
    EXPECT_EQ(dev->used_global_bytes(), 0u);
  }
}

}  // namespace
}  // namespace hdbscan
