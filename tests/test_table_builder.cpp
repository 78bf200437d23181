// End-to-end batched construction of T on the simulated device must equal
// the host-built oracle, across batch counts, stream counts, device sizes,
// and under deliberately broken estimates (overflow-recovery path). Every
// table producer emits canonical rows as built, on any fleet and fault
// plan (the CanonicalRows contract).
#include "core/neighbor_table_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cudasim/buffer_pool.hpp"
#include "cudasim/fault.hpp"
#include "data/datasets.hpp"
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

// ---------------------------------------------------------------------------
// Canonical rows as built: every producer of a table over a grid index —
// the builder under either scan mode on one to four devices, the host
// kernel bodies, and builds that lose devices or run a fault plan — emits
// strictly ascending rows (NeighborTable::is_canonical), the oracle's rows
// in the oracle's order. The service caches tables as built on the
// strength of it.
// ---------------------------------------------------------------------------

/// A small sample of a named dataset at its full density: the points of its
/// default-size instance inside the window [lo, lo + side)^2.
struct Sample {
  const char* dataset;
  float lo;
  float side;
  float eps;
};

std::vector<Point2> crop(const Sample& sample) {
  std::vector<Point2> points;
  for (const Point2& p : data::make_dataset(
           sample.dataset, data::dataset_info(sample.dataset).default_size)) {
    if (p.x >= sample.lo && p.x < sample.lo + sample.side &&
        p.y >= sample.lo && p.y < sample.lo + sample.side) {
      points.push_back(p);
    }
  }
  return points;
}

/// Many small batches striped over the default stream count: every lane
/// holds interleaved rows, so assemble() merges several parts.
BatchPolicy striped_policy(std::uint64_t total_pairs, ScanMode scan) {
  BatchPolicy policy;
  policy.scan_mode = scan;
  policy.estimated_total_override = total_pairs;
  policy.static_threshold_pairs = 1;  // force the static-buffer path
  policy.static_buffer_pairs = std::max<std::uint64_t>(1, total_pairs / 12);
  policy.resilience.host_fallback = true;
  return policy;
}

struct Fleet {
  std::vector<std::unique_ptr<cudasim::Device>> owned;
  std::vector<cudasim::Device*> ptrs;
  std::vector<std::shared_ptr<cudasim::FaultInjector>> injectors;

  /// Adds a device that runs `plan` (an empty plan only counts ops).
  void add(cudasim::FaultPlan plan = {}) {
    cudasim::SimulationOptions opt = fast_options();
    injectors.push_back(
        std::make_shared<cudasim::FaultInjector>(std::move(plan)));
    opt.fault = injectors.back();
    owned.push_back(std::make_unique<cudasim::Device>(cudasim::DeviceConfig{},
                                                      std::move(opt)));
    ptrs.push_back(owned.back().get());
  }
};

constexpr ScanMode kScanModes[] = {ScanMode::kHalf, ScanMode::kFull};

class CanonicalRows : public ::testing::TestWithParam<Sample> {
 protected:
  void SetUp() override {
    const std::vector<Point2> points = crop(GetParam());
    ASSERT_GT(points.size(), 1000u);
    eps_ = GetParam().eps;
    index_ = build_grid_index(points, eps_);
    oracle_ = build_neighbor_table_host(index_, eps_);
    ASSERT_TRUE(oracle_.is_canonical());
  }

  /// The contract: strictly ascending rows as built, which then are the
  /// oracle's rows in the oracle's order.
  void expect_canonical(const NeighborTable& table) const {
    EXPECT_TRUE(table.is_canonical());
    ASSERT_EQ(table.num_points(), oracle_.num_points());
    for (PointId i = 0; i < table.num_points(); ++i) {
      ASSERT_TRUE(std::ranges::equal(table.neighbors(i), oracle_.neighbors(i)))
          << "row " << i << " differs from the oracle's";
    }
  }

  BatchPolicy policy(ScanMode scan) const {
    return striped_policy(oracle_.total_pairs(), scan);
  }

  /// Ops each device of a clean `k`-device build under `policy` runs.
  std::vector<std::uint64_t> clean_ops(unsigned k,
                                       const BatchPolicy& policy) const {
    Fleet fleet;
    for (unsigned d = 0; d < k; ++d) fleet.add();
    (void)NeighborTableBuilder(fleet.ptrs, policy).build(index_, eps_);
    std::vector<std::uint64_t> ops;
    for (const auto& injector : fleet.injectors) ops.push_back(injector->ops());
    return ops;
  }

  float eps_ = 0.0f;
  GridIndex index_;
  NeighborTable oracle_;
};

TEST_P(CanonicalRows, BuilderOnOneToFourDevices) {
  // Every device holds the whole index; the batches stripe over k devices
  // x streams, so each lane's part interleaves with k * streams - 1 others.
  for (const ScanMode scan : kScanModes) {
    for (const unsigned k : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(std::string(scan == ScanMode::kHalf ? "kHalf" : "kFull") +
                   " on " + std::to_string(k) + " device(s)");
      Fleet fleet;
      for (unsigned d = 0; d < k; ++d) fleet.add();
      BuildReport report;
      expect_canonical(NeighborTableBuilder(fleet.ptrs, policy(scan))
                           .build(index_, eps_, &report));
      EXPECT_GT(report.batches_run, 3u);
    }
  }
}

TEST_P(CanonicalRows, HostKernelBodies) {
  expect_canonical(gpu::host_csr_batch(GridView::of(index_), eps_,
                                       gpu::BatchSpec{0, 1}, ScanMode::kFull));
}

TEST_P(CanonicalRows, DeviceLostMidBuildFailsOver) {
  for (const ScanMode scan : kScanModes) {
    SCOPED_TRACE(scan == ScanMode::kHalf ? "kHalf" : "kFull");
    cudasim::FaultPlan lost;
    lost.lost_at_op = clean_ops(2, policy(scan))[1] / 2;
    Fleet fleet;
    fleet.add();
    fleet.add(lost);
    BuildReport report;
    expect_canonical(NeighborTableBuilder(fleet.ptrs, policy(scan))
                         .build(index_, eps_, &report));
    EXPECT_EQ(report.devices_lost, 1u);
    EXPECT_FALSE(report.used_host_fallback);
  }
}

TEST_P(CanonicalRows, LostFleetFinishesOnTheHostRung) {
  for (const ScanMode scan : kScanModes) {
    SCOPED_TRACE(scan == ScanMode::kHalf ? "kHalf" : "kFull");
    cudasim::FaultPlan lost;
    lost.lost_at_op = clean_ops(1, policy(scan))[0] / 2;
    Fleet fleet;
    fleet.add(lost);
    BuildReport report;
    expect_canonical(NeighborTableBuilder(fleet.ptrs, policy(scan))
                         .build(index_, eps_, &report));
    EXPECT_EQ(report.devices_lost, 1u);
    EXPECT_TRUE(report.used_host_fallback);
  }
}

TEST_P(CanonicalRows, RandomizedFaultPlan) {
  for (const ScanMode scan : kScanModes) {
    SCOPED_TRACE(scan == ScanMode::kHalf ? "kHalf" : "kFull");
    Fleet fleet;
    fleet.add(cudasim::FaultPlan::randomized(41));
    fleet.add(cudasim::FaultPlan::randomized(1041));
    BuildReport report;
    expect_canonical(NeighborTableBuilder(fleet.ptrs, policy(scan))
                         .build(index_, eps_, &report));
    EXPECT_TRUE(report.degraded());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sw4AndSdss2Samples, CanonicalRows,
    ::testing::Values(Sample{"SW4", 10.0f, 6.0f, 0.1f},
                      Sample{"SW4", 10.0f, 6.0f, 0.3f},
                      Sample{"SW4", 10.0f, 6.0f, 0.5f},
                      Sample{"SDSS2", 0.0f, 6.0f, 0.1f},
                      Sample{"SDSS2", 0.0f, 6.0f, 0.3f},
                      Sample{"SDSS2", 0.0f, 6.0f, 0.5f}),
    [](const ::testing::TestParamInfo<Sample>& sample) {
      return std::string(sample.param.dataset) + "_eps0" +
             std::to_string(static_cast<int>(sample.param.eps * 10.0f + 0.5f));
    });

}  // namespace
}  // namespace hdbscan
