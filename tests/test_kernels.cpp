// The two epsilon-neighborhood kernels must agree with each other, with the
// host oracle, and under any batch decomposition (paper §IV and §VI).
#include "gpu/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "data/generators.hpp"
#include "dbscan/neighbor_table.hpp"
#include "gpu/result_sink.hpp"
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

/// Sorted canonical pair list (key asc, value asc) from a sink.
std::vector<NeighborPair> sink_pairs(gpu::ResultSetDevice& sink) {
  EXPECT_FALSE(sink.overflowed());
  auto view = sink.pairs().unsafe_host_view();
  std::vector<NeighborPair> pairs(view.begin(),
                                  view.begin() + static_cast<std::ptrdiff_t>(
                                                     sink.count()));
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Oracle pair list from the host-side neighbor table.
std::vector<NeighborPair> oracle_pairs(const GridIndex& index, float eps) {
  const NeighborTable table = build_neighbor_table_host(index, eps);
  std::vector<NeighborPair> pairs;
  pairs.reserve(table.total_pairs());
  for (PointId i = 0; i < table.num_points(); ++i) {
    for (const PointId v : table.neighbors(i)) pairs.push_back({i, v});
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

struct KernelTestData {
  GridIndex index;
  std::vector<NeighborPair> expected;
  float eps;
};

KernelTestData make_data(int family, float eps, std::size_t n = 2000) {
  std::vector<Point2> points =
      family == 0   ? data::generate_uniform(n, 7, 8.0f, 8.0f)
      : family == 1 ? data::generate_space_weather(
                          n, 8, {.width = 8.0f, .height = 8.0f})
                    : data::generate_sky_survey(
                          n, 9, {.width = 8.0f, .height = 8.0f});
  KernelTestData d{build_grid_index(points, eps), {}, eps};
  d.expected = oracle_pairs(d.index, eps);
  return d;
}

class KernelProperty
    : public ::testing::TestWithParam<std::tuple<int, float>> {};

TEST_P(KernelProperty, GlobalKernelMatchesHostOracle) {
  const auto [family, eps] = GetParam();
  const KernelTestData d = make_data(family, eps);
  cudasim::Device dev({}, fast_options());
  gpu::ResultSetDevice sink(dev, d.expected.size() + 16);
  const auto stats =
      gpu::run_calc_global(dev, GridView::of(d.index), d.eps, {}, sink.view());
  EXPECT_EQ(sink_pairs(sink), d.expected);
  // nGPU ~ |D| rounded up to blocks (Table II property).
  EXPECT_GE(stats.threads, d.index.size());
  EXPECT_LT(stats.threads, d.index.size() + 256);
}

TEST_P(KernelProperty, SharedKernelMatchesGlobalKernel) {
  const auto [family, eps] = GetParam();
  const KernelTestData d = make_data(family, eps);
  cudasim::Device dev({}, fast_options());
  gpu::ResultSetDevice sink(dev, d.expected.size() + 16);
  const auto stats = gpu::run_calc_shared(
      dev, GridView::of(d.index), d.index.nonempty_cells.data(),
      static_cast<std::uint32_t>(d.index.nonempty_cells.size()), d.eps,
      sink.view());
  EXPECT_EQ(sink_pairs(sink), d.expected);
  // Block-per-cell mapping: nGPU = non-empty cells x block size.
  EXPECT_EQ(stats.threads, d.index.nonempty_cells.size() * 256);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndEps, KernelProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.1f, 0.35f, 0.9f)));

class BatchedKernel : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BatchedKernel, UnionOfBatchesEqualsUnbatched) {
  const std::uint32_t nb = GetParam();
  const KernelTestData d = make_data(1, 0.4f);
  cudasim::Device dev({}, fast_options());
  std::vector<NeighborPair> all;
  for (std::uint32_t l = 0; l < nb; ++l) {
    gpu::ResultSetDevice sink(dev, d.expected.size() + 16);
    gpu::run_calc_global(dev, GridView::of(d.index), d.eps, {l, nb},
                         sink.view());
    const auto batch = sink_pairs(sink);
    // Strided assignment: batch l must contain exactly keys == l (mod nb).
    for (const NeighborPair& p : batch) EXPECT_EQ(p.key % nb, l);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, d.expected);
}

INSTANTIATE_TEST_SUITE_P(BatchCounts, BatchedKernel,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 16u, 101u));

TEST(BatchedKernel, BatchSizesAreBalanced) {
  // Fig. 2 rationale: strided assignment over spatially sorted D keeps
  // per-batch result sizes roughly equal, even on skewed data.
  const KernelTestData d = make_data(1, 0.4f, 4000);
  cudasim::Device dev({}, fast_options());
  const std::uint32_t nb = 4;
  std::vector<std::uint64_t> sizes;
  for (std::uint32_t l = 0; l < nb; ++l) {
    gpu::ResultSetDevice sink(dev, d.expected.size() + 16);
    gpu::run_calc_global(dev, GridView::of(d.index), d.eps, {l, nb},
                         sink.view());
    sizes.push_back(sink.count());
  }
  const std::uint64_t max_size = *std::max_element(sizes.begin(), sizes.end());
  const std::uint64_t min_size = *std::min_element(sizes.begin(), sizes.end());
  EXPECT_LT(static_cast<double>(max_size - min_size),
            0.15 * static_cast<double>(max_size))
      << "batches unbalanced: min " << min_size << " max " << max_size;
}

TEST(ResultSink, OverflowFlagRaisedNotCorrupted) {
  const KernelTestData d = make_data(0, 0.5f);
  ASSERT_GT(d.expected.size(), 100u);
  cudasim::Device dev({}, fast_options());
  gpu::ResultSetDevice sink(dev, 50);  // deliberately too small
  gpu::run_calc_global(dev, GridView::of(d.index), d.eps, {}, sink.view());
  EXPECT_TRUE(sink.overflowed());
  EXPECT_GT(sink.count(), 50u);  // counter keeps counting
  // reset clears the state for the next batch.
  sink.reset();
  EXPECT_FALSE(sink.overflowed());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(ResultSink, ExactCapacityIsNotOverflow) {
  // Filling every slot exactly must not raise the flag; one pair more must,
  // while stored() clamps to the buffer and produced() keeps counting.
  cudasim::Device dev({}, fast_options());
  gpu::ResultSetDevice sink(dev, 8);
  cudasim::BlockCounters counters;
  cudasim::ThreadCtx ctx;
  ctx.block_dim = 1;
  ctx.grid_dim = 1;
  ctx.counters_ = &counters;
  const gpu::ResultSinkView view = sink.view();
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(view.push({i, i}, ctx));
  }
  EXPECT_FALSE(sink.overflowed());
  EXPECT_EQ(sink.produced(), 8u);
  EXPECT_EQ(sink.stored(), 8u);

  EXPECT_FALSE(view.push({8, 8}, ctx));
  EXPECT_TRUE(sink.overflowed());
  EXPECT_EQ(sink.produced(), 9u);
  EXPECT_EQ(sink.stored(), 8u);  // safe read extent stays in bounds
}

TEST(ResultSink, StagedSinkOneAtomicPerFlush) {
  cudasim::Device dev({}, fast_options());
  gpu::ResultSetDevice sink(dev, 1000);
  cudasim::BlockCounters counters;
  cudasim::ThreadCtx ctx;
  ctx.block_dim = 1;
  ctx.grid_dim = 1;
  ctx.counters_ = &counters;
  gpu::StagedSink staged(sink.view());
  const std::size_t n = 2 * gpu::StagedSink::kStageCapacity + 44;
  for (std::uint32_t i = 0; i < n; ++i) {
    staged.push({i, i}, ctx);
  }
  EXPECT_EQ(counters.atomic_ops, 2u);  // two automatic flushes at capacity
  EXPECT_EQ(staged.staged(), 44u);
  staged.flush(ctx);
  EXPECT_EQ(counters.atomic_ops, 3u);
  EXPECT_EQ(staged.staged(), 0u);
  EXPECT_EQ(sink.produced(), n);
  EXPECT_FALSE(sink.overflowed());
  // Every pair landed, in reservation order.
  const auto slots = sink.pairs().unsafe_host_view();
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(slots[i].key, i);
    EXPECT_EQ(slots[i].value, i);
  }
}

TEST(ResultSink, StagedFlushSpanningCapacityRaisesOverflow) {
  // A bulk reservation that starts in bounds but extends past capacity
  // must flag overflow, store only the in-bounds prefix, and keep the raw
  // cursor counting the full reservation.
  cudasim::Device dev({}, fast_options());
  gpu::ResultSetDevice sink(dev, 100);
  cudasim::BlockCounters counters;
  cudasim::ThreadCtx ctx;
  ctx.block_dim = 1;
  ctx.grid_dim = 1;
  ctx.counters_ = &counters;
  gpu::StagedSink staged(sink.view());
  for (std::uint32_t i = 0; i < gpu::StagedSink::kStageCapacity; ++i) {
    staged.push({i, i}, ctx);
  }
  EXPECT_EQ(staged.staged(), 0u);  // auto-flushed at kStageCapacity
  EXPECT_TRUE(sink.overflowed());
  EXPECT_EQ(sink.produced(), gpu::StagedSink::kStageCapacity);
  EXPECT_EQ(sink.stored(), 100u);
  const auto slots = sink.pairs().unsafe_host_view();
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(slots[i].key, i);  // in-bounds prefix written, tail dropped
  }
}

TEST(ResultSink, StagedReservationCutsGlobalKernelAtomics) {
  // With 128-slot staging the global kernel needs at most one global
  // atomic per 128 pairs plus one trailing flush per thread — at least 10x
  // fewer atomic ops than pairs produced (the pre-staging scheme paid one
  // each).
  const KernelTestData d = make_data(0, 0.4f, 4000);
  cudasim::Device dev({}, fast_options());
  gpu::ResultSetDevice sink(dev, d.expected.size() + 16);
  const auto stats =
      gpu::run_calc_global(dev, GridView::of(d.index), d.eps, {}, sink.view());
  ASSERT_EQ(sink.stored(), d.expected.size());
  ASSERT_GT(stats.work.atomic_ops, 0u);
  EXPECT_GE(sink.stored() / stats.work.atomic_ops, 10u);
}

TEST(CountKernel, FullCensusEqualsTotalPairs) {
  const KernelTestData d = make_data(2, 0.3f);
  cudasim::Device dev({}, fast_options());
  const std::uint64_t counted =
      gpu::run_count_kernel(dev, GridView::of(d.index), d.eps, 1);
  EXPECT_EQ(counted, d.expected.size());
}

TEST(CountKernel, StridedSampleCountsSubset) {
  const KernelTestData d = make_data(0, 0.3f);
  cudasim::Device dev({}, fast_options());
  const std::uint64_t full =
      gpu::run_count_kernel(dev, GridView::of(d.index), d.eps, 1);
  const std::uint64_t sampled =
      gpu::run_count_kernel(dev, GridView::of(d.index), d.eps, 10);
  EXPECT_LT(sampled, full);
  EXPECT_GT(sampled, 0u);
  // Uniform data: the 10% sample extrapolates to ~the full census.
  EXPECT_NEAR(static_cast<double>(sampled * 10),
              static_cast<double>(full), 0.25 * static_cast<double>(full));
}

TEST(SharedKernel, HandlesCellsLargerThanBlock) {
  // All points in one cell, block size 32 -> the tiling loops must cover
  // every origin/comparison tile combination.
  std::vector<Point2> points;
  Xoshiro256 rng(5);
  for (int i = 0; i < 300; ++i) {
    points.push_back({rng.uniform(0.0f, 0.2f), rng.uniform(0.0f, 0.2f)});
  }
  const GridIndex index = build_grid_index(points, 0.5f);
  ASSERT_EQ(index.nonempty_cells.size(), 1u);
  ASSERT_EQ(index.max_cell_occupancy, 300u);
  cudasim::Device dev({}, fast_options());
  const std::uint64_t expected_pairs = 300ull * 300ull;  // all within eps
  gpu::ResultSetDevice sink(dev, expected_pairs + 16);
  gpu::run_calc_shared(dev, GridView::of(index), index.nonempty_cells.data(),
                       1, 0.5f, sink.view(), /*block_size=*/32);
  EXPECT_FALSE(sink.overflowed());
  EXPECT_EQ(sink.count(), expected_pairs);
}

TEST(SharedKernel, SubsetScheduleProcessesOnlyThoseCells) {
  // Processing a subset of cells (the dense-cell hybrid ablation) emits
  // exactly the pairs whose *key* lives in a scheduled cell.
  const KernelTestData d = make_data(1, 0.4f);
  const std::uint32_t half =
      static_cast<std::uint32_t>(d.index.nonempty_cells.size() / 2);
  ASSERT_GT(half, 0u);
  cudasim::Device dev({}, fast_options());
  gpu::ResultSetDevice sink(dev, d.expected.size() + 16);
  gpu::run_calc_shared(dev, GridView::of(d.index),
                       d.index.nonempty_cells.data(), half, d.eps,
                       sink.view());
  std::vector<bool> scheduled_cell(d.index.cells.size(), false);
  for (std::uint32_t c = 0; c < half; ++c) {
    scheduled_cell[d.index.nonempty_cells[c]] = true;
  }
  std::vector<NeighborPair> expected;
  for (const NeighborPair& p : d.expected) {
    if (scheduled_cell[d.index.params.linear_cell(d.index.points[p.key])]) {
      expected.push_back(p);
    }
  }
  EXPECT_EQ(sink_pairs(sink), expected);
}

TEST(GlobalKernel, ModeledTimeBeatsSharedOnUniformData) {
  // The headline of Table II: GPUCalcGlobal wins, by the most on uniform
  // (SDSS-like) data where block-per-cell overhead dominates.
  const KernelTestData d = make_data(2, 0.15f, 20000);
  cudasim::Device dev({}, fast_options());
  gpu::ResultSetDevice sink_a(dev, d.expected.size() + 16);
  const auto global_stats =
      gpu::run_calc_global(dev, GridView::of(d.index), d.eps, {}, sink_a.view());
  gpu::ResultSetDevice sink_b(dev, d.expected.size() + 16);
  const auto shared_stats = gpu::run_calc_shared(
      dev, GridView::of(d.index), d.index.nonempty_cells.data(),
      static_cast<std::uint32_t>(d.index.nonempty_cells.size()), d.eps,
      sink_b.view());
  EXPECT_LT(global_stats.modeled_seconds, shared_stats.modeled_seconds);
  EXPECT_GT(shared_stats.threads, global_stats.threads);
}

}  // namespace
}  // namespace hdbscan
