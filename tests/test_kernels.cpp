// The two epsilon-neighborhood kernels must agree with each other, with the
// host oracle, and under any batch decomposition (paper §IV and §VI).
#include "gpu/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
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

// ---------------------------------------------------------------------------
// CSR fill bounds: the branch-free fill stores every tested candidate, so
// it must redirect stores once a row is full and never leave its row.
// ---------------------------------------------------------------------------

constexpr PointId kPoison = 0xDEADBEEFu;
constexpr PointId kSentinel = 0xFEEDFACEu;

/// Runs the count pass, the scan and the fill pass of every batch of
/// `num_batches` strided batches into a poisoned value buffer with a
/// sentinel one slot past the batch total, checks that the sentinel
/// survives and that every slot was overwritten, and returns the
/// assembled table.
template <typename View>
NeighborTable fill_with_sentinel(cudasim::Device& dev, const View& view,
                                 float eps, std::uint32_t num_batches,
                                 ScanMode mode) {
  std::vector<NeighborTable> parts;
  for (std::uint32_t l = 0; l < num_batches; ++l) {
    const gpu::BatchSpec batch{l, num_batches};
    std::vector<std::uint32_t> offsets(
        batch.points_in_batch(view.num_points));
    if (offsets.empty()) continue;
    gpu::run_count_batch(dev, view, eps, batch, offsets.data(), mode);
    std::uint32_t total = 0;
    for (std::uint32_t& slot : offsets) total += std::exchange(slot, total);
    std::vector<PointId> values(total + 1, kPoison);
    values[total] = kSentinel;
    gpu::run_fill_csr(dev, view, eps, batch, offsets.data(), total,
                      values.data(), mode);
    EXPECT_EQ(values[total], kSentinel) << "batch " << l << " wrote past "
                                        << "its total";
    EXPECT_EQ(std::count(values.begin(), values.end() - 1, kPoison), 0)
        << "batch " << l << " left a slot unwritten";
    NeighborTable part(view.num_points);
    part.append_csr_batch(l, num_batches, offsets, {values.data(), total});
    parts.push_back(std::move(part));
  }
  NeighborTable table(view.num_points);
  (void)table.assemble(std::move(parts), mode == ScanMode::kHalf, 4);
  table.canonicalize();
  return table;
}

/// n_b = 1, 3, 7, and n_b = n, where every row is its batch's last row and
/// so ends at the sentinel.
std::vector<std::uint32_t> fill_batch_counts(std::uint32_t n) {
  return {1u, 3u, 7u, n};
}

TEST(FillCsr, StaysInsideRowsOnGrid2d) {
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(
      data::generate_sky_survey(400, 41, {.width = 3.0f, .height = 3.0f}),
      eps);
  NeighborTable oracle = build_neighbor_table_host(index, eps);
  oracle.canonicalize();
  // Precondition on the input: some rows end in a miss (their last tested
  // candidate lies beyond eps) and some end full (on a hit). The full
  // stencil's last candidate is the last resident of the highest
  // non-empty stencil cell.
  std::size_t ends_in_miss = 0;
  std::size_t ends_in_hit = 0;
  for (PointId i = 0; i < index.size(); ++i) {
    std::array<std::uint32_t, 9> cells{};
    const unsigned nc = get_neighbor_cells(
        index.params, index.params.linear_cell(index.points[i]), cells);
    PointId last = i;
    for (unsigned c = 0; c < nc; ++c) {
      if (!index.cells[cells[c]].empty()) {
        last = index.cells[cells[c]].end - 1;
      }
    }
    ++(dist2(index.points[i], index.points[last]) <= eps * eps ? ends_in_hit
                                                              : ends_in_miss);
  }
  ASSERT_GT(ends_in_miss, 0u);
  ASSERT_GT(ends_in_hit, 0u);

  cudasim::Device dev({}, fast_options());
  const GridView view = GridView::of(index);
  for (const ScanMode mode : {ScanMode::kFull, ScanMode::kHalf}) {
    for (const std::uint32_t nb : fill_batch_counts(view.num_points)) {
      SCOPED_TRACE(std::to_string(nb) + " batches, " +
                   (mode == ScanMode::kHalf ? "kHalf" : "kFull"));
      EXPECT_TRUE(
          fill_with_sentinel(dev, view, eps, nb, mode).identical_to(oracle));
    }
  }
}

TEST(FillCsr, StaysInsideRowsOnGrid3d) {
  const float eps = 0.4f;
  Xoshiro256 rng(43);
  std::vector<Point3> points(350);
  for (Point3& p : points) {
    p = {rng.uniform(0.0f, 2.0f), rng.uniform(0.0f, 2.0f),
         rng.uniform(0.0f, 2.0f)};
  }
  const GridIndex3 index = build_grid_index<Point3>(points, eps);
  NeighborTable oracle = build_neighbor_table_host(index, eps);
  oracle.canonicalize();
  cudasim::Device dev({}, fast_options());
  const GridView3 view = GridView3::of(index);
  for (const ScanMode mode : {ScanMode::kFull, ScanMode::kHalf}) {
    for (const std::uint32_t nb : fill_batch_counts(view.num_points)) {
      SCOPED_TRACE(std::to_string(nb) + " batches, " +
                   (mode == ScanMode::kHalf ? "kHalf" : "kFull"));
      EXPECT_TRUE(
          fill_with_sentinel(dev, view, eps, nb, mode).identical_to(oracle));
    }
  }
}

// ---------------------------------------------------------------------------
// Charges follow the work: a host oracle of every pass's flops and bytes
// ---------------------------------------------------------------------------

/// What a query point's traversal reaches, listed on the host from the
/// index alone: the candidates of its (forward, under kHalf) stencil and
/// the cells whose range it reads.
struct Reach {
  std::uint64_t candidates = 0;
  std::uint64_t cells = 0;
};

template <typename Index>
Reach host_reach(const Index& g, PointId i, ScanMode mode) {
  using Point = std::decay_t<decltype(g.points[0])>;
  const std::uint32_t cell = g.params.linear_cell(g.points[i]);
  auto range = [&](std::uint32_t h) { return g.cells[h]; };
  CellStencil<Point> ids{};
  Reach r;
  unsigned n = 0;
  if (mode == ScanMode::kHalf) {
    r.candidates += range(cell).end - i;
    ++r.cells;
    n = get_forward_neighbor_cells(g.params, cell, ids);
  } else {
    n = get_neighbor_cells(g.params, cell, ids);
  }
  for (unsigned c = 0; c < n; ++c) r.candidates += range(ids[c]).count();
  r.cells += n;
  return r;
}

/// The core pass's own-cell-first early exit, replayed on the host: the
/// candidates tested and the cells reached before `cap` hits were met.
template <typename Index>
Reach host_capped_reach(const Index& g, PointId i, float eps,
                        std::uint32_t cap) {
  using Point = std::decay_t<decltype(g.points[0])>;
  const std::uint32_t cell = g.params.linear_cell(g.points[i]);
  CellStencil<Point> ids{};
  std::vector<std::uint32_t> order{cell};
  const unsigned n = get_neighbor_cells(g.params, cell, ids);
  for (unsigned c = 0; c < n; ++c) {
    if (ids[c] != cell) order.push_back(ids[c]);
  }
  Reach r;
  std::uint32_t found = 0;
  for (const std::uint32_t h : order) {
    if (found == cap) break;
    ++r.cells;
    const CellRange range = g.cells[h];
    for (PointId a = range.begin; a < range.end && found < cap; ++a) {
      ++r.candidates;
      found += dist2(g.points[i], g.points[a]) <= eps * eps;
    }
  }
  return r;
}

/// Checks the count, fill, core and recount passes' flops and global bytes
/// over `g` against the host oracle: 3·D flops and one point read per
/// tested candidate, one CellRange per cell read.
template <typename Index>
void expect_charges_follow_the_work(const Index& g, float eps) {
  using Point = std::decay_t<decltype(g.points[0])>;
  constexpr std::uint64_t kTestFlops = 3 * Point::kDims;
  constexpr std::uint64_t kCell = sizeof(CellRange);
  const auto view = BasicGridView<Point>::of(g);
  const std::uint32_t n = view.num_points;
  cudasim::Device dev({}, fast_options());
  for (const ScanMode mode : {ScanMode::kFull, ScanMode::kHalf}) {
    SCOPED_TRACE(mode == ScanMode::kHalf ? "kHalf" : "kFull");
    std::uint64_t candidates = 0;
    std::uint64_t cells = 0;
    for (PointId i = 0; i < n; ++i) {
      const Reach r = host_reach(g, i, mode);
      candidates += r.candidates;
      cells += r.cells;
    }
    std::vector<std::uint32_t> offsets(n);
    const cudasim::KernelStats count =
        gpu::run_count_batch(dev, view, eps, {}, offsets.data(), mode);
    EXPECT_EQ(count.work.flops, kTestFlops * candidates);
    EXPECT_EQ(count.work.global_bytes,
              n * (sizeof(Point) + sizeof(std::uint32_t)) + cells * kCell +
                  candidates * sizeof(Point));
    std::uint32_t total = 0;
    for (std::uint32_t& slot : offsets) total += std::exchange(slot, total);
    std::vector<PointId> values(total);
    const cudasim::KernelStats fill = gpu::run_fill_csr(
        dev, view, eps, {}, offsets.data(), total, values.data(), mode);
    EXPECT_EQ(fill.work.flops, kTestFlops * candidates);
  }
  for (const int minpts : {3, 8}) {
    SCOPED_TRACE("minpts " + std::to_string(minpts));
    StreamingDbscan consumer(view.num_points, minpts);
    const cudasim::KernelStats core = gpu::run_fused_batch(
        dev, view, eps, {}, gpu::FusedPass::kCore, consumer);
    std::uint64_t tested = 0;
    std::uint64_t cells = 0;
    for (PointId i = 0; i < n; ++i) {
      const Reach r = host_capped_reach(
          g, i, eps, static_cast<std::uint32_t>(std::max(minpts, 2)));
      tested += r.candidates;
      cells += r.cells;
    }
    EXPECT_EQ(core.work.flops, kTestFlops * tested);
    EXPECT_EQ(core.work.global_bytes,
              n * (sizeof(Point) + sizeof(std::uint32_t)) + cells * kCell +
                  tested * sizeof(Point));
    (void)gpu::run_fused_batch(dev, view, eps, {}, gpu::FusedPass::kMark,
                               consumer);
    const cudasim::KernelStats recount = gpu::run_fused_batch(
        dev, view, eps, {}, gpu::FusedPass::kRecount, consumer);
    std::uint64_t recounted = 0;
    for (PointId i = 0; i < n; ++i) {
      if (consumer.fused_view().flag[i].load() != 0) {
        recounted += host_reach(g, i, ScanMode::kFull).candidates;
      }
    }
    EXPECT_EQ(recount.work.flops, kTestFlops * recounted);
  }
}

TEST(KernelCharges, FollowTheWorkOnEveryGridShape) {
  const float eps = 0.3f;
  // A sparse 2-D grid: stencil rows with empty cells inside them.
  const GridIndex sparse = build_grid_index(
      data::generate_sky_survey(500, 51, {.width = 6.0f, .height = 6.0f}),
      eps);
  std::size_t empty = 0;
  for (const CellRange& c : sparse.cells) empty += c.empty();
  ASSERT_GT(empty, sparse.cells.size() / 4);
  // One row and one column of cells (every cell an edge cell).
  Xoshiro256 rng(52);
  std::vector<Point2> row(400);
  std::vector<Point2> column(400);
  for (std::size_t k = 0; k < row.size(); ++k) {
    row[k] = {rng.uniform(0.0f, 9.0f), rng.uniform(0.0f, 0.1f)};
    column[k] = {rng.uniform(0.0f, 0.1f), rng.uniform(0.0f, 9.0f)};
  }
  const GridIndex one_row = build_grid_index(row, eps);
  const GridIndex one_column = build_grid_index(column, eps);
  ASSERT_EQ(one_row.params.cells_y, 1u);
  ASSERT_EQ(one_column.params.cells_x, 1u);
  // A dense 2-D grid and a 3-D one.
  const GridIndex dense = build_grid_index(
      data::generate_space_weather(1500, 53, {.width = 5.0f, .height = 5.0f}),
      eps);
  std::vector<Point3> cloud(1200);
  for (Point3& p : cloud) {
    p = {rng.uniform(0.0f, 3.0f), rng.uniform(0.0f, 3.0f),
         rng.uniform(0.0f, 3.0f)};
  }
  const GridIndex3 grid3 = build_grid_index<Point3>(cloud, eps);
  for (const auto& [name, g] :
       {std::pair{"sparse", &sparse}, std::pair{"one row", &one_row},
        std::pair{"one column", &one_column}, std::pair{"dense", &dense}}) {
    SCOPED_TRACE(name);
    expect_charges_follow_the_work(*g, eps);
  }
  {
    SCOPED_TRACE("3-D");
    expect_charges_follow_the_work(grid3, eps);
  }
}

}  // namespace
}  // namespace hdbscan
