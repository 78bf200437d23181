#include "dbscan/neighbor_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/generators.hpp"
#include "dbscan/dbscan_parallel.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "gpu/kernels.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

TEST(NeighborTable, EmptyTableHasEmptyRanges) {
  const NeighborTable t(5);
  EXPECT_EQ(t.num_points(), 5u);
  for (PointId i = 0; i < 5; ++i) {
    EXPECT_EQ(t.neighbor_count(i), 0u);
    EXPECT_TRUE(t.neighbors(i).empty());
  }
}

TEST(NeighborTable, SingleBatchRanges) {
  NeighborTable t(4);
  const std::vector<NeighborPair> pairs{
      {0, 0}, {0, 2}, {1, 1}, {3, 3}, {3, 0}, {3, 1}};
  t.append_sorted_batch(pairs);
  EXPECT_EQ(t.total_pairs(), 6u);
  ASSERT_EQ(t.neighbor_count(0), 2u);
  EXPECT_EQ(t.neighbors(0)[0], 0u);
  EXPECT_EQ(t.neighbors(0)[1], 2u);
  EXPECT_EQ(t.neighbor_count(1), 1u);
  EXPECT_EQ(t.neighbor_count(2), 0u);
  ASSERT_EQ(t.neighbor_count(3), 3u);
  EXPECT_EQ(t.neighbors(3)[2], 1u);
}

TEST(NeighborTable, MultipleBatchesWithInterleavedKeys) {
  NeighborTable t(6);
  // Strided batches: keys {0, 2, 4} then {1, 3, 5}.
  t.append_sorted_batch(std::vector<NeighborPair>{{0, 9}, {2, 8}, {4, 7}});
  t.append_sorted_batch(std::vector<NeighborPair>{{1, 6}, {3, 5}, {5, 4}});
  for (PointId i = 0; i < 6; ++i) {
    ASSERT_EQ(t.neighbor_count(i), 1u) << i;
  }
  EXPECT_EQ(t.neighbors(0)[0], 9u);
  EXPECT_EQ(t.neighbors(5)[0], 4u);
  EXPECT_EQ(t.total_pairs(), 6u);
}

TEST(NeighborTable, RejectsKeyOutOfRange) {
  NeighborTable t(3);
  EXPECT_THROW(t.append_sorted_batch(std::vector<NeighborPair>{{7, 0}}),
               std::out_of_range);
}

TEST(NeighborTable, RejectsKeyInTwoBatches) {
  NeighborTable t(3);
  t.append_sorted_batch(std::vector<NeighborPair>{{1, 0}});
  EXPECT_THROW(t.append_sorted_batch(std::vector<NeighborPair>{{1, 2}}),
               std::logic_error);
}

TEST(NeighborTable, HostBuildMatchesGridQueries) {
  const auto points = data::generate_sky_survey(2500, 21);
  const float eps = 0.4f;
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);
  EXPECT_EQ(table.num_points(), index.size());

  std::vector<PointId> expected;
  for (PointId i = 0; i < index.size(); i += 41) {
    grid_query(index, index.points[i], eps, expected);
    std::sort(expected.begin(), expected.end());
    std::vector<PointId> got(table.neighbors(i).begin(),
                             table.neighbors(i).end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "point " << i;
    // Self always included.
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), i));
  }
}

TEST(NeighborTable, TotalPairsMatchesSumOfCounts) {
  const auto points = data::generate_space_weather(1500, 22);
  const GridIndex index = build_grid_index(points, 0.3f);
  const NeighborTable table = build_neighbor_table_host(index, 0.3f);
  std::uint64_t sum = 0;
  for (PointId i = 0; i < table.num_points(); ++i) {
    sum += table.neighbor_count(i);
  }
  EXPECT_EQ(sum, table.total_pairs());
}

TEST(NeighborTable, SymmetricNeighborhoods) {
  // j in N(i) <=> i in N(j) (Euclidean distance is symmetric).
  const auto points = data::generate_uniform(800, 23, 5.0f, 5.0f);
  const GridIndex index = build_grid_index(points, 0.5f);
  const NeighborTable table = build_neighbor_table_host(index, 0.5f);
  for (PointId i = 0; i < table.num_points(); ++i) {
    for (const PointId j : table.neighbors(i)) {
      const auto back = table.neighbors(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(), i) != back.end())
          << i << " -> " << j << " not symmetric";
    }
  }
}

// ---------------------------------------------------------------------------
// Host execution of the kernel bodies (gpu::host_csr_batch, and
// gpu::host_count_batch with the fused union pass's gpu::host_fused_batch)
// against the independent grid_query oracle.
// ---------------------------------------------------------------------------

void expect_identical(NeighborTable got, NeighborTable want) {
  got.canonicalize();
  want.canonicalize();
  ASSERT_EQ(got.num_points(), want.num_points());
  EXPECT_EQ(got.total_pairs(), want.total_pairs());
  EXPECT_TRUE(got.identical_to(want));
}

/// Assembles the host shards of `num_batches` strided batches, expanding
/// the forward rows under kHalf — the shape of a degraded builder's
/// assembly.
NeighborTable host_table(const GridView& view, float eps,
                         std::uint32_t num_batches, ScanMode mode) {
  std::vector<NeighborTable> parts;
  for (std::uint32_t l = 0; l < num_batches; ++l) {
    parts.push_back(gpu::host_csr_batch(view, eps, {l, num_batches}, mode));
  }
  NeighborTable merged(view.num_points);
  (void)merged.assemble(std::move(parts), mode == ScanMode::kHalf, 3);
  return merged;
}

struct HostScenario {
  GridIndex index;
  NeighborTable oracle;
  float eps = 0.35f;
};

HostScenario host_scenario() {
  HostScenario s;
  s.index = build_grid_index(data::generate_space_weather(2500, 24), s.eps);
  s.oracle = build_neighbor_table_host(s.index, s.eps);
  return s;
}

TEST(HostCsrBatch, GridWholeAndStridedBatchesEqualOracle) {
  const HostScenario s = host_scenario();
  const GridView view = GridView::of(s.index);
  for (const ScanMode mode : {ScanMode::kFull, ScanMode::kHalf}) {
    for (const std::uint32_t batches : {1u, 5u}) {
      SCOPED_TRACE(std::to_string(batches) + " batches, " +
                   (mode == ScanMode::kHalf ? "kHalf" : "kFull"));
      expect_identical(host_table(view, s.eps, batches, mode), s.oracle);
    }
  }
}

// ---------------------------------------------------------------------------
// NeighborTable::assemble: merge and half-table expansion in one pass
// ---------------------------------------------------------------------------

/// Row-by-row equality, within-row order included.
void expect_same_rows(const NeighborTable& got, const NeighborTable& want) {
  ASSERT_EQ(got.num_points(), want.num_points());
  ASSERT_EQ(got.total_pairs(), want.total_pairs());
  for (PointId k = 0; k < got.num_points(); ++k) {
    const auto a = got.neighbors(k);
    const auto b = want.neighbors(k);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "row " << k;
  }
}

NeighborTable table_of(std::size_t n, std::vector<NeighborPair> pairs) {
  NeighborTable t(n);
  t.append_sorted_batch(pairs);
  return t;
}

TEST(Assemble, ForwardPartsEqualHostOracleRowByRow) {
  // Enough pairs that every pass runs in several chunks on the pool. On a
  // cell-ordered index the oracle's rows ascend, and so do the assembled
  // rows: a full row, or a half row's back contributions (keys < k) ahead
  // of its forward row (ids >= k).
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(
      data::generate_space_weather(6000, 31, {.width = 10.0f, .height = 10.0f}),
      eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  ASSERT_GE(oracle.total_pairs(), 1u << 17);
  const GridView view = GridView::of(index);
  for (const ScanMode mode : {ScanMode::kFull, ScanMode::kHalf}) {
    for (const std::uint32_t k : {1u, 2u, 3u, 5u}) {
      for (const bool with_empty : {false, true}) {
        SCOPED_TRACE(std::to_string(k) + " parts" +
                     (with_empty ? " + an empty one, " : ", ") +
                     (mode == ScanMode::kHalf ? "kHalf" : "kFull"));
        std::vector<NeighborTable> parts;
        for (std::uint32_t l = 0; l < k; ++l) {
          parts.push_back(gpu::host_csr_batch(view, eps, {l, k}, mode));
          if (with_empty && l == k / 2) parts.emplace_back(index.size());
        }
        NeighborTable table(index.size());
        EXPECT_GE(table.assemble(std::move(parts), mode == ScanMode::kHalf,
                                 12),
                  0.0);
        EXPECT_TRUE(parts.empty());
        expect_same_rows(table, oracle);
        // Rows are laid out in key order.
        std::size_t at = 0;
        for (PointId i = 0; i < table.num_points(); ++i) {
          ASSERT_EQ(table.neighbors(i).data(), table.values().data() + at);
          at += table.neighbor_count(i);
        }
      }
    }
  }
}

TEST(Assemble, TableWithNoPairs) {
  for (const bool expand_half : {false, true}) {
    std::vector<NeighborTable> parts;
    parts.emplace_back(7);
    parts.emplace_back(7);
    NeighborTable table(7);
    (void)table.assemble(std::move(parts), expand_half, 4);
    EXPECT_EQ(table.num_points(), 7u);
    EXPECT_EQ(table.total_pairs(), 0u);
    for (PointId i = 0; i < 7; ++i) EXPECT_EQ(table.neighbor_count(i), 0u);

    NeighborTable none(0);
    std::vector<NeighborTable> zero_rows;
    zero_rows.emplace_back(0);
    (void)none.assemble(std::move(zero_rows), expand_half, 4);
    EXPECT_EQ(none.total_pairs(), 0u);
  }
}

TEST(Assemble, RejectsKeyInTwoPartsSizeMismatchAndNonEmptyTarget) {
  for (const bool expand_half : {false, true}) {
    SCOPED_TRACE(expand_half ? "expand" : "merge");
    std::vector<NeighborTable> dup;
    dup.push_back(table_of(5, {{0, 0}, {0, 1}, {1, 1}}));
    dup.push_back(table_of(5, {{1, 1}, {2, 2}}));  // key 1 again
    NeighborTable target(5);
    EXPECT_THROW((void)target.assemble(std::move(dup), expand_half, 2),
                 std::logic_error);

    std::vector<NeighborTable> wrong;
    wrong.push_back(table_of(5, {{0, 0}}));
    wrong.push_back(table_of(4, {{1, 1}}));
    NeighborTable target2(5);
    EXPECT_THROW((void)target2.assemble(std::move(wrong), expand_half, 2),
                 std::invalid_argument);

    NeighborTable nonempty = table_of(5, {{0, 0}});
    std::vector<NeighborTable> more;
    more.push_back(table_of(5, {{1, 1}}));
    EXPECT_THROW((void)nonempty.assemble(std::move(more), expand_half, 2),
                 std::invalid_argument);
  }

  // A collision is caught in the chunked sweep too.
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(
      data::generate_space_weather(6000, 31, {.width = 10.0f, .height = 10.0f}),
      eps);
  std::vector<NeighborTable> parts;
  parts.push_back(gpu::host_csr_batch(GridView::of(index), eps, {0, 2}));
  parts.push_back(gpu::host_csr_batch(GridView::of(index), eps, {1, 2}));
  parts.push_back(gpu::host_csr_batch(GridView::of(index), eps, {1, 2}));
  NeighborTable target(index.size());
  EXPECT_THROW((void)target.assemble(std::move(parts), false, 12),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// NeighborTable::absorb_shard: the serial reference for assemble
// ---------------------------------------------------------------------------

/// A table of `n` rows whose row k holds rows[k] (rows past its end empty).
NeighborTable table_with_rows(
    std::size_t n, const std::vector<std::vector<PointId>>& rows) {
  NeighborTable t(n);
  std::vector<NeighborPair> pairs;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    pairs.clear();
    for (const PointId v : rows[k]) {
      pairs.push_back({static_cast<PointId>(k), v});
    }
    if (!pairs.empty()) t.append_sorted_batch(pairs);
  }
  return t;
}

TEST(AbsorbShard, EmptyShardsAreNoOps) {
  NeighborTable table = table_with_rows(6, {{0, 1}, {1}});
  // A never-filled shard (a lane that ran no batch) is a full-sized table
  // whose every row is empty; absorbing it must not disturb existing rows.
  table.absorb_shard(NeighborTable(6));
  table.absorb_shard(NeighborTable(6));
  EXPECT_EQ(table.total_pairs(), 3u);
  EXPECT_EQ(table.neighbor_count(0), 2u);
  EXPECT_EQ(table.neighbor_count(1), 1u);

  // First-absorb into a fresh table steals storage; an empty first shard
  // must not wedge the fast path for the real shards that follow.
  NeighborTable fresh(6);
  fresh.absorb_shard(NeighborTable(6));
  fresh.absorb_shard(table_with_rows(6, {{0, 1}, {1}}));
  EXPECT_EQ(fresh.total_pairs(), 3u);
}

TEST(AbsorbShard, OrderPermutationsCanonicalizeByteIdentical) {
  const std::vector<std::vector<PointId>> rows_a{{0, 2}, {1, 2, 3}};
  const std::vector<std::vector<PointId>> rows_b{{}, {}, {2, 3}};
  const std::vector<std::vector<PointId>> rows_c{{}, {}, {}, {0, 3}, {4}};
  std::vector<int> order{0, 1, 2};
  NeighborTable want;
  bool first = true;
  do {
    NeighborTable merged(5);
    for (const int which : order) {
      const auto& rows = which == 0 ? rows_a : which == 1 ? rows_b : rows_c;
      merged.absorb_shard(table_with_rows(5, rows));
    }
    merged.canonicalize();
    if (first) {
      want = std::move(merged);
      first = false;
    } else {
      EXPECT_TRUE(merged.identical_to(want));
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(AbsorbShard, RejectsDuplicateKeysAndSizeMismatch) {
  NeighborTable table = table_with_rows(4, {{0, 1}});
  EXPECT_THROW(table.absorb_shard(table_with_rows(4, {{0, 2}})),
               std::logic_error);
  EXPECT_THROW(table.absorb_shard(NeighborTable(5)), std::invalid_argument);
}

TEST(AbsorbShard, ParallelFanInMatchesSerialAbsorb) {
  const std::vector<std::vector<PointId>> rows_a{{0, 2}, {1, 2, 3}};
  const std::vector<std::vector<PointId>> rows_b{{}, {}, {2, 3}};
  const std::vector<std::vector<PointId>> rows_c{{}, {}, {}, {0, 3}, {4}};
  NeighborTable serial(5);
  serial.absorb_shard(table_with_rows(5, rows_a));
  serial.absorb_shard(table_with_rows(5, rows_b));
  serial.absorb_shard(table_with_rows(5, rows_c));

  std::vector<NeighborTable> parts;
  parts.push_back(table_with_rows(5, rows_a));
  parts.push_back(table_with_rows(5, rows_b));
  parts.push_back(table_with_rows(5, rows_c));
  NeighborTable fanin(5);
  (void)fanin.assemble(std::move(parts), /*expand_half=*/false, 3);
  // Per-row byte identity: every row holds serial absorption's values in
  // the same order. The layout of B differs — the assembler writes rows
  // in key order, serial absorption in part order.
  ASSERT_EQ(fanin.total_pairs(), serial.total_pairs());
  for (PointId k = 0; k < 5; ++k) {
    const auto got = fanin.neighbors(k);
    const auto want = serial.neighbors(k);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "row " << k;
  }
  const std::vector<PointId> key_order{0, 2, 1, 2, 3, 2, 3, 0, 3, 4};
  EXPECT_TRUE(std::equal(fanin.values().begin(), fanin.values().end(),
                         key_order.begin(), key_order.end()));

  // A single part is taken over whole.
  std::vector<NeighborTable> one;
  one.push_back(table_with_rows(5, rows_a));
  NeighborTable stolen(5);
  (void)stolen.assemble(std::move(one), /*expand_half=*/false, 4);
  EXPECT_EQ(stolen.total_pairs(), 5u);

  // Strictness: duplicate keys, mismatched sizes, and a non-empty target
  // are all rejected.
  std::vector<NeighborTable> dup;
  dup.push_back(table_with_rows(5, rows_a));
  dup.push_back(table_with_rows(5, {{4}}));  // key 0 again
  NeighborTable target(5);
  EXPECT_THROW((void)target.assemble(std::move(dup), false, 2),
               std::logic_error);

  std::vector<NeighborTable> wrong;
  wrong.push_back(table_with_rows(4, {{1}}));
  NeighborTable target2(5);
  EXPECT_THROW((void)target2.assemble(std::move(wrong), false, 2),
               std::invalid_argument);

  NeighborTable nonempty = table_with_rows(5, {{1}});
  std::vector<NeighborTable> more;
  more.push_back(table_with_rows(5, {{}, {2}}));
  EXPECT_THROW((void)nonempty.assemble(std::move(more), false, 2),
               std::invalid_argument);
}

TEST(HostFusedBatch, GivesOracleDegreesAndLabels) {
  const HostScenario s = host_scenario();
  const int minpts = 4;
  const ClusterResult want = dbscan_parallel(s.oracle, minpts);
  const GridView view = GridView::of(s.index);
  for (const ScanMode mode : {ScanMode::kFull, ScanMode::kHalf}) {
    SCOPED_TRACE(mode == ScanMode::kHalf ? "kHalf" : "kFull");
    StreamingDbscan consumer(s.index.size(), minpts);
    // The core pass lands every exact degree before the union pass runs.
    const StreamingDbscan::FusedView fused = consumer.fused_view();
    for (std::uint32_t l = 0; l < 3; ++l) {
      const gpu::BatchSpec batch{l, 3};
      const std::vector<std::uint32_t> counts =
          gpu::host_count_batch(view, s.eps, batch, ScanMode::kFull);
      for (std::uint32_t g = 0; g < counts.size(); ++g) {
        fused.degree[batch.batch + g * batch.num_batches].store(
            counts[g], std::memory_order_relaxed);
      }
    }
    for (std::uint32_t l = 0; l < 3; ++l) {
      gpu::host_fused_batch(view, s.eps, {l, 3}, gpu::FusedPass::kUnion,
                            consumer, mode);
    }
    for (PointId i = 0; i < s.index.size(); ++i) {
      ASSERT_EQ(consumer.degree(i), s.oracle.neighbor_count(i))
          << "degree mismatch at point " << i;
    }
    EXPECT_EQ(consumer.finalize().labels, want.labels);
  }
}

}  // namespace
}  // namespace hdbscan
