// Multi-device sharded table builds: spatial slab partitioning with an
// eps-halo of ghost points per shard, assembled through assemble into a
// table — and labels — bit-identical to the single-device batch build,
// including under injected device loss (the shard re-partition rung). The
// front doors treat one device as a fleet of one, which skips sharding.
#include "core/sharded_build.hpp"

#include "core/hybrid_dbscan.hpp"
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/shard_planner.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/error.hpp"
#include "cudasim/fault.hpp"
#include "cudasim/stream.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan_parallel.hpp"
#include "gpu/device_index.hpp"
#include "index/grid_index.hpp"
#include "obs/registry.hpp"

namespace hdbscan {
namespace {

cudasim::SimulationOptions fast_options() {
  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  opt.executor_threads = 2;
  return opt;
}

cudasim::SimulationOptions faulted_options(cudasim::FaultPlan plan) {
  cudasim::SimulationOptions opt = fast_options();
  opt.fault = std::make_shared<cudasim::FaultInjector>(std::move(plan));
  return opt;
}

struct Fleet {
  std::vector<std::unique_ptr<cudasim::Device>> owned;
  std::vector<cudasim::Device*> ptrs;

  void add(cudasim::SimulationOptions opt) {
    owned.push_back(std::make_unique<cudasim::Device>(cudasim::DeviceConfig{},
                                                      std::move(opt)));
    ptrs.push_back(owned.back().get());
  }
};

Fleet make_fleet(int n) {
  Fleet f;
  for (int d = 0; d < n; ++d) f.add(fast_options());
  return f;
}

struct Scenario {
  std::vector<Point2> points;
  GridIndex index;
  NeighborTable oracle;  ///< full symmetric table, index point order
  float eps = 0.0f;
};

Scenario make_scenario(std::size_t n, float eps, std::uint64_t seed) {
  Scenario s;
  s.eps = eps;
  s.points = data::generate_space_weather(
      n, seed, {.width = 10.0f, .height = 10.0f});
  s.index = build_grid_index(s.points, eps);
  s.oracle = build_neighbor_table_host(s.index, eps);
  return s;
}

/// Small batches so every shard runs several of them per stream.
BatchPolicy many_batch_policy(const Scenario& s, ScanMode scan) {
  BatchPolicy policy;
  policy.scan_mode = scan;
  policy.estimated_total_override = s.oracle.total_pairs();
  policy.static_threshold_pairs = 1;
  policy.static_buffer_pairs =
      std::max<std::uint64_t>(1, s.oracle.total_pairs() / 12);
  return policy;
}

// ---------------------------------------------------------------------------
// Shard planner
// ---------------------------------------------------------------------------

/// A slab's layout: each cell's range is one run of local ids, whose
/// points hash to that cell and whose global ids ascend (the order the
/// half-comparison kernels scan by); an owned cell's run lies inside
/// [0, num_owned) and a ghost cell's past it; every local id lies in
/// exactly one cell.
void expect_slab_layout(const GridShard& shard) {
  const GridIndex& sub = shard.index;
  const std::uint32_t cx = sub.params.cells_x;
  std::vector<std::uint32_t> cells_of(sub.size(), 0);
  for (std::uint32_t c = 0; c < sub.cells.size(); ++c) {
    const CellRange r = sub.cells[c];
    ASSERT_LE(r.begin, r.end);
    ASSERT_LE(r.end, sub.size());
    const std::uint32_t h = sub.cell_base + c;
    const bool owned = h / cx >= shard.row_begin && h / cx < shard.row_end;
    if (!r.empty() && owned) EXPECT_LE(r.end, shard.num_owned) << "cell " << h;
    if (!r.empty() && !owned) {
      EXPECT_GE(r.begin, shard.num_owned) << "cell " << h;
    }
    for (PointId l = r.begin; l < r.end; ++l) {
      ++cells_of[l];
      EXPECT_EQ(sub.params.linear_cell(sub.points[l]), h) << "local id " << l;
      if (l > r.begin) {
        EXPECT_LT(shard.to_global[l - 1], shard.to_global[l]) << "cell " << h;
      }
    }
  }
  for (PointId l = 0; l < cells_of.size(); ++l) {
    EXPECT_EQ(cells_of[l], 1u) << "local id " << l;
  }
}

TEST(ShardPlanner, EveryPointOwnedExactlyOnceWithRowHomogeneousShards) {
  const Scenario s = make_scenario(4000, 0.35f, 11);
  const ShardPlan plan = plan_shards(s.index, 4);
  ASSERT_GE(plan.shards.size(), 1u);
  ASSERT_LE(plan.shards.size(), 4u);

  std::vector<std::uint32_t> seen(s.index.size(), 0);
  std::uint64_t owned_total = 0;
  for (const GridShard& shard : plan.shards) {
    EXPECT_GT(shard.num_owned, 0u);
    EXPECT_EQ(shard.index.num_query, shard.num_owned);
    EXPECT_EQ(shard.index.size(), shard.to_global.size());
    owned_total += shard.num_owned;
    for (std::uint32_t l = 0; l < shard.num_owned; ++l) {
      const PointId g = shard.to_global[l];
      ++seen[g];
      EXPECT_EQ(plan.owner_of[g], shard.shard_id);
      // Owned points keep global coordinates, so every cell hash matches.
      EXPECT_EQ(shard.index.points[l].x, s.index.points[g].x);
      EXPECT_EQ(shard.index.points[l].y, s.index.points[g].y);
    }
    // Kernels emit neighbor values through the emission map, which must
    // be exactly the local->global relabeling.
    EXPECT_EQ(shard.index.emit_ids, shard.to_global);
    // Owned-first numbering is ascending in global id within each block —
    // the monotone relabeling the forward-pair argument relies on.
    EXPECT_TRUE(std::is_sorted(shard.to_global.begin(),
                               shard.to_global.begin() + shard.num_owned));
    EXPECT_TRUE(std::is_sorted(shard.to_global.begin() + shard.num_owned,
                               shard.to_global.end()));
    // The slab keeps the ascending-in-cell invariant the half-comparison
    // kernels scan by.
    expect_slab_layout(shard);
  }
  EXPECT_EQ(owned_total, s.index.size());
  EXPECT_EQ(plan.owned_points, s.index.size());
  for (const std::uint32_t count : seen) EXPECT_EQ(count, 1u);
  EXPECT_GT(plan.total_ghosts, 0u);
  EXPECT_GT(plan.halo_overhead_fraction(), 0.0);
}

TEST(ShardPlanner, SingleShardIsTheWholeGridWithoutGhosts) {
  const Scenario s = make_scenario(1200, 0.3f, 12);
  const ShardPlan plan = plan_shards(s.index, 1);
  ASSERT_EQ(plan.shards.size(), 1u);
  const GridShard& shard = plan.shards.front();
  EXPECT_EQ(shard.num_owned, s.index.size());
  EXPECT_EQ(shard.num_ghosts(), 0u);
  EXPECT_EQ(shard.index.cell_base, 0u);
  EXPECT_EQ(plan.total_ghosts, 0u);
  EXPECT_EQ(plan.halo_overhead_fraction(), 0.0);
}

TEST(ShardPlanner, SlabCellsAreAscendingRunsOfLocalIds) {
  // k = 2, 3 and 4 over the whole grid, whose first and last slabs have
  // their halo clipped at the grid edge, and a planned row range inside
  // it, whose slabs all have both halo rows.
  const Scenario s = make_scenario(3000, 0.3f, 14);
  const std::uint32_t rows = s.index.params.cells_y;
  ASSERT_GE(rows, 12u);
  for (const unsigned k : {2u, 3u, 4u}) {
    for (const bool inner : {false, true}) {
      SCOPED_TRACE("k = " + std::to_string(k) + (inner ? ", inner" : ""));
      const ShardPlan plan =
          inner ? plan_shards(s.index, k, 3, rows - 3) : plan_shards(s.index, k);
      ASSERT_GE(plan.shards.size(), 2u);
      for (const GridShard& shard : plan.shards) {
        expect_slab_layout(shard);
        const std::uint32_t lo = shard.row_begin > 0 ? shard.row_begin - 1 : 0;
        EXPECT_EQ(shard.index.cell_base, lo * s.index.params.cells_x);
        // Clipped at the edge, the slab holds one halo row fewer.
        const std::uint32_t hi = std::min(rows, shard.row_end + 1);
        EXPECT_EQ(shard.index.cells.size(),
                  std::size_t{hi - lo} * s.index.params.cells_x);
      }
      if (!inner) {
        EXPECT_EQ(plan.shards.front().index.cell_base, 0u);
        EXPECT_EQ(plan.shards.back().row_end, rows);
      }
    }
  }
}

TEST(ShardPlanner, ClampsToRowCountAndRejectsBadInput) {
  const Scenario s = make_scenario(600, 0.3f, 13);
  const std::uint32_t rows = s.index.params.cells_y;
  const ShardPlan plan = plan_shards(s.index, rows * 4);
  EXPECT_LE(plan.shards.size(), rows);

  EXPECT_THROW(plan_shards(s.index, 2, 3, 3), std::invalid_argument);
  EXPECT_THROW(plan_shards(s.index, 2, 0, rows + 1), std::invalid_argument);
  GridIndex already_shard = plan.shards.front().index;
  EXPECT_THROW(plan_shards(already_shard, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// NeighborTable::translate and absorb_shard edge cases
// ---------------------------------------------------------------------------

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

TEST(NeighborTableTranslate, RebasesOwnedRowsAndKeepsGlobalValues) {
  // Shard: residents 3 (owned 0,1 -> global 4,7; ghost 2 -> global 9).
  // Values are stored ALREADY GLOBAL — the slab kernels emit through the
  // shard's emission map — so translate moves only the row keys and the
  // value storage is handed over untouched.
  NeighborTable local = table_with_rows(3, {{4, 7, 9}, {7, 9}});
  const std::vector<PointId> to_global{4, 7, 9};
  NeighborTable global =
      std::move(local).translate(to_global, /*num_owned=*/2,
                                 /*num_global=*/12);
  ASSERT_EQ(global.num_points(), 12u);
  EXPECT_EQ(global.total_pairs(), 5u);
  const std::vector<PointId> row4(global.neighbors(4).begin(),
                                  global.neighbors(4).end());
  const std::vector<PointId> row7(global.neighbors(7).begin(),
                                  global.neighbors(7).end());
  EXPECT_EQ(row4, (std::vector<PointId>{4, 7, 9}));
  EXPECT_EQ(row7, (std::vector<PointId>{7, 9}));
  EXPECT_EQ(global.neighbor_count(9), 0u);  // ghost row never emitted
}

TEST(NeighborTableTranslate, RejectsBadMapsAndKeys) {
  const std::vector<PointId> to_global{4, 7, 9};
  EXPECT_THROW((void)NeighborTable(2).translate(to_global, 2, 12),
               std::invalid_argument);  // map size != residents
  EXPECT_THROW((void)NeighborTable(3).translate(to_global, 4, 12),
               std::invalid_argument);  // num_owned > residents
  EXPECT_THROW((void)table_with_rows(3, {{0, 1}}).translate(to_global, 2, 5),
               std::out_of_range);  // global key 7 outside 5-row target
}

TEST(AbsorbShard, EmptyAndGhostOnlyShardsAreNoOps) {
  NeighborTable table = table_with_rows(6, {{0, 1}, {1}});
  table.absorb_shard(NeighborTable(6));  // never-filled shard
  // A "ghost-only" shard materializes as a global-sized table whose every
  // row is empty (translate() of a shard that owned nothing would produce
  // exactly this); absorbing it must not disturb existing rows.
  NeighborTable ghost_only(6);
  table.absorb_shard(std::move(ghost_only));
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

// ---------------------------------------------------------------------------
// Sharded builds: tables and labels bit-identical to one device
// ---------------------------------------------------------------------------

struct ShardedCase {
  ScanMode scan;
  unsigned shards;
};

class ShardedBuild : public ::testing::TestWithParam<ShardedCase> {};

TEST_P(ShardedBuild, TableBitIdenticalToSingleDeviceBuild) {
  const ShardedCase param = GetParam();
  const Scenario s = make_scenario(4000, 0.35f, 21);

  cudasim::Device single({}, fast_options());
  NeighborTableBuilder baseline(single, many_batch_policy(s, param.scan));
  NeighborTable want = baseline.build(s.index, s.eps);
  want.canonicalize();

  Fleet fleet = make_fleet(static_cast<int>(param.shards));
  ShardedBuildOptions options;
  options.num_shards = param.shards;
  options.policy = many_batch_policy(s, param.scan);
  BuildReport report;
  NeighborTable got = build_sharded_neighbor_table(fleet.ptrs, s.index,
                                                   s.eps, options, &report);
  got.canonicalize();
  EXPECT_TRUE(got.identical_to(want));

  EXPECT_GE(report.shards, 1u);
  EXPECT_LE(report.shards, param.shards);
  EXPECT_EQ(report.shard_repartitions, 0u);
  EXPECT_EQ(report.devices_lost, 0u);
  if (report.shards > 1) {
    EXPECT_GT(report.halo_ghost_points, 0u);
    EXPECT_GT(report.cross_shard_pairs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScanModesAndShardCounts, ShardedBuild,
    ::testing::Values(ShardedCase{ScanMode::kHalf, 1},
                      ShardedCase{ScanMode::kHalf, 2},
                      ShardedCase{ScanMode::kHalf, 3},
                      ShardedCase{ScanMode::kHalf, 4},
                      ShardedCase{ScanMode::kFull, 2},
                      ShardedCase{ScanMode::kFull, 4}));

TEST(ShardedBuildScaling, ModeledTimeImprovesWithShards) {
  const Scenario s = make_scenario(16000, 0.4f, 23);

  // Min of three trials per shard count: the model folds in measured host
  // CPU (planning, merge, expansion), so a descheduled thread on a loaded
  // CI host can inflate any single trial.
  auto modeled_with = [&](unsigned k) {
    double best = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < 3; ++trial) {
      Fleet fleet = make_fleet(static_cast<int>(k));
      ShardedBuildOptions options;
      options.num_shards = k;
      BuildReport report;
      (void)build_sharded_neighbor_table(fleet.ptrs, s.index, s.eps, options,
                                         &report);
      best = std::min(best, report.modeled_table_seconds);
    }
    return best;
  };

  const double one = modeled_with(1);
  const double four = modeled_with(4);
  EXPECT_LT(four, one);
}

TEST(ShardedBuildFleet, DeviceMemoryReleasedOnAllShards) {
  const Scenario s = make_scenario(2500, 0.3f, 24);
  Fleet fleet = make_fleet(3);
  ShardedBuildOptions options;
  options.num_shards = 3;
  (void)build_sharded_neighbor_table(fleet.ptrs, s.index, s.eps, options);
  for (const auto& dev : fleet.owned) {
    dev->pool().trim();  // drop pooled scratch before the leak check
    EXPECT_EQ(dev->used_global_bytes(), 0u);
  }
}

TEST(ShardedBuildFleet, RejectsEmptyDeviceList) {
  const Scenario s = make_scenario(300, 0.3f, 25);
  EXPECT_THROW(build_sharded_neighbor_table({}, s.index, s.eps, {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Chaos: device loss mid-build re-partitions the dead shard
// ---------------------------------------------------------------------------

TEST(ShardedBuildChaos, FailedEmissionMapAllocationDrainsQueuedUploads) {
  // A slab's device index queues three uploads, then allocates its
  // emission map. When that fourth allocation runs out of memory on a slow
  // link, the uploads are still queued: the constructor must let them
  // land before its unwind frees the buffers they write.
  const Scenario s = make_scenario(3000, 0.5f, 30);
  const ShardPlan plan = plan_shards(s.index, 2);
  const GridShard& shard = plan.shards.front();
  ASSERT_FALSE(shard.index.emit_ids.empty());
  cudasim::FaultPlan oom;
  oom.oom_allocs = {4};
  cudasim::SimulationOptions opt = faulted_options(oom);
  opt.throttle_transfers = true;
  cudasim::DeviceConfig slow_link;
  slow_link.pcie_latency_us = 50'000.0;
  cudasim::Device device(slow_link, opt);
  cudasim::Stream stream(device);
  EXPECT_THROW((void)std::make_unique<gpu::GridDeviceIndex>(device, stream,
                                                            shard.index),
               cudasim::DeviceOutOfMemory);
  EXPECT_EQ(device.used_global_bytes(), 0u);
}

TEST(ShardedBuildChaos, DeviceLossRepartitionsOntoSurvivorsExactly) {
  const Scenario s = make_scenario(3000, 0.35f, 26);

  cudasim::FaultPlan lost;
  lost.lost_at_op = 28;  // one shard's device dies mid-build
  Fleet fleet;
  fleet.add(fast_options());
  fleet.add(faulted_options(lost));
  fleet.add(fast_options());

  ShardedBuildOptions options;
  options.num_shards = 3;
  options.policy = many_batch_policy(s, ScanMode::kHalf);
  BuildReport report;
  NeighborTable table = build_sharded_neighbor_table(
      fleet.ptrs, s.index, s.eps, options, &report);

  EXPECT_EQ(report.devices_lost, 1u);
  EXPECT_GE(report.shard_repartitions, 1u);
  EXPECT_GT(report.shards, 3u);  // dead slab re-planned onto survivors
  EXPECT_FALSE(report.used_host_fallback);

  // The materialized table lost nothing despite the mid-build loss.
  table.canonicalize();
  NeighborTable oracle = s.oracle;
  oracle.canonicalize();
  EXPECT_TRUE(table.identical_to(oracle));

  // No leaked pinned/device buffers on the survivors (the dead device
  // refuses further ops; its memory dies with it).
  for (const auto& dev : fleet.owned) {
    if (dev->lost()) continue;
    dev->pool().trim();
    EXPECT_EQ(dev->used_global_bytes(), 0u);
  }
}

TEST(ShardedBuildChaos, RandomizedFaultPlansKeepLabelsExact) {
  const Scenario s = make_scenario(2000, 0.35f, 27);
  const int minpts = 4;
  NeighborTable oracle = s.oracle;
  oracle.canonicalize();
  const ClusterResult want = dbscan_parallel(oracle, minpts);

  for (const std::uint64_t seed : {5ull, 17ull, 42ull, 71ull}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    Fleet fleet;
    for (int d = 0; d < 3; ++d) {
      fleet.add(faulted_options(
          cudasim::FaultPlan::randomized(seed + 100ull * d)));
    }
    ShardedBuildOptions options;
    options.num_shards = 3;
    options.policy = many_batch_policy(s, ScanMode::kHalf);
    options.policy.resilience.host_fallback = true;  // survive total loss
    NeighborTable table =
        build_sharded_neighbor_table(fleet.ptrs, s.index, s.eps, options);
    table.canonicalize();
    EXPECT_TRUE(table.identical_to(oracle));
    // An identical table gives identical degrees, hence identical labels.
    EXPECT_EQ(dbscan_parallel(table, minpts).labels, want.labels);
  }
}

TEST(ShardedBuildChaos, TotalLossMidBuildFinishesSlabsOnHostExactly) {
  // Both devices die mid-build with no survivor to re-partition onto, so
  // every unbuilt slab finishes on the host rung; the materialized table
  // must still be the oracle's.
  const Scenario s = make_scenario(3000, 0.35f, 30);
  for (const ScanMode scan : {ScanMode::kHalf, ScanMode::kFull}) {
    SCOPED_TRACE(scan == ScanMode::kHalf ? "kHalf" : "kFull");
    ShardedBuildOptions options;
    options.num_shards = 2;
    options.policy = many_batch_policy(s, scan);
    options.policy.num_streams = 1;
    options.policy.resilience.host_fallback = true;

    // Probe: device ops of a clean build, so each loss lands mid-shard.
    std::vector<std::shared_ptr<cudasim::FaultInjector>> probes;
    Fleet probe_fleet;
    for (int d = 0; d < 2; ++d) {
      probes.push_back(
          std::make_shared<cudasim::FaultInjector>(cudasim::FaultPlan{}));
      cudasim::SimulationOptions opt = fast_options();
      opt.fault = probes.back();
      probe_fleet.add(opt);
    }
    (void)build_sharded_neighbor_table(probe_fleet.ptrs, s.index, s.eps,
                                       options);

    Fleet fleet;
    for (int d = 0; d < 2; ++d) {
      cudasim::FaultPlan lost;
      lost.lost_at_op = probes[d]->ops() / 2;
      fleet.add(faulted_options(lost));
    }
    BuildReport report;
    NeighborTable table = build_sharded_neighbor_table(
        fleet.ptrs, s.index, s.eps, options, &report);

    EXPECT_EQ(report.devices_lost, 2u);
    EXPECT_TRUE(report.used_host_fallback);
    EXPECT_GT(report.host_fallback_batches, 0u);
    table.canonicalize();
    NeighborTable oracle = s.oracle;
    oracle.canonicalize();
    EXPECT_TRUE(table.identical_to(oracle));
  }
}

TEST(ShardedBuildChaos, AllDevicesLostThrowsWithoutHostFallback) {
  const Scenario s = make_scenario(1000, 0.3f, 28);
  cudasim::FaultPlan lost;
  lost.lost_at_op = 1;
  Fleet fleet;
  fleet.add(faulted_options(lost));
  ShardedBuildOptions options;
  options.num_shards = 1;
  EXPECT_THROW(build_sharded_neighbor_table(fleet.ptrs, s.index, s.eps,
                                            options),
               cudasim::DeviceLost);
}

// ---------------------------------------------------------------------------
// Metrics: per-shard series plus the fleet roll-up
// ---------------------------------------------------------------------------

TEST(ShardedBuildMetrics, PublishesPerShardAndFleetSeries) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset_values();
  const Scenario s = make_scenario(2000, 0.35f, 29);
  Fleet fleet = make_fleet(2);
  ShardedBuildOptions options;
  options.num_shards = 2;
  options.policy = many_batch_policy(s, ScanMode::kHalf);
  BuildReport report;
  (void)build_sharded_neighbor_table(fleet.ptrs, s.index, s.eps, options,
                                     &report);
  ASSERT_EQ(report.shards, 2u);

  // Each shard publishes its own labeled series — concurrent shard builds
  // must not overwrite one another's last-value gauges.
  EXPECT_GT(reg.counter("build_batches_run", "shard=0").value(), 0u);
  EXPECT_GT(reg.counter("build_batches_run", "shard=1").value(), 0u);
  EXPECT_GT(reg.gauge("build_last_estimate_pairs", "shard=0").value(), 0.0);
  EXPECT_GT(reg.gauge("build_last_estimate_pairs", "shard=1").value(), 0.0);

  // The orchestrator publishes the combined (unlabeled) report once.
  EXPECT_EQ(reg.counter("build_sharded_builds").value(), 1u);
  EXPECT_EQ(reg.counter("build_shards").value(), 2u);
  EXPECT_GT(reg.counter("build_halo_ghost_points").value(), 0u);
  EXPECT_GT(reg.counter("build_cross_shard_pairs").value(), 0u);
  EXPECT_EQ(reg.counter("build_batches_run").value(),
            static_cast<std::uint64_t>(report.batches_run));

  // Fleet roll-up: summed device gauges under device=fleet.
  EXPECT_EQ(reg.gauge("cudasim_fleet_devices", "device=fleet").value(), 2.0);
  const double fleet_launches =
      reg.gauge("cudasim_kernel_launches", "device=fleet").value();
  double per_device = 0.0;
  for (const auto& dev : fleet.owned) {
    per_device += static_cast<double>(dev->metrics().kernel_launches);
  }
  EXPECT_EQ(fleet_launches, per_device);
}

// ---------------------------------------------------------------------------
// Fleet pipeline: the byte-budget one-item minimum under k>1 shard builds
// ---------------------------------------------------------------------------

// Regression: a queue_bytes_budget smaller than any single table must
// still drain a multi-variant fleet pipeline when each table is built
// across k>1 shards. The empty-queue one-item minimum is what prevents
// the sharded producer (which holds the fleet's worker threads) from
// deadlocking against consumers that cannot admit an over-budget table.
TEST(ShardedBuildPipeline, ByteBudgetOneItemMinimumDrainsShardedBuilds) {
  const Scenario s = make_scenario(3000, 0.35f, 31);
  const std::vector<Variant> variants = {
      {0.35f, 4}, {0.35f, 8}, {0.35f, 12}, {0.35f, 16}};

  PipelineOptions want_opts;
  want_opts.pipelined = false;
  want_opts.keep_results = true;
  want_opts.cluster_mode = ClusterMode::kBatchTable;
  want_opts.policy = many_batch_policy(s, ScanMode::kHalf);
  cudasim::Device single({}, fast_options());
  const PipelineReport want =
      run_multi_clustering(single, s.points, variants, want_opts);

  Fleet fleet = make_fleet(2);
  PipelineOptions opts;
  opts.pipelined = true;
  opts.keep_results = true;
  opts.cluster_mode = ClusterMode::kBatchTable;  // sharded tables
  opts.num_shards = 2;
  opts.queue_capacity = 3;
  opts.queue_bytes_budget = 1;  // every table is over budget
  opts.policy = many_batch_policy(s, ScanMode::kHalf);
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
  // The budget pressure must not leak device memory on either shard.
  for (const auto& dev : fleet.owned) {
    dev->pool().trim();
    EXPECT_EQ(dev->used_global_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Front doors: the fused path replicates the index, so it refuses shards
// ---------------------------------------------------------------------------

/// Runs `call`, expecting std::invalid_argument whose message names
/// ClusterMode::kBatchTable — the mode that shards.
template <typename Call>
void expect_sharded_fused_rejected(Call&& call) {
  try {
    call();
    ADD_FAILURE() << "a fused run with num_shards = 2 was not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kBatchTable"), std::string::npos)
        << e.what();
  }
}

TEST(ShardedFusedFrontDoors, HybridDbscanRejectsShardedFusedRuns) {
  const Scenario s = make_scenario(1000, 0.35f, 34);
  Fleet fleet = make_fleet(2);
  ShardedBuildOptions options;
  options.num_shards = 2;
  expect_sharded_fused_rejected([&] {
    (void)hybrid_dbscan(fleet.ptrs, s.points, s.eps, 4, nullptr, options,
                        ClusterMode::kFused);
  });
  // One shard per live device (num_shards = 0) is no request to shard:
  // the fused passes still stripe the replicated index across the fleet.
  options.num_shards = 0;
  const ClusterResult fused = hybrid_dbscan(
      fleet.ptrs, s.points, s.eps, 4, nullptr, options, ClusterMode::kFused);
  EXPECT_EQ(fused.labels.size(), s.points.size());
}

TEST(ShardedFusedFrontDoors, RunMultiClusteringRejectsShardedFusedRuns) {
  const Scenario s = make_scenario(1000, 0.35f, 35);
  const std::vector<Variant> variants = {{0.3f, 4}, {0.35f, 4}};
  Fleet fleet = make_fleet(2);
  PipelineOptions opts;  // the default mode: kFused
  opts.num_shards = 2;
  expect_sharded_fused_rejected([&] {
    (void)run_multi_clustering(fleet.ptrs, s.points, variants, opts);
  });
  // The same request on the table path builds sharded tables.
  opts.cluster_mode = ClusterMode::kBatchTable;
  const PipelineReport report =
      run_multi_clustering(fleet.ptrs, s.points, variants, opts);
  for (const VariantTiming& t : report.variants) {
    EXPECT_TRUE(t.outcome.ok) << t.outcome.error;
  }
}

// ---------------------------------------------------------------------------
// Front doors: one device is a fleet of one
// ---------------------------------------------------------------------------

class FleetOfOne : public ::testing::TestWithParam<ClusterMode> {};

TEST_P(FleetOfOne, HybridDbscanOverloadsAgreeWithoutSharding) {
  const Scenario s = make_scenario(3000, 0.35f, 32);
  const int minpts = 4;
  const ClusterMode mode = GetParam();
  cudasim::Device dev({}, fast_options());

  HybridTimings single_t;
  const ClusterResult single =
      hybrid_dbscan(dev, s.points, s.eps, minpts, &single_t,
                    many_batch_policy(s, ScanMode::kHalf), mode);
  ShardedBuildOptions options;
  options.policy = many_batch_policy(s, ScanMode::kHalf);
  HybridTimings fleet_t;
  const ClusterResult fleet = hybrid_dbscan({&dev}, s.points, s.eps, minpts,
                                            &fleet_t, options, mode);

  EXPECT_EQ(fleet.labels, single.labels);
  EXPECT_EQ(fleet.num_clusters, single.num_clusters);
  // A fleet of one builds the whole index: no slab copy, no translation.
  EXPECT_EQ(single_t.build_report.shards, 0u);
  EXPECT_EQ(fleet_t.build_report.shards, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, FleetOfOne,
                         ::testing::Values(ClusterMode::kBatchTable,
                                           ClusterMode::kFused));

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

}  // namespace
}  // namespace hdbscan
