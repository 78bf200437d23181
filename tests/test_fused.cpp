// Fused no-table clustering (ClusterMode::kFused): label bit-identity
// against the banded union-find pass (dbscan_parallel) across scan
// modes, degenerate inputs and dimensions, equivalence with batch
// (BFS) DBSCAN, the zero-table contract, counted fields that repeat
// exactly run after run, the metrics a fused build publishes, and the
// degradation ladder — scripted device loss fails over to survivors,
// transient launch faults retry within their budget, a cancelled build
// winds down and returns its device memory, and randomized fault plans
// (including total fleet loss with host fallback) never change a single
// label.
#include "core/fused_clustering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "core/hybrid_dbscan.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/error.hpp"
#include "cudasim/fault.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/dbscan_parallel.hpp"
#include "dbscan/neighbor_table.hpp"
#include "dbscan/streaming_dbscan.hpp"
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

/// The passes a fused run launches when some point may be a border and
/// some core touches one — core, mark, recount, union — each as
/// 2 batches per lane.
constexpr unsigned kFusedPasses = 4;
constexpr unsigned kBatchesPerLane = 2;

/// The union-find paths' labels in input order: the banded pass over the
/// host table, with ids (cluster numbering, border ties) in the grid
/// index's point order, as hybrid_dbscan numbers them.
ClusterResult union_find_clustering(std::span<const Point2> points, float eps,
                                    int minpts) {
  const GridIndex index = build_grid_index(points, eps);
  const int values[] = {minpts};
  return dbscan_parallel(build_neighbor_table_host(index, eps), values, 0,
                         index.original_ids)
      .front();
}

std::vector<std::int32_t> union_find_labels(std::span<const Point2> points,
                                            float eps, int minpts) {
  return union_find_clustering(points, eps, minpts).labels;
}

std::vector<std::int32_t> union_find_labels3(std::span<const Point3> points,
                                             float eps, int minpts) {
  const GridIndex3 index = build_grid_index<Point3>(points, eps);
  const int values[] = {minpts};
  return dbscan_parallel(build_neighbor_table_host(index, eps), values, 0,
                         index.original_ids)
      .front()
      .labels;
}

/// Full eps-table in input order, for comparisons with batch DBSCAN.
NeighborTable input_order_table(std::span<const Point2> points, float eps) {
  const GridIndex index = build_grid_index(points, eps);
  NeighborTable table(points.size());
  std::vector<PointId> neighbors;
  std::vector<NeighborPair> pairs;
  for (PointId i = 0; i < points.size(); ++i) {
    grid_query(index, points[i], eps, neighbors);
    pairs.clear();
    for (const PointId v : neighbors) {
      pairs.push_back({i, index.original_ids[v]});
    }
    table.append_sorted_batch(pairs);
  }
  return table;
}

// ---------------------------------------------------------------------------
// 2-D equivalence: fused == banded pass;
// batch (BFS) DBSCAN agrees on cores, noise and clusters
// ---------------------------------------------------------------------------

class FusedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, float, int>> {};

TEST_P(FusedEquivalence, LabelsBitIdenticalToBandedPass) {
  const auto [family, eps, minpts] = GetParam();
  const std::size_t n = 2500;
  const std::vector<Point2> points =
      family == 0 ? data::generate_uniform(n, 71, 10.0f, 10.0f)
                  : data::generate_space_weather(
                        n, 72, {.width = 10.0f, .height = 10.0f});

  cudasim::Device batch_dev({}, fast_options());
  const ClusterResult batch = hybrid_dbscan(batch_dev, points, eps, minpts);

  const ClusterResult banded = union_find_clustering(points, eps, minpts);
  const std::vector<std::int32_t>& want = banded.labels;
  const NeighborTable oracle = input_order_table(points, eps);
  const auto outcome = compare_clusterings(banded, batch, oracle, minpts);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;

  HybridTimings timings;
  cudasim::Device fused_dev({}, fast_options());
  const ClusterResult fused =
      hybrid_dbscan(fused_dev, points, eps, minpts, &timings, {},
                    ClusterMode::kFused);
  EXPECT_EQ(fused.labels, want);
  EXPECT_EQ(fused.num_clusters, batch.num_clusters);

  // The no-table contract: nothing materialized.
  EXPECT_TRUE(timings.fused);
  EXPECT_TRUE(timings.build_report.fused);
  EXPECT_FALSE(timings.build_report.table_materialized);
  // The capped core pass and the recount: the oracle's counts exactly
  // (degrees, and so the counts, do not depend on the id order).
  const FusedDegrees contract = expected_fused_degrees(oracle, minpts);
  EXPECT_EQ(timings.build_report.capped_points, contract.capped_points);
  EXPECT_EQ(timings.build_report.recounted_points, contract.recounted_points);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FusedEquivalence,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(0.2f, 0.5f),
                       ::testing::Values(4, 16)));

TEST(FusedDbscan, FullScanModeMatchesBandedPass) {
  const auto points = data::generate_space_weather(
      2000, 73, {.width = 10.0f, .height = 10.0f});
  const std::vector<std::int32_t> want = union_find_labels(points, 0.4f, 4);
  BatchPolicy policy;
  policy.scan_mode = ScanMode::kFull;
  cudasim::Device dev({}, fast_options());
  const ClusterResult fused = hybrid_dbscan(
      dev, points, 0.4f, 4, nullptr, policy, ClusterMode::kFused);
  EXPECT_EQ(fused.labels, want);
}

TEST(FusedDbscan, DuplicatePointsCluster) {
  // 300 coincident points plus a sparse ring of strays: the duplicate pile
  // exercises degree saturation and self-pair handling in one cell.
  std::vector<Point2> points(300, Point2{3.0f, 3.0f});
  Xoshiro256 rng(74);
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.uniform(0.0f, 10.0f), rng.uniform(0.0f, 10.0f)});
  }
  const std::vector<std::int32_t> want = union_find_labels(points, 0.3f, 8);
  cudasim::Device batch_dev({}, fast_options());
  const ClusterResult batch = hybrid_dbscan(batch_dev, points, 0.3f, 8);
  cudasim::Device dev({}, fast_options());
  const ClusterResult fused = hybrid_dbscan(
      dev, points, 0.3f, 8, nullptr, {}, ClusterMode::kFused);
  EXPECT_EQ(fused.labels, want);
  EXPECT_EQ(fused.num_clusters, batch.num_clusters);
  EXPECT_EQ(fused.noise_count(), batch.noise_count());
  EXPECT_GE(batch.num_clusters, 1);
}

TEST(FusedDbscan, ExactEpsBoundaryPairsAreNeighbors) {
  // Chains of points spaced exactly eps apart: the closed-ball (<=)
  // semantic must hold identically in the fused traversal, or the chain
  // fragments.
  const float eps = 0.25f;
  std::vector<Point2> points;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 30; ++i) {
      points.push_back({static_cast<float>(i) * eps,
                        2.0f * static_cast<float>(c)});
    }
  }
  cudasim::Device batch_dev({}, fast_options());
  const ClusterResult batch = hybrid_dbscan(batch_dev, points, eps, 2);
  EXPECT_EQ(batch.num_clusters, 4);
  cudasim::Device dev({}, fast_options());
  const ClusterResult fused = hybrid_dbscan(
      dev, points, eps, 2, nullptr, {}, ClusterMode::kFused);
  EXPECT_EQ(fused.labels, batch.labels);
}

TEST(FusedDbscan, DegenerateInputsMatchBandedPass) {
  // The union pass's corners: tiny inputs, every point core (minpts 1, no
  // noise), no point core (minpts > n, all noise) and coincident points
  // that are all core.
  Xoshiro256 rng(84);
  std::vector<Point2> spread(60);
  for (Point2& p : spread) {
    p = {rng.uniform(0.0f, 2.0f), rng.uniform(0.0f, 2.0f)};
  }
  std::vector<Point2> piles(40, Point2{1.0f, 1.0f});
  piles.insert(piles.end(), 25, Point2{3.0f, 1.0f});
  piles.push_back({5.0f, 5.0f});
  struct Case {
    const char* name;
    std::vector<Point2> points;
    int minpts;
  };
  const std::vector<Case> cases = {
      {"n = 1", {{0.5f, 0.5f}}, 1},
      {"n = 1, minpts 2", {{0.5f, 0.5f}}, 2},
      {"n = 2, neighbors", {{0.5f, 0.5f}, {0.6f, 0.5f}}, 2},
      {"n = 2, apart", {{0.5f, 0.5f}, {1.5f, 0.5f}}, 1},
      {"minpts 1", spread, 1},
      {"minpts > n", spread, 61},
      {"duplicates at minpts 1", piles, 1},
  };
  const float eps = 0.3f;
  for (const Case& c : cases) {
    const std::vector<std::int32_t> want =
        union_find_labels(c.points, eps, c.minpts);
    for (const ScanMode scan : {ScanMode::kHalf, ScanMode::kFull}) {
      SCOPED_TRACE(std::string(c.name) +
                   (scan == ScanMode::kHalf ? ", kHalf" : ", kFull"));
      BatchPolicy policy;
      policy.scan_mode = scan;
      cudasim::Device dev({}, fast_options());
      const ClusterResult fused = hybrid_dbscan(
          dev, c.points, eps, c.minpts, nullptr, policy,
          ClusterMode::kFused);
      EXPECT_EQ(fused.labels, want);
      if (c.minpts == 1) {
        EXPECT_EQ(fused.noise_count(), 0u);
      }
      if (static_cast<std::size_t>(c.minpts) > c.points.size()) {
        EXPECT_EQ(fused.noise_count(), c.points.size());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The capped core pass: degrees stop at T = max(minpts, 2), and exactly the
// cores that touch a non-core point are recounted
// ---------------------------------------------------------------------------

/// Runs `points` through fused_cluster under both union scan modes, on one and two devices and on the host rung (the only
/// device lost at its first op), and checks each run against the oracle
/// table: every degree and the capped and recounted counts follow the
/// contract, and the labels are the banded pass's. Returns how many passes
/// the runs launched, checked to be the same everywhere.
unsigned expect_contract_exact(const std::vector<Point2>& points, float eps,
                               int minpts) {
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  const std::vector<std::int32_t> want =
      dbscan_parallel(oracle, minpts).labels;
  const FusedDegrees contract = expected_fused_degrees(oracle, minpts);
  std::vector<unsigned> passes;
  for (const ScanMode scan : {ScanMode::kHalf, ScanMode::kFull}) {
    for (const unsigned devices : {1u, 2u, 0u}) {
      SCOPED_TRACE(
          std::string(scan == ScanMode::kHalf ? "kHalf, " : "kFull, ") +
          (devices == 0 ? std::string("host rung")
                        : std::to_string(devices) + " device(s)"));
      Fleet fleet;
      BatchPolicy policy;
      policy.scan_mode = scan;
      if (devices == 0) {
        cudasim::FaultPlan lost;
        lost.lost_at_op = 1;
        fleet.add(faulted_options(lost));
        policy.resilience.host_fallback = true;
      }
      for (unsigned d = 0; d < devices; ++d) fleet.add(fast_options());
      StreamingDbscan consumer(index.size(), minpts);
      const BuildReport report =
          fused_cluster(fleet.ptrs, index, eps, consumer, policy);
      EXPECT_EQ(report.used_host_fallback, devices == 0);
      for (PointId i = 0; i < index.size(); ++i) {
        EXPECT_EQ(consumer.degree(i), contract.degree[i])
            << "point " << i << ", exact degree "
            << oracle.neighbor_count(i);
      }
      EXPECT_EQ(report.capped_points, contract.capped_points);
      EXPECT_EQ(report.recounted_points, contract.recounted_points);
      EXPECT_EQ(consumer.finalize().labels, want);
      // A device run launches one batch per point up to the plan's
      // batches in each pass; the host rung runs each pass whole.
      const auto per_pass = std::min<std::uint32_t>(
          static_cast<std::uint32_t>(index.size()),
          report.plan.num_batches);
      passes.push_back(devices == 0 ? report.host_fallback_batches
                                    : report.batches_run / per_pass);
    }
  }
  for (const unsigned p : passes) EXPECT_EQ(p, passes.front());
  return passes.front();
}

/// The index id of input point `input` (the grid reorders points).
PointId index_id(const std::vector<Point2>& points, float eps,
                 PointId input) {
  const GridIndex index = build_grid_index(points, eps);
  for (PointId i = 0; i < index.size(); ++i) {
    if (index.original_ids[i] == input) return i;
  }
  ADD_FAILURE() << "no point " << input;
  return 0;
}

TEST(FusedCappedDegrees, MinptsOneAndTwoCapAtTwo) {
  // T = 2: a lone point keeps degree 1 and stays apart from the rest, a
  // pair lands 2, and a triple stops at 2. No point can be a border, so
  // the mark and recount passes are skipped.
  const std::vector<Point2> lone{{0.5f, 0.5f}};
  const std::vector<Point2> pair{{0.5f, 0.5f}, {0.6f, 0.5f}};
  const std::vector<Point2> mixed{{0.5f, 0.5f},                  // lone
                                  {3.0f, 3.0f}, {3.1f, 3.0f},    // pair
                                  {6.0f, 6.0f}, {6.1f, 6.0f},    // triple
                                  {6.0f, 6.1f}};
  for (const int minpts : {1, 2}) {
    for (const auto* points : {&lone, &pair, &mixed}) {
      SCOPED_TRACE("minpts " + std::to_string(minpts) + ", n = " +
                   std::to_string(points->size()));
      EXPECT_EQ(expect_contract_exact(*points, 0.3f, minpts), 2u);
    }
  }
  const NeighborTable table =
      build_neighbor_table_host(build_grid_index(mixed, 0.3f), 0.3f);
  const FusedDegrees contract = expected_fused_degrees(table, 2);
  EXPECT_EQ(contract.capped_points, 5u);
  EXPECT_EQ(contract.recounted_points, 0u);
}

TEST(FusedCappedDegrees, DegreesJustBelowAtAndAboveTheCap) {
  // Stars far apart: a center with k satellites on a circle of radius
  // 0.9 eps (more than eps apart from each other), k = 1..5, so centers
  // have degrees 2..6 and satellites 2. At minpts 3, 4 and 5 a center
  // lands exactly T - 1 (a degree one short of the cap, counted in full),
  // exactly T (stopped at the cap on its last neighbor) or is capped
  // above it, and every core center is a satellite's only core neighbor.
  const float eps = 1.0f;
  std::vector<Point2> points;
  for (int k = 1; k <= 5; ++k) {
    const Point2 center{10.0f * static_cast<float>(k), 0.0f};
    points.push_back(center);
    for (int j = 0; j < k; ++j) {
      const float a = 6.2831853f * static_cast<float>(j) /
                      static_cast<float>(k);
      points.push_back({center.x + 0.9f * std::cos(a),
                        center.y + 0.9f * std::sin(a)});
    }
  }
  for (const int minpts : {3, 4, 5}) {
    SCOPED_TRACE("minpts " + std::to_string(minpts));
    EXPECT_EQ(expect_contract_exact(points, eps, minpts), kFusedPasses);
  }
}

/// A border at the origin with a core neighbor at (±0.9 eps, 0) on each
/// side; each core holds a pile of `left` / `right` residents beyond it,
/// more than eps from the border. Appended in that order after `points`;
/// returns the input ids of the border, the left and the right core.
std::array<PointId, 3> add_border_between_piles(std::vector<Point2>& points,
                                                int left, int right) {
  const auto border = static_cast<PointId>(points.size());
  points.push_back({0.0f, 0.0f});
  points.push_back({-0.9f, 0.0f});
  points.push_back({0.9f, 0.0f});
  for (int i = 0; i < left; ++i) {
    points.push_back({-1.5f, 0.01f * static_cast<float>(i)});
  }
  for (int i = 0; i < right; ++i) {
    points.push_back({1.5f, 0.01f * static_cast<float>(i)});
  }
  return {border, border + 1, border + 2};
}

TEST(FusedCappedDegrees, BorderWhoseCoresStoppedAtTheCap) {
  // minpts 4: both cores' counts stop at T = 4, though their degrees are
  // 8 and 12. The border joins the right core, the larger degree — but the
  // right core has the larger id, so degrees left at the cap would tie and
  // hand the border to the left one. Only the recount gets it right.
  const float eps = 1.0f;
  std::vector<Point2> points;
  const auto [border, left, right] = add_border_between_piles(points, 6, 10);
  ASSERT_LT(index_id(points, eps, left), index_id(points, eps, right));
  EXPECT_EQ(expect_contract_exact(points, eps, 4), kFusedPasses);
  const ClusterResult labels = union_find_clustering(points, eps, 4);
  EXPECT_EQ(labels.num_clusters, 2);
  EXPECT_EQ(labels.labels[border], labels.labels[right]);
  EXPECT_NE(labels.labels[border], labels.labels[left]);
  const GridIndex index = build_grid_index(points, eps);
  const FusedDegrees contract =
      expected_fused_degrees(build_neighbor_table_host(index, eps), 4);
  EXPECT_EQ(contract.recounted_points, 2u);
  EXPECT_EQ(contract.degree[index_id(points, eps, right)], 12u);
}

TEST(FusedCappedDegrees, TiedCoresBreakByIdOnlyAfterTheRecount) {
  // minpts 5: the border's left and right cores tie on degree 9, and a
  // third core below it has degree exactly T = 5 and the smallest id (its
  // cell row comes first). Left at the cap, all three would tie and the
  // third would win; recounted, the tie is between left and right, and
  // the smaller id — the left core — wins.
  const float eps = 1.0f;
  std::vector<Point2> points;
  const auto [border, left, right] = add_border_between_piles(points, 7, 7);
  const auto third = static_cast<PointId>(points.size());
  points.push_back({0.0f, -0.9f});
  for (int i = 0; i < 3; ++i) {
    points.push_back({0.01f * static_cast<float>(i), -1.6f});
  }
  ASSERT_LT(index_id(points, eps, third), index_id(points, eps, left));
  ASSERT_LT(index_id(points, eps, left), index_id(points, eps, right));
  EXPECT_EQ(expect_contract_exact(points, eps, 5), kFusedPasses);
  const ClusterResult labels = union_find_clustering(points, eps, 5);
  EXPECT_EQ(labels.num_clusters, 3);
  EXPECT_EQ(labels.labels[border], labels.labels[left]);
  EXPECT_NE(labels.labels[border], labels.labels[third]);
}

TEST(FusedCappedDegrees, AllDuplicatesSkipTheMarkAndRecountPasses) {
  // 40 copies of one point: degree 40 everywhere. Up to minpts 40 all are
  // core, no point can be a border, and only the core and union passes
  // run. At minpts 41 none is core: the mark pass runs, flags nothing,
  // and the recount pass is skipped.
  const std::vector<Point2> points(40, Point2{2.5f, -1.0f});
  for (const int minpts : {1, 2, 4, 40, 41}) {
    SCOPED_TRACE("minpts " + std::to_string(minpts));
    EXPECT_EQ(expect_contract_exact(points, 0.3f, minpts),
              minpts <= 40 ? 2u : 3u);
  }
}

// ---------------------------------------------------------------------------
// Dense eps/2 sub-cells in the union pass: exact at their float edges
// ---------------------------------------------------------------------------

/// Runs `points` through the fused passes under both scan modes, on one and two devices and on the host rung (the only
/// device lost at its first op), and checks every run's degrees (the
/// capped contract) and labels against the host oracle table. Each scan
/// mode reports the same count of dense runs everywhere; returns the kHalf
/// count.
std::uint64_t expect_dense_runs_exact(const std::vector<Point2>& points,
                                      float eps, int minpts) {
  const GridIndex index = build_grid_index(points, eps);
  EXPECT_FALSE(build_sub_cells(index).order.empty());
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  const std::vector<std::int32_t> want =
      dbscan_parallel(oracle, minpts).labels;
  const FusedDegrees contract = expected_fused_degrees(oracle, minpts);
  std::uint64_t half_dense = 0;
  for (const ScanMode scan : {ScanMode::kHalf, ScanMode::kFull}) {
    std::vector<std::uint64_t> dense;
    for (const unsigned devices : {1u, 2u, 0u}) {
      SCOPED_TRACE(
          std::string(scan == ScanMode::kHalf ? "kHalf, " : "kFull, ") +
          (devices == 0 ? std::string("host rung")
                        : std::to_string(devices) + " device(s)"));
      Fleet fleet;
      BatchPolicy policy;
      policy.scan_mode = scan;
      if (devices == 0) {
        cudasim::FaultPlan lost;
        lost.lost_at_op = 1;
        fleet.add(faulted_options(lost));
        policy.resilience.host_fallback = true;
      }
      for (unsigned d = 0; d < devices; ++d) fleet.add(fast_options());
      StreamingDbscan consumer(index.size(), minpts);
      const BuildReport report =
          fused_cluster(fleet.ptrs, index, eps, consumer, policy);
      EXPECT_EQ(report.used_host_fallback, devices == 0);
      std::size_t wrong_degrees = 0;
      for (PointId i = 0; i < index.size(); ++i) {
        wrong_degrees += consumer.degree(i) != contract.degree[i];
      }
      EXPECT_EQ(wrong_degrees, 0u);
      EXPECT_EQ(report.capped_points, contract.capped_points);
      EXPECT_EQ(report.recounted_points, contract.recounted_points);
      EXPECT_EQ(consumer.finalize().labels, want);
      dense.push_back(report.dense_runs);
    }
    EXPECT_EQ(dense[0], dense[1]);
    EXPECT_EQ(dense[0], dense[2]);
    if (scan == ScanMode::kHalf) half_dense = dense[0];
  }
  return half_dense;
}

TEST(FusedDenseRuns, AllDuplicateInputs) {
  // One point repeated: one cell, one sub-cell, one run of n. At minpts
  // 1, 2 and n it is dense and one cluster; at n + 1 nothing is core.
  constexpr int n = 40;
  static_assert(n >= kSubCellMinResidents);
  const std::vector<Point2> points(n, Point2{2.5f, -1.0f});
  for (const int minpts : {1, 2, n, n + 1}) {
    SCOPED_TRACE("minpts " + std::to_string(minpts));
    const std::uint64_t dense = expect_dense_runs_exact(points, 0.3f, minpts);
    EXPECT_EQ(dense, minpts <= n ? static_cast<std::uint64_t>(n) : 0u);
  }
}

TEST(FusedDenseRuns, CoordinatesOnSubCellBoundaries) {
  // A lattice at min + k·eps/2 on both axes, 16 copies per site: every
  // coordinate sits exactly on a sub-cell boundary, where the binning's
  // float quotient decides the side. eps 0.5 makes the boundaries exact
  // in float; eps 0.3 rounds them either way. A run holds one site when
  // the float quotient splits the lattice evenly; at minpts 17 none is
  // dense.
  for (const float eps : {0.5f, 0.3f}) {
    const float step = eps / 2.0f;
    std::vector<Point2> points;
    for (int k = 0; k < 9; ++k) {
      for (int j = 0; j < 7; ++j) {
        const Point2 site{1.0f + static_cast<float>(k) * step,
                          -2.0f + static_cast<float>(j) * step};
        points.insert(points.end(), 16, site);
      }
    }
    for (const int minpts : {2, 4, 16, 17}) {
      SCOPED_TRACE("eps " + std::to_string(eps) + ", minpts " +
                   std::to_string(minpts));
      const std::uint64_t dense =
          expect_dense_runs_exact(points, eps, minpts);
      if (minpts <= 16) {
        EXPECT_GT(dense, 0u);
      }
    }
  }
}

TEST(FusedDenseRuns, ExactEpsPairsAcrossADenseSparseBorder) {
  // A pile of 20 and two chains leaving it in steps of exactly eps: the
  // first chain points are cores in sparse runs, the next borders, the
  // last noise. The pile's union with the chains rests on exactly-eps
  // pairs. At minpts 21 the pile is all core but not a dense run.
  for (const float eps : {0.5f, 0.3f}) {
    SCOPED_TRACE("eps " + std::to_string(eps));
    std::vector<Point2> points(20, Point2{1.0f, 1.0f});
    for (int k = 1; k <= 3; ++k) {
      points.push_back({1.0f + static_cast<float>(k) * eps, 1.0f});
      points.push_back({1.0f, 1.0f - static_cast<float>(k) * eps});
    }
    for (const int minpts : {3, 4, 21}) {
      SCOPED_TRACE("minpts " + std::to_string(minpts));
      const std::uint64_t dense =
          expect_dense_runs_exact(points, eps, minpts);
      EXPECT_EQ(dense > 0, minpts <= 20);
    }
  }
}

TEST(FusedDenseRuns, SparseRunBorderInADenseCell) {
  // One cell holds a dense pile, a core point in a sparse sub-cell and,
  // after it in id order, a border whose only core neighbor is that point:
  // under kHalf the border's fold comes from the core point's own-cell
  // scan of its sparse runs, and nowhere else.
  std::vector<Point2> points(16, Point2{0.1f, 0.1f});
  points.push_back({0.75f, 0.15f});  // core: the pile, itself, the border
  points.push_back({0.95f, 0.95f});  // border: more than eps from the pile
  EXPECT_GT(expect_dense_runs_exact(points, 1.0f, 4), 0u);
  const ClusterResult labels = union_find_clustering(points, 1.0f, 4);
  EXPECT_EQ(labels.num_clusters, 1);
  EXPECT_EQ(labels.noise_count(), 0u);
}

TEST(FusedDenseRuns, DenseSubCellsJustBeyondEpsStayApart) {
  // Two dense sub-cells whose closest pair is the smallest float gap past
  // eps: every first-hit scan between them must miss, and they stay two
  // clusters; one float step closer, they join. The sub-cells sit side by
  // side in two cells, or in opposite corners of one cell, both in the
  // cell's upper three quarters on each axis (a point at the origin fixes
  // the grid there).
  struct Layout {
    const char* name;
    float eps;
    Point2 near;  ///< the near pile's closest resident
    Point2 dir;   ///< unit vector from the near pile to the far one
  };
  const Layout layouts[] = {
      {"two cells", 0.5f, {1.2f, 1.0f}, {1.0f, 0.0f}},
      {"one cell", 1.0f, {0.28f, 0.28f}, {0.70710677f, 0.70710677f}},
  };
  for (const Layout& l : layouts) {
    SCOPED_TRACE(l.name);
    auto along = [&](float t) {
      return Point2{l.near.x + t * l.dir.x, l.near.y + t * l.dir.y};
    };
    float inside = 0.99f * l.eps;  // the last step still within eps
    float beyond = inside;
    while (dist2(l.near, along(beyond)) <= l.eps * l.eps) {
      inside = beyond;
      beyond = std::nextafter(beyond, 2.0f * l.eps);
    }
    for (const bool apart : {true, false}) {
      SCOPED_TRACE(apart ? "just beyond eps" : "one step closer");
      const Point2 far = along(apart ? beyond : inside);
      // The near pile fans back along -dir, the far one across it, so the
      // two closest residents are `near` and `far`.
      std::vector<Point2> points;
      if (l.near.x < 1.0f) points.push_back({0.0f, 0.0f});
      for (int i = 0; i < 16; ++i) {
        const float k = static_cast<float>(i);
        points.push_back({l.near.x - 0.0008f * k * l.dir.x,
                          l.near.y - 0.0008f * k * l.dir.y});
        points.push_back({far.x - 0.0008f * k * l.dir.y,
                          far.y + 0.0008f * k * l.dir.x});
      }
      for (const int minpts : {3, 16}) {
        SCOPED_TRACE("minpts " + std::to_string(minpts));
        EXPECT_GT(expect_dense_runs_exact(points, l.eps, minpts), 0u);
        const ClusterResult labels =
            union_find_clustering(points, l.eps, minpts);
        EXPECT_EQ(labels.num_clusters, apart ? 2 : 1);
      }
    }
  }
}

/// Two dense runs whose only pair within eps is `near` and the point `t`
/// along `dir` from it, neither its run's first resident: run A fans back
/// from `near` along -dir and run B across dir from the far point, so
/// every other pair is farther apart, and each run lists its farthest
/// resident first (giving it the run's smallest id), so neither first
/// resident is within eps of the other run. A point at the origin fixes
/// the grid there.
std::vector<Point2> two_runs_one_pair(Point2 near, Point2 dir, float t) {
  constexpr int kRun = std::max<int>(16, kSubCellMinResidents);
  const Point2 far{near.x + t * dir.x, near.y + t * dir.y};
  std::vector<Point2> points{{0.0f, 0.0f}};
  for (int i = kRun - 1; i >= 0; --i) {
    const float k = 0.002f * static_cast<float>(i);
    points.push_back({near.x - k * dir.x, near.y - k * dir.y});
  }
  for (int i = kRun - 1; i >= 0; --i) {
    const float k = 0.002f * static_cast<float>(i);
    points.push_back({far.x - k * dir.y, far.y + k * dir.x});
  }
  return points;
}

/// The largest float t whose point along `dir` from `near` lies within
/// `eps` of it.
float last_step_within(Point2 near, Point2 dir, float eps) {
  float t = 0.99f * eps;
  for (;;) {
    const float next = std::nextafter(t, 2.0f * eps);
    if (dist2(near, Point2{near.x + next * dir.x, near.y + next * dir.y}) >
        eps * eps) {
      return t;
    }
    t = next;
  }
}

TEST(FusedDenseRuns, RunPairJoinedOnlyPastTheFirstResidents) {
  // Runs in adjacent cells (sub-cell 3 of cells (1, 1) and (2, 1)) and
  // two runs of one cell (its sub-cells 0 and 3, across the diagonal).
  // Their one pair within eps joins neither run's first resident, so a
  // search from the first resident's own point alone misses it; one float
  // step further apart, they are two clusters.
  struct Layout {
    const char* name;
    Point2 near;
    Point2 dir;
  };
  const Layout layouts[] = {
      {"adjacent cells", {1.7f, 1.75f}, {1.0f, 0.0f}},
      {"one cell, sub-cells 0 and 3", {1.2f, 1.2f},
       {0.70710677f, 0.70710677f}},
  };
  constexpr float eps = 1.0f;
  for (const Layout& l : layouts) {
    SCOPED_TRACE(l.name);
    const float inside = last_step_within(l.near, l.dir, eps);
    for (const bool apart : {false, true}) {
      SCOPED_TRACE(apart ? "one step beyond eps" : "last step within eps");
      const std::vector<Point2> points = two_runs_one_pair(
          l.near, l.dir, apart ? std::nextafter(inside, 2.0f) : inside);
      for (const int minpts : {4, 16}) {
        SCOPED_TRACE("minpts " + std::to_string(minpts));
        EXPECT_GT(expect_dense_runs_exact(points, eps, minpts), 0u);
        EXPECT_EQ(union_find_clustering(points, eps, minpts).num_clusters,
                  apart ? 2 : 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3-D through the one front door: fused == the banded pass; batch agrees
// on counts
// ---------------------------------------------------------------------------

std::vector<Point3> random_points3(std::size_t n, std::uint64_t seed,
                                   float extent) {
  Xoshiro256 rng(seed);
  std::vector<Point3> points(n);
  for (Point3& p : points) {
    p = {rng.uniform(0.0f, extent), rng.uniform(0.0f, extent),
         rng.uniform(0.0f, extent)};
  }
  return points;
}

TEST(FusedDbscan3, MatchesBatchAcrossScanModes) {
  const auto points = random_points3(2000, 75, 5.0f);
  cudasim::Device batch_dev({}, fast_options());
  const ClusterResult batch = hybrid_dbscan(batch_dev, points, 0.4f, 4);
  const std::vector<std::int32_t> want = union_find_labels3(points, 0.4f, 4);
  for (const ScanMode scan : {ScanMode::kHalf, ScanMode::kFull}) {
    SCOPED_TRACE(scan == ScanMode::kHalf ? "kHalf" : "kFull");
    cudasim::Device dev({}, fast_options());
    BatchPolicy policy;
    policy.scan_mode = scan;
    HybridTimings timings;
    const ClusterResult fused = hybrid_dbscan(dev, points, 0.4f, 4, &timings,
                                              policy, ClusterMode::kFused);
    const BuildReport& report = timings.build_report;
    EXPECT_EQ(fused.labels, want);
    EXPECT_EQ(fused.num_clusters, batch.num_clusters);
    EXPECT_EQ(fused.noise_count(), batch.noise_count());
    EXPECT_TRUE(report.fused);
    EXPECT_EQ(report.scan_mode, scan);
    EXPECT_GT(report.capped_points, 0u);
    EXPECT_GT(report.kernel_flops, 0u);
    EXPECT_EQ(report.dense_runs, 0u);  // sub-cells are 2-D only
    // Nothing to transpose or ship: no forward rows ever became a table.
    EXPECT_EQ(report.expand_seconds, 0.0);
    EXPECT_EQ(report.d2h_bytes, 0u);
  }
}

TEST(FusedDbscan3, DenseClumpsAndMinptsSweep) {
  // Two tight clumps plus noise; sweep minpts so the core threshold moves
  // through the clump sizes.
  Xoshiro256 rng(76);
  std::vector<Point3> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back({1.0f + rng.uniform(0.0f, 0.2f),
                      1.0f + rng.uniform(0.0f, 0.2f),
                      1.0f + rng.uniform(0.0f, 0.2f)});
    points.push_back({4.0f + rng.uniform(0.0f, 0.2f),
                      4.0f + rng.uniform(0.0f, 0.2f),
                      4.0f + rng.uniform(0.0f, 0.2f)});
  }
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.uniform(0.0f, 5.0f), rng.uniform(0.0f, 5.0f),
                      rng.uniform(0.0f, 5.0f)});
  }
  for (const int minpts : {2, 8, 64}) {
    SCOPED_TRACE("minpts " + std::to_string(minpts));
    cudasim::Device batch_dev({}, fast_options());
    const ClusterResult batch = hybrid_dbscan(batch_dev, points, 0.3f, minpts);
    cudasim::Device dev({}, fast_options());
    const ClusterResult fused = hybrid_dbscan(dev, points, 0.3f, minpts,
                                              nullptr, {}, ClusterMode::kFused);
    EXPECT_EQ(fused.labels, union_find_labels3(points, 0.3f, minpts));
    EXPECT_EQ(fused.num_clusters, batch.num_clusters);
    EXPECT_EQ(fused.noise_count(), batch.noise_count());
  }
}

// ---------------------------------------------------------------------------
// Degradation ladder: failover, host fallback, randomized chaos
// ---------------------------------------------------------------------------

struct Scenario {
  std::vector<Point2> points;
  GridIndex index;
  NeighborTable oracle;  ///< full table, index point order
  std::vector<std::int32_t> want;  ///< banded-pass labels, index order
  FusedDegrees contract;           ///< what the fused passes leave
  float eps = 0.0f;
  int minpts = 4;
};

Scenario make_scenario(std::size_t n, float eps, int minpts,
                       std::uint64_t seed) {
  Scenario s;
  s.eps = eps;
  s.minpts = minpts;
  s.points = data::generate_space_weather(
      n, seed, {.width = 10.0f, .height = 10.0f});
  s.index = build_grid_index(s.points, eps);
  s.oracle = build_neighbor_table_host(s.index, eps);
  s.want = dbscan_parallel(s.oracle, minpts).labels;
  s.contract = expected_fused_degrees(s.oracle, minpts);
  return s;
}

/// Every degree follows the capped contract on the oracle table: a
/// dropped, doubled or uncapped degree fails here.
void expect_contract_degrees(const Scenario& s,
                             const StreamingDbscan& consumer) {
  for (PointId i = 0; i < s.index.size(); ++i) {
    ASSERT_EQ(consumer.degree(i), s.contract.degree[i])
        << "degree mismatch at point " << i << " (exact degree "
        << s.oracle.neighbor_count(i) << ")";
  }
}

/// The contract's degrees, and the banded pass's labels.
void expect_exact(const Scenario& s, StreamingDbscan& consumer) {
  expect_contract_degrees(s, consumer);
  EXPECT_EQ(consumer.finalize().labels, s.want);
}

TEST(FusedDbscan, LabelsEqualBandedPassOverOracleTable) {
  // One banded pass over the oracle table answers the whole minpts list;
  // a fused clustering per value gives the same label vector: the two
  // share one border rule and one cluster numbering.
  const Scenario s = make_scenario(2500, 0.35f, 4, 78);
  const std::vector<int> minpts{64, 2, 16, 4};
  const std::vector<ClusterResult> banded =
      dbscan_parallel(s.oracle, minpts, 2);
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    SCOPED_TRACE("minpts " + std::to_string(minpts[i]));
    cudasim::Device dev({}, fast_options());
    StreamingDbscan consumer(s.index.size(), minpts[i]);
    (void)fused_cluster(dev, s.index, s.eps, consumer);
    const ClusterResult fused = consumer.finalize();
    EXPECT_EQ(fused.labels, banded[i].labels);
    EXPECT_EQ(fused.num_clusters, banded[i].num_clusters);
  }
}

// Counted fields repeat exactly: the same input, policy and fault plan
// give the same counters, modeled seconds and labels, run after run.
struct FusedRun {
  BuildReport report;
  std::vector<std::int32_t> labels;
};

FusedRun run_fused(const Scenario& s, unsigned num_devices,
                   const BatchPolicy& policy,
                   const cudasim::FaultPlan& plan = {}) {
  Fleet fleet;
  fleet.add(faulted_options(plan));
  for (unsigned d = 1; d < num_devices; ++d) fleet.add(fast_options());
  StreamingDbscan consumer(s.index.size(), s.minpts);
  FusedRun run;
  run.report = fused_cluster(fleet.ptrs, s.index, s.eps, consumer, policy);
  run.labels = consumer.finalize().labels;
  return run;
}

/// The counted fields of two runs of the same work: equal whichever lane
/// or executor ran each batch.
void expect_counts_repeat(const FusedRun& a, const FusedRun& b) {
  EXPECT_EQ(a.report.batches_run, b.report.batches_run);
  EXPECT_EQ(a.report.capped_points, b.report.capped_points);
  EXPECT_EQ(a.report.recounted_points, b.report.recounted_points);
  EXPECT_EQ(a.report.dense_runs, b.report.dense_runs);
  EXPECT_EQ(a.report.atomic_ops, b.report.atomic_ops);
  EXPECT_EQ(a.report.d2h_bytes, b.report.d2h_bytes);
  EXPECT_EQ(a.report.kernel_flops, b.report.kernel_flops);
  EXPECT_EQ(a.report.kernel_global_bytes, b.report.kernel_global_bytes);
  EXPECT_EQ(a.labels, b.labels);
}

void expect_repeats(const FusedRun& a, const FusedRun& b) {
  expect_counts_repeat(a, b);
  EXPECT_EQ(a.report.transient_retries, b.report.transient_retries);
  // Bit-equal: sums of counted terms, added in the same order.
  EXPECT_EQ(a.report.kernel_modeled_seconds, b.report.kernel_modeled_seconds);
  EXPECT_EQ(a.report.modeled_table_seconds, b.report.modeled_table_seconds);
}

TEST(FusedDeterminism, CountedFieldsRepeatExactly) {
  // fused_smoke's input: 6000 skewed points, eps 0.35, minpts 4.
  const Scenario s = make_scenario(6000, 0.35f, 4, 21);
  ASSERT_GT(s.contract.recounted_points, 0u);  // every pass has work
  for (const ScanMode scan : {ScanMode::kHalf, ScanMode::kFull}) {
    for (const unsigned devices : {1u, 2u}) {
      SCOPED_TRACE(std::string(scan == ScanMode::kHalf ? "kHalf, "
                                                       : "kFull, ") +
                   std::to_string(devices) + " device(s)");
      BatchPolicy policy;
      policy.scan_mode = scan;
      const FusedRun first = run_fused(s, devices, policy);
      expect_repeats(first, run_fused(s, devices, policy));
      EXPECT_EQ(first.report.capped_points, s.contract.capped_points);
      EXPECT_EQ(first.report.recounted_points,
                s.contract.recounted_points);
      EXPECT_EQ(first.report.total_pairs, 0u);  // capped: not a pair count
      EXPECT_EQ(first.report.d2h_bytes, 0u);
      EXPECT_EQ(first.labels, s.want);
    }
  }
  // A scripted transient fault in each pass. One lane (one device, one
  // stream) runs a pass's batches in order and re-queues a faulted one
  // behind the rest, so with one fault a pass takes kBatchesPerLane + 1
  // launches; that fixes which batch each launch ordinal hits, and so the
  // order in which the lane adds up its modeled seconds. Pass p faults
  // its batch p % 2.
  cudasim::FaultPlan transient;
  for (unsigned pass = 0; pass < kFusedPasses; ++pass) {
    transient.transient_launches.push_back(
        pass * (kBatchesPerLane + 1) + 1 + pass % 2);
  }
  BatchPolicy policy;
  policy.num_streams = 1;
  const FusedRun first = run_fused(s, 1, policy, transient);
  EXPECT_EQ(first.report.transient_retries, kFusedPasses);
  EXPECT_EQ(first.report.batches_run, kFusedPasses * kBatchesPerLane);
  expect_repeats(first, run_fused(s, 1, policy, transient));
  // The faults changed nothing: the counts of a clean one-lane run.
  expect_counts_repeat(first, run_fused(s, 1, policy));
  EXPECT_EQ(first.report.recounted_points, s.contract.recounted_points);
  EXPECT_EQ(first.labels, s.want);
}

// Metrics: a fused build publishes its own counters and none of the
// row-delivery series of the retired streaming mode.
TEST(FusedMetrics, PublishesFusedCountersAndNoRowDeliverySeries) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset_values();
  const Scenario s = make_scenario(1500, 0.35f, 4, 81);
  const FusedRun run = run_fused(s, 1, BatchPolicy{});
  EXPECT_EQ(run.labels, s.want);
  EXPECT_EQ(reg.counter("build_capped_points").value(),
            s.contract.capped_points);
  const std::string text = reg.text();
  EXPECT_NE(text.find("build_capped_points"), std::string::npos);
  // build_sink_ covers the row, count and consume-time series.
  for (const char* retired :
       {"build_streamed_builds", "build_sink_", "stream_overlap_fraction",
        "stream_streamed_fraction"}) {
    EXPECT_EQ(text.find(retired), std::string::npos) << retired;
  }
}

/// Device ops of a fused run's index upload, one allocation and one
/// transfer per buffer: the grid's points, cells and schedule plus its
/// sub-cell order and bounds (10). Each fused batch is one launch after
/// that.
std::uint64_t fused_upload_ops(const Scenario& s) {
  EXPECT_FALSE(build_sub_cells(s.index).order.empty());
  return 10;
}

/// The device op of one device's `launch`-th launch (from 1) in fused
/// pass `pass` (0 = core ... 3 = union), when no fault came first and
/// every pass runs: the upload, then kBatchesPerLane launches per lane of
/// the device for each earlier pass.
std::uint64_t fused_launch_op(const Scenario& s, const BatchPolicy& policy,
                              unsigned pass, unsigned launch) {
  return fused_upload_ops(s) +
         std::uint64_t{pass} * kBatchesPerLane * policy.num_streams + launch;
}

TEST(FusedChaos, DeviceLossFailsOverToSurvivorExactly) {
  const Scenario s = make_scenario(2500, 0.35f, 4, 77);
  cudasim::FaultPlan lost;
  // That device's third core-pass batch: a loss mid-traversal with work
  // left to orphan in every pass.
  const BatchPolicy policy;
  lost.lost_at_op = fused_launch_op(s, policy, 0, 3);
  Fleet fleet;
  fleet.add(fast_options());
  fleet.add(faulted_options(lost));

  StreamingDbscan consumer(s.index.size(), s.minpts);
  const BuildReport report =
      fused_cluster(fleet.ptrs, s.index, s.eps, consumer, policy);

  EXPECT_EQ(report.devices_lost, 1u);
  EXPECT_GT(report.failover_batches, 0u);
  EXPECT_FALSE(report.used_host_fallback);
  EXPECT_FALSE(report.table_materialized);
  expect_exact(s, consumer);

  // The survivor returned every pooled buffer.
  for (const auto& dev : fleet.owned) {
    if (dev->lost()) continue;
    dev->pool().trim();
    EXPECT_EQ(dev->used_global_bytes(), 0u);
  }
}

TEST(FusedChaos, TotalFleetLossCompletesOnHostExactly) {
  // The host rung must fall back under the devices' pair-ownership rule,
  // the grid's forward stencil — it runs the fused body over the same
  // index — or the degree parity check below catches the double-counted
  // cross pairs.
  const Scenario s = make_scenario(1500, 0.35f, 4, 78);
  BatchPolicy policy;
  policy.resilience.host_fallback = true;
  cudasim::FaultPlan lost;
  // The second core-pass launch of the only device.
  lost.lost_at_op = fused_launch_op(s, policy, 0, 2);
  Fleet fleet;
  fleet.add(faulted_options(lost));

  StreamingDbscan consumer(s.index.size(), s.minpts);
  const BuildReport report =
      fused_cluster(fleet.ptrs, s.index, s.eps, consumer, policy);

  EXPECT_TRUE(report.used_host_fallback);
  EXPECT_GT(report.host_fallback_batches, 0u);
  EXPECT_EQ(report.devices_lost, 1u);
  expect_exact(s, consumer);
}

TEST(FusedChaos, DeviceLostBetweenPassesFailsOver) {
  // The second device dies at its first launch of the mark, recount or
  // union pass, having finished the pass before: the pass's batches fail
  // over to the survivor, and the run counts exactly what a healthy
  // two-device run counts.
  const Scenario s = make_scenario(2500, 0.35f, 4, 77);
  ASSERT_GT(s.contract.recounted_points, 0u);  // every pass has work
  const BatchPolicy policy;
  Fleet healthy_fleet;
  healthy_fleet.add(fast_options());
  healthy_fleet.add(fast_options());
  FusedRun healthy;
  {
    StreamingDbscan consumer(s.index.size(), s.minpts);
    healthy.report =
        fused_cluster(healthy_fleet.ptrs, s.index, s.eps, consumer, policy);
    healthy.labels = consumer.finalize().labels;
  }
  for (unsigned pass = 1; pass < kFusedPasses; ++pass) {
    SCOPED_TRACE("lost before pass " + std::to_string(pass));
    cudasim::FaultPlan lost;
    lost.lost_at_op = fused_launch_op(s, policy, pass, 1);
    Fleet fleet;
    fleet.add(fast_options());
    fleet.add(faulted_options(lost));
    StreamingDbscan consumer(s.index.size(), s.minpts);
    FusedRun run;
    run.report = fused_cluster(fleet.ptrs, s.index, s.eps, consumer, policy);
    EXPECT_EQ(run.report.devices_lost, 1u);
    EXPECT_GT(run.report.failover_batches, 0u);
    EXPECT_FALSE(run.report.used_host_fallback);
    expect_contract_degrees(s, consumer);
    run.labels = consumer.finalize().labels;
    EXPECT_EQ(run.labels, s.want);
    expect_counts_repeat(run, healthy);
  }
}

TEST(FusedChaos, HostParkedEdgesAreNotChargedAsTransfers) {
  // The only device dies during the index upload, so the host runs both
  // fused passes: nothing is parked and nothing crosses PCIe, so the run
  // ships zero result bytes while the labels stay exact.
  const Scenario s = make_scenario(1500, 0.35f, 4, 80);
  cudasim::FaultPlan lost;
  lost.lost_at_op = 1;
  Fleet fleet;
  fleet.add(faulted_options(lost));

  StreamingDbscan consumer(s.index.size(), s.minpts);
  BatchPolicy policy;
  policy.resilience.host_fallback = true;
  const BuildReport report =
      fused_cluster(fleet.ptrs, s.index, s.eps, consumer, policy);

  EXPECT_TRUE(report.used_host_fallback);
  EXPECT_EQ(report.batches_run, 0u);
  EXPECT_EQ(report.d2h_bytes, 0u);
  expect_exact(s, consumer);
}

TEST(FusedChaos, TransientFaultsRetryWithinBudgetAndSurfacePastIt) {
  // One device with one stream is one lane with two strided batches per
  // pass, and a retried batch goes to the back of the lane's queue:
  // consecutive launches alternate between the two core-pass batches, so
  // faulting launches 1..2*budget faults each batch exactly `budget`
  // times. A faulted launch did no work (faults fire before any block
  // runs), so the retried build is exact; one more fault exhausts a
  // batch's budget.
  const Scenario s = make_scenario(1500, 0.35f, 4, 82);
  BatchPolicy policy;
  policy.num_streams = 1;
  const unsigned budget = policy.resilience.max_transient_retries;
  cudasim::FaultPlan within;
  for (std::uint64_t launch = 1; launch <= 2 * budget; ++launch) {
    within.transient_launches.push_back(launch);
  }
  {
    cudasim::Device dev({}, faulted_options(within));
    StreamingDbscan consumer(s.index.size(), s.minpts);
    const BuildReport report =
        fused_cluster(dev, s.index, s.eps, consumer, policy);
    EXPECT_EQ(report.plan.num_batches, 2u);
    EXPECT_EQ(report.transient_retries, 2 * budget);
    EXPECT_EQ(report.transient_retries,
              dev.metrics().injected_transient_faults);
    EXPECT_FALSE(report.used_host_fallback);
    expect_exact(s, consumer);
  }
  cudasim::FaultPlan past = within;
  past.transient_launches.push_back(2 * budget + 1);
  cudasim::Device dev({}, faulted_options(past));
  StreamingDbscan consumer(s.index.size(), s.minpts);
  EXPECT_THROW((void)fused_cluster(dev, s.index, s.eps, consumer, policy),
               cudasim::TransientKernelFault);
  dev.pool().trim();
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

TEST(FusedChaos, CancelMidBuildDrainsStreamsAndReturnsDeviceMemory) {
  // The deadline expires while the index uploads over a throttled link
  // (four transfers of at least 80 ms each), after the build's entry
  // check passed: the lanes' pumps see it at their first batch and wind
  // down, and fused_cluster rethrows only once every stream drained.
  const Scenario s = make_scenario(1500, 0.35f, 4, 81);
  cudasim::DeviceConfig slow_link;
  slow_link.pcie_latency_us = 80'000.0;
  cudasim::SimulationOptions opt = fast_options();
  opt.throttle_transfers = true;
  cudasim::Device dev(slow_link, opt);
  StreamingDbscan consumer(s.index.size(), s.minpts);
  CancelToken token;
  BatchPolicy policy;
  policy.cancel = &token;
  token.set_deadline_after(0.1);
  try {
    (void)fused_cluster(dev, s.index, s.eps, consumer, policy);
    ADD_FAILURE() << "the build finished past its deadline";
  } catch (const OperationCancelled& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
  EXPECT_GT(dev.metrics().h2d_bytes, 0u);          // the upload ran
  EXPECT_EQ(dev.metrics().kernel_launches, 0u);    // no batch did
  dev.pool().trim();
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

TEST(FusedChaos, RandomizedFaultPlansKeepLabelsExact) {
  const Scenario s = make_scenario(1500, 0.35f, 4, 79);
  for (const std::uint64_t seed : {5ull, 17ull, 42ull}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    Fleet fleet;
    for (int d = 0; d < 3; ++d) {
      fleet.add(faulted_options(
          cudasim::FaultPlan::randomized(seed + 100ull * d)));
    }
    StreamingDbscan consumer(s.index.size(), s.minpts);
    BatchPolicy policy;
    policy.resilience.host_fallback = true;  // survive total loss
    (void)fused_cluster(fleet.ptrs, s.index, s.eps, consumer, policy);
    expect_exact(s, consumer);
  }
}

}  // namespace
}  // namespace hdbscan
