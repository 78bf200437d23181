// The quality knob (DESIGN.md §16): QualitySpec's seeded per-pair
// Bernoulli sampling, the SNG-rescaled core threshold, subsampled-mode
// determinism across backends and cluster modes, and cell-graph DBSCAN's
// agreement with the exact pipelines on separable data.
#include "common/types.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/cell_graph.hpp"
#include "core/hybrid_dbscan.hpp"
#include "cudasim/device.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
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

/// Four dense clusters on a 20-unit grid pitch, ~1 unit across each: at
/// eps = 0.5 every cluster is internally dense and the gaps are > 19
/// units, so exact, subsampled, and cell-graph runs must all recover the
/// same four-way partition (rand index 1 up to stray border points).
std::vector<Point2> separated_clusters(std::size_t per_cluster) {
  const float cx[4] = {5.0f, 25.0f, 5.0f, 25.0f};
  const float cy[4] = {5.0f, 5.0f, 25.0f, 25.0f};
  std::uint64_t s = 0x9e3779b9u;
  const auto jitter = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>((s >> 33) & 0xffff) / 65536.0f;
  };
  std::vector<Point2> pts;
  pts.reserve(per_cluster * 4);
  for (int c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      pts.push_back({cx[c] + jitter(), cy[c] + jitter()});
    }
  }
  return pts;
}

// ---------------------------------------------------------------------------
// QualitySpec
// ---------------------------------------------------------------------------

TEST(QualitySpec, SelfPairsAndRateOneAlwaysKept) {
  QualitySpec exact;
  EXPECT_FALSE(exact.sampled());
  EXPECT_TRUE(exact.keep_pair(3, 99));

  QualitySpec full{ClusterQuality::kSubsampled, 1.0f, 42};
  EXPECT_FALSE(full.sampled());
  for (PointId i = 0; i < 100; ++i) EXPECT_TRUE(full.keep_pair(i, i + 1));

  QualitySpec tiny{ClusterQuality::kSubsampled, 0.01f, 42};
  EXPECT_TRUE(tiny.sampled());
  for (PointId i = 0; i < 100; ++i) EXPECT_TRUE(tiny.keep_pair(i, i));
}

TEST(QualitySpec, KeepPairIsSymmetricAndSeedDeterministic) {
  QualitySpec q{ClusterQuality::kSubsampled, 0.5f, 1234};
  QualitySpec same{ClusterQuality::kSubsampled, 0.5f, 1234};
  QualitySpec other{ClusterQuality::kSubsampled, 0.5f, 1235};
  bool any_disagreement_across_seeds = false;
  for (PointId a = 0; a < 200; ++a) {
    for (PointId b = a + 1; b < a + 20; ++b) {
      EXPECT_EQ(q.keep_pair(a, b), q.keep_pair(b, a));
      EXPECT_EQ(q.keep_pair(a, b), same.keep_pair(a, b));
      if (q.keep_pair(a, b) != other.keep_pair(a, b)) {
        any_disagreement_across_seeds = true;
      }
    }
  }
  EXPECT_TRUE(any_disagreement_across_seeds);
}

TEST(QualitySpec, KeepRateTracksSampleRate) {
  QualitySpec q{ClusterQuality::kSubsampled, 0.3f, 7};
  std::uint64_t kept = 0;
  const std::uint64_t trials = 100000;
  for (std::uint64_t i = 0; i < trials; ++i) {
    if (q.keep_pair(static_cast<PointId>(i), static_cast<PointId>(i + 1))) {
      ++kept;
    }
  }
  const double rate = static_cast<double>(kept) / static_cast<double>(trials);
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(QualitySpec, ScaledMinptsFollowsSngRescaling) {
  QualitySpec exact;
  EXPECT_EQ(exact.scaled_minpts(8), 8);
  QualitySpec half{ClusterQuality::kSubsampled, 0.5f, 0};
  EXPECT_EQ(half.scaled_minpts(8), 4);
  QualitySpec tiny{ClusterQuality::kSubsampled, 0.01f, 0};
  EXPECT_EQ(tiny.scaled_minpts(8), 1);  // floor at 1, never 0
  QualitySpec cg{ClusterQuality::kCellGraph, 0.5f, 0};
  EXPECT_EQ(cg.scaled_minpts(8), 8);  // rescaling is a sampling concept
}

// ---------------------------------------------------------------------------
// Subsampled mode, end to end
// ---------------------------------------------------------------------------

TEST(SubsampledMode, DeterministicForFixedSeedAndNearExactOnSeparatedData) {
  cudasim::Device device{cudasim::DeviceConfig{}, fast_options()};
  const auto points = separated_clusters(200);
  const float eps = 0.5f;
  const int minpts = 8;

  const ClusterResult exact = hybrid_dbscan(device, points, eps, minpts);
  ASSERT_EQ(exact.num_clusters, 4);

  BatchPolicy sampled;
  sampled.quality = {ClusterQuality::kSubsampled, 0.3f, 99};
  const ClusterResult a =
      hybrid_dbscan(device, points, eps, minpts, nullptr, sampled);
  const ClusterResult b =
      hybrid_dbscan(device, points, eps, minpts, nullptr, sampled);
  // Bit-identical labels across runs for a fixed seed: sampling is a pure
  // function of (seed, pair), independent of batching or retry history.
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_GE(rand_index(a.labels, exact.labels), 0.99);
  EXPECT_EQ(a.num_clusters, 4);
}

TEST(SubsampledMode, GridAndBvhBackendsSampleTheSamePairSet) {
  cudasim::Device device{cudasim::DeviceConfig{}, fast_options()};
  const auto points = separated_clusters(150);
  BatchPolicy grid;
  grid.quality = {ClusterQuality::kSubsampled, 0.4f, 17};
  BatchPolicy bvh = grid;
  bvh.index_backend = IndexBackend::kBvh;
  const ClusterResult g =
      hybrid_dbscan(device, points, 0.5f, 8, nullptr, grid);
  const ClusterResult t =
      hybrid_dbscan(device, points, 0.5f, 8, nullptr, bvh);
  // The Bernoulli decision hashes resident point ids, not traversal
  // order, so both backends drop exactly the same pairs.
  EXPECT_EQ(g.labels, t.labels);
}

TEST(SubsampledMode, StreamingAndFusedAgreeWithTheBatchTable) {
  cudasim::Device device{cudasim::DeviceConfig{}, fast_options()};
  const auto points = separated_clusters(150);
  BatchPolicy policy;
  policy.quality = {ClusterQuality::kSubsampled, 0.35f, 5};
  const ClusterResult batch = hybrid_dbscan(device, points, 0.5f, 8, nullptr,
                                            policy, ClusterMode::kBatchTable);
  const ClusterResult stream = hybrid_dbscan(device, points, 0.5f, 8, nullptr,
                                             policy, ClusterMode::kStreaming);
  const ClusterResult fused = hybrid_dbscan(device, points, 0.5f, 8, nullptr,
                                            policy, ClusterMode::kFused);
  EXPECT_EQ(batch.num_clusters, stream.num_clusters);
  EXPECT_EQ(batch.num_clusters, fused.num_clusters);
  EXPECT_DOUBLE_EQ(rand_index(batch.labels, stream.labels), 1.0);
  EXPECT_DOUBLE_EQ(rand_index(batch.labels, fused.labels), 1.0);
}

// ---------------------------------------------------------------------------
// Cell-graph mode
// ---------------------------------------------------------------------------

TEST(CellGraphMode, MatchesExactOnSeparatedDataAndIsDeterministic) {
  cudasim::Device device{cudasim::DeviceConfig{}, fast_options()};
  const auto points = separated_clusters(200);
  const float eps = 0.5f;
  const int minpts = 8;

  const ClusterResult exact = hybrid_dbscan(device, points, eps, minpts);
  CellGraphReport report;
  const ClusterResult a =
      cell_graph_dbscan(points, eps, minpts, device.config(), &report);
  const ClusterResult b =
      cell_graph_dbscan(points, eps, minpts, device.config());
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.num_clusters, 4);
  EXPECT_GE(rand_index(a.labels, exact.labels), 0.99);

  // Dense 1-unit clusters at side eps/sqrt(2): most points must be made
  // core wholesale, and the distance work must be far below the exact
  // pair count.
  EXPECT_GT(report.dense_points, 0u);
  EXPECT_GT(report.dense_cells, 0u);
  EXPECT_LE(report.dense_cells, report.num_cells);
  HybridTimings timings;
  hybrid_dbscan(device, points, eps, minpts, &timings);
  EXPECT_LT(report.distance_tests, timings.build_report.total_pairs);
  EXPECT_GT(report.modeled_seconds, 0.0);
}

TEST(CellGraphMode, HybridOrchestratorRoutesAndSkipsTheTable) {
  cudasim::Device device{cudasim::DeviceConfig{}, fast_options()};
  const auto points = separated_clusters(100);
  BatchPolicy policy;
  policy.quality.mode = ClusterQuality::kCellGraph;
  HybridTimings timings;
  const ClusterResult via_hybrid =
      hybrid_dbscan(device, points, 0.5f, 8, &timings, policy);
  const ClusterResult direct =
      cell_graph_dbscan(points, 0.5f, 8, device.config());
  EXPECT_EQ(via_hybrid.labels, direct.labels);
  EXPECT_FALSE(timings.build_report.table_materialized);
  EXPECT_GT(timings.modeled_total_seconds, 0.0);
}

TEST(CellGraphMode, FusedModeIsRejected) {
  cudasim::Device device{cudasim::DeviceConfig{}, fast_options()};
  const auto points = separated_clusters(50);
  BatchPolicy policy;
  policy.quality.mode = ClusterQuality::kCellGraph;
  EXPECT_THROW(hybrid_dbscan(device, points, 0.5f, 8, nullptr, policy,
                             ClusterMode::kFused),
               std::invalid_argument);
}

TEST(CellGraphMode, ValidatesInputsAndHandlesEmpty) {
  cudasim::DeviceConfig config;
  const ClusterResult empty =
      cell_graph_dbscan(std::vector<Point2>{}, 0.5f, 4, config);
  EXPECT_EQ(empty.num_clusters, 0);
  EXPECT_TRUE(empty.labels.empty());
  const std::vector<Point2> one{{0.0f, 0.0f}};
  EXPECT_THROW(cell_graph_dbscan(one, 0.0f, 4, config),
               std::invalid_argument);
  EXPECT_THROW(cell_graph_dbscan(one, 0.5f, 0, config),
               std::invalid_argument);
}

// Wide extents: cell coordinates are packed into 21-bit key fields (22 on
// z). An extent that needs more cells per axis used to wrap far cells onto
// near ones and merge them; it is now rejected. A count that fits exactly
// is served, and stencil cells past either end are skipped instead of
// wrapping through the field masks onto the other end.
TEST(CellGraphMode, RejectsExtentsPastTheKeyField2d) {
  const cudasim::DeviceConfig config;
  // The far pair's cell index is 2^21 at eps 1 (side 1/sqrt(2)).
  const std::vector<Point2> wrap{{0.1f, 0.1f},
                                 {0.2f, 0.1f},
                                 {1482910.875f, 0.1f},
                                 {1482911.0f, 0.1f}};
  EXPECT_THROW((void)cell_graph_dbscan(wrap, 1.0f, 4, config),
               std::invalid_argument);
  // About 4.2e9 cells: past the field and past int32.
  const std::vector<Point2> huge{{0.0f, 0.0f}, {3e9f, 0.0f}};
  EXPECT_THROW((void)cell_graph_dbscan(huge, 1.0f, 2, config),
               std::invalid_argument);
  const std::vector<Point2> tall{{0.0f, 0.0f}, {0.0f, 3e9f}};
  EXPECT_THROW((void)cell_graph_dbscan(tall, 1.0f, 2, config),
               std::invalid_argument);
  const std::vector<Point2> infinite{{-3e38f, 0.0f}, {3e38f, 0.0f}};
  EXPECT_THROW((void)cell_graph_dbscan(infinite, 1.0f, 2, config),
               std::invalid_argument);
}

TEST(CellGraphMode, RejectsExtentsPastTheKeyField3d) {
  const cudasim::DeviceConfig config;
  // The far pair's x cell index is 2^21 at eps 1 (side 1/sqrt(3)).
  const std::vector<Point3> wrap{{0.1f, 0.1f, 0.1f},
                                 {0.2f, 0.1f, 0.1f},
                                 {1210791.75f, 0.1f, 0.1f},
                                 {1210791.875f, 0.1f, 0.1f}};
  EXPECT_THROW((void)cell_graph_dbscan3(wrap, 1.0f, 4, config),
               std::invalid_argument);
  const std::vector<Point3> huge{{0.0f, 0.0f, 0.0f}, {3e9f, 0.0f, 0.0f}};
  EXPECT_THROW((void)cell_graph_dbscan3(huge, 1.0f, 2, config),
               std::invalid_argument);
  const std::vector<Point3> deep{{0.0f, 0.0f, 0.0f}, {0.0f, 0.0f, 3e9f}};
  EXPECT_THROW((void)cell_graph_dbscan3(deep, 1.0f, 2, config),
               std::invalid_argument);
}

TEST(CellGraphMode, ServesAnExtentThatFillsTheKeyField) {
  const cudasim::DeviceConfig config;
  // The far pair sits in x cell 2^21 - 1, the last one the field holds.
  const std::vector<Point2> edge2{{0.1f, 0.1f},
                                  {0.2f, 0.1f},
                                  {1482910.0f, 0.1f},
                                  {1482910.375f, 0.1f}};
  const std::vector<Point3> edge3{{0.1f, 0.1f, 0.1f},
                                  {0.2f, 0.1f, 0.1f},
                                  {1210790.875f, 0.1f, 0.1f},
                                  {1210791.0f, 0.1f, 0.1f}};
  CellGraphReport r2;
  CellGraphReport r3;
  const ClusterResult noise2 = cell_graph_dbscan(edge2, 1.0f, 4, config, &r2);
  const ClusterResult noise3 =
      cell_graph_dbscan3(edge3, 1.0f, 4, config, &r3);
  EXPECT_EQ(noise2.noise_count(), 4u);
  EXPECT_EQ(noise3.noise_count(), 4u);
  // Two cells of two points, each testing only its own residents: no
  // stencil cell wrapped onto the other end of the axis.
  EXPECT_EQ(r2.num_cells, 2u);
  EXPECT_EQ(r2.distance_tests, 8u);
  EXPECT_EQ(r3.num_cells, 2u);
  EXPECT_EQ(r3.distance_tests, 8u);
  const ClusterResult pairs2 = cell_graph_dbscan(edge2, 1.0f, 2, config);
  const ClusterResult pairs3 = cell_graph_dbscan3(edge3, 1.0f, 2, config);
  for (const ClusterResult* r : {&pairs2, &pairs3}) {
    EXPECT_EQ(r->num_clusters, 2);
    EXPECT_EQ(r->labels[0], r->labels[1]);
    EXPECT_EQ(r->labels[2], r->labels[3]);
    EXPECT_NE(r->labels[0], r->labels[2]);
  }
}

TEST(CellGraphMode, RecoversSeparated3dClusters) {
  std::vector<Point3> pts;
  std::uint64_t s = 77;
  const auto jitter = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>((s >> 33) & 0xffff) / 65536.0f;
  };
  for (int c = 0; c < 2; ++c) {
    const float base = static_cast<float>(c) * 30.0f;
    for (int i = 0; i < 200; ++i) {
      pts.push_back({base + jitter(), base + jitter(), base + jitter()});
    }
  }
  CellGraphReport report;
  const ClusterResult r =
      cell_graph_dbscan3(pts, 0.6f, 8, cudasim::DeviceConfig{}, &report);
  EXPECT_EQ(r.num_clusters, 2);
  EXPECT_EQ(r.noise_count(), 0u);
  // The two generating clusters never mix.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(r.labels[i], r.labels[0]);
    EXPECT_EQ(r.labels[200 + i], r.labels[200]);
  }
  EXPECT_NE(r.labels[0], r.labels[200]);
  EXPECT_GT(report.dense_points, 0u);
}

}  // namespace
}  // namespace hdbscan
