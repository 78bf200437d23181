// The banded union-find pass (dbscan_parallel): every minpts of a list
// from one walk of T. Each result is checked against paper Alg. 4's BFS
// (dbscan_neighbor_table) and DBSCAN's definition, on skewed and uniform
// inputs, the S3 minpts list and adversarial inputs; results are
// independent of the list they ride in and of the worker count; the
// border rule (largest-degree core neighbor, ties to the smaller id) is
// pinned on a hand-built table; and the reuse sweep returns the pass's
// labels in input order.
#include "dbscan/dbscan_parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/neighbor_table_builder.hpp"
#include "core/reuse.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

/// The paper's S3 minpts list for the SW datasets (Table V).
const std::vector<int> kS3Minpts = {10,  20,  30,  40,  50,   60,   70,   80,
                                    90,  100, 200, 400, 800,  1000, 2000, 3000};

std::vector<Point2> make_points(int family, std::size_t n, float side) {
  return family == 0 ? data::generate_uniform(n, 91, side, side)
                     : data::generate_space_weather(
                           n, 92, {.width = side, .height = side});
}

NeighborTable host_table(std::span<const Point2> points, float eps) {
  return build_neighbor_table_host(build_grid_index(points, eps), eps);
}

/// A symmetric table from an adjacency list (self pairs added).
NeighborTable table_from(const std::vector<std::vector<PointId>>& adjacency) {
  NeighborTable table(adjacency.size());
  std::vector<NeighborPair> pairs;
  for (PointId p = 0; p < adjacency.size(); ++p) {
    std::vector<PointId> row = adjacency[p];
    row.push_back(p);
    std::sort(row.begin(), row.end());
    for (const PointId q : row) pairs.push_back({p, q});
  }
  table.append_sorted_batch(pairs);
  return table;
}

void expect_valid_dbscan(const NeighborTable& table,
                         std::span<const int> minpts,
                         const std::vector<ClusterResult>& results) {
  ASSERT_EQ(results.size(), minpts.size());
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    SCOPED_TRACE("minpts " + std::to_string(minpts[i]));
    const ClusterResult bfs = dbscan_neighbor_table(table, minpts[i]);
    const auto same = compare_clusterings(bfs, results[i], table, minpts[i]);
    EXPECT_TRUE(same.equivalent) << same.diagnostic;
    const auto valid = validate_dbscan_result(results[i], table, minpts[i]);
    EXPECT_TRUE(valid.equivalent) << valid.diagnostic;
    EXPECT_EQ(results[i].num_clusters, bfs.num_clusters);
    EXPECT_EQ(results[i].noise_count(), bfs.noise_count());
  }
}

class BandedPassS3 : public ::testing::TestWithParam<std::tuple<int, float>> {
};

TEST_P(BandedPassS3, EveryValueMatchesAlg4AndDbscanDefinition) {
  const auto [family, eps] = GetParam();
  const auto points = make_points(family, 3000, 5.0f);
  const NeighborTable table = host_table(points, eps);
  expect_valid_dbscan(table, kS3Minpts, dbscan_parallel(table, kS3Minpts, 4));
}

INSTANTIATE_TEST_SUITE_P(SkewedAndUniform, BandedPassS3,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0.3f, 0.6f)));

TEST(BandedPass, EachResultEqualsTheOneValueCall) {
  const auto points = make_points(1, 3000, 5.0f);
  const NeighborTable table = host_table(points, 0.5f);
  const std::vector<ClusterResult> banded =
      dbscan_parallel(table, kS3Minpts, 3);
  for (std::size_t i = 0; i < kS3Minpts.size(); ++i) {
    const ClusterResult alone = dbscan_parallel(table, kS3Minpts[i], 3);
    EXPECT_EQ(banded[i].labels, alone.labels) << "minpts " << kS3Minpts[i];
    EXPECT_EQ(banded[i].num_clusters, alone.num_clusters);
  }
}

TEST(BandedPass, IdenticalLabelsForAnyWorkerCount) {
  const auto points = make_points(1, 4000, 5.0f);
  const NeighborTable table = host_table(points, 0.6f);
  const std::vector<int> minpts{4, 8, 30, 100, 400};
  const std::vector<ClusterResult> one = dbscan_parallel(table, minpts, 1);
  for (const unsigned workers : {2u, 3u, 8u}) {
    const std::vector<ClusterResult> many =
        dbscan_parallel(table, minpts, workers);
    for (std::size_t i = 0; i < minpts.size(); ++i) {
      EXPECT_EQ(one[i].labels, many[i].labels)
          << workers << " workers, minpts " << minpts[i];
      EXPECT_EQ(one[i].num_clusters, many[i].num_clusters);
    }
  }
}

TEST(BandedPass, UnsortedListWithRepeats) {
  const auto points = make_points(0, 1500, 4.0f);
  const NeighborTable table = host_table(points, 0.3f);
  const std::vector<int> minpts{8, 2, 8, 1, 300};
  const std::vector<ClusterResult> results = dbscan_parallel(table, minpts, 2);
  expect_valid_dbscan(table, minpts, results);
  EXPECT_EQ(results[0].labels, results[2].labels);
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    EXPECT_EQ(results[i].labels, dbscan_parallel(table, minpts[i]).labels)
        << "minpts " << minpts[i];
  }
  // minpts 1: every point is core.
  EXPECT_EQ(results[3].noise_count(), 0u);
  // minpts 300 is past every degree here: every point is noise.
  EXPECT_EQ(results[4].num_clusters, 0);
  EXPECT_EQ(results[4].noise_count(), points.size());
}

TEST(BandedPass, TinyInputs) {
  const std::vector<int> minpts{1, 2, 3};
  // n = 0.
  for (const ClusterResult& r : dbscan_parallel(NeighborTable(0), minpts)) {
    EXPECT_TRUE(r.labels.empty());
    EXPECT_EQ(r.num_clusters, 0);
  }
  // n = 1: core at minpts 1 only.
  {
    const NeighborTable table = table_from({{}});
    const auto r = dbscan_parallel(table, minpts);
    expect_valid_dbscan(table, minpts, r);
    EXPECT_EQ(r[0].labels, (std::vector<std::int32_t>{0}));
    EXPECT_EQ(r[1].labels, (std::vector<std::int32_t>{kNoise}));
  }
  // n = 2, neighbors: one cluster up to minpts 2.
  {
    const NeighborTable table = table_from({{1}, {0}});
    const auto r = dbscan_parallel(table, minpts);
    expect_valid_dbscan(table, minpts, r);
    EXPECT_EQ(r[1].labels, (std::vector<std::int32_t>{0, 0}));
    EXPECT_EQ(r[2].labels, (std::vector<std::int32_t>{kNoise, kNoise}));
  }
  // n = 2, apart: two clusters at minpts 1, noise above.
  {
    const NeighborTable table = table_from({{}, {}});
    const auto r = dbscan_parallel(table, minpts);
    expect_valid_dbscan(table, minpts, r);
    EXPECT_EQ(r[0].labels, (std::vector<std::int32_t>{0, 1}));
    EXPECT_EQ(r[1].noise_count(), 2u);
  }
}

TEST(BandedPass, DuplicatePoints) {
  std::vector<Point2> points(200, Point2{1.0f, 1.0f});
  const auto strays = make_points(0, 300, 4.0f);
  points.insert(points.end(), strays.begin(), strays.end());
  points.insert(points.end(), 50, Point2{3.0f, 3.0f});
  const NeighborTable table = host_table(points, 0.25f);
  const std::vector<int> minpts{1, 2, 5, 50, 60, 199, 200, 201, 1000};
  expect_valid_dbscan(table, minpts, dbscan_parallel(table, minpts, 4));
}

TEST(BandedPass, BorderJoinsLargestDegreeCoreTiesToSmallerId) {
  // Cores A = {1, 2, 3, 8, 11} and B = {4, 5, 6, 7, 9} are 5-cliques.
  // Border 0 touches 1 (degree 6) and 4 (degree 7, it also reaches 12):
  // it joins B, though A has the smaller root and Alg. 4's BFS reaches
  // it from A first. Border 10 touches 8 and 6, both of degree 6: the
  // tie goes to the smaller id, 6, so it joins B too. 12 hangs off 4;
  // 13 is alone.
  std::vector<std::vector<PointId>> adj(14);
  const auto link = [&](PointId a, PointId b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  for (const auto& clique : {std::vector<PointId>{1, 2, 3, 8, 11},
                             std::vector<PointId>{4, 5, 6, 7, 9}}) {
    for (std::size_t a = 0; a < clique.size(); ++a) {
      for (std::size_t b = a + 1; b < clique.size(); ++b) {
        link(clique[a], clique[b]);
      }
    }
  }
  link(0, 1);
  link(0, 4);
  link(10, 8);
  link(10, 6);
  link(4, 12);
  const NeighborTable table = table_from(adj);
  ASSERT_EQ(table.neighbor_count(1), 6u);
  ASSERT_EQ(table.neighbor_count(4), 7u);
  ASSERT_EQ(table.neighbor_count(6), table.neighbor_count(8));

  const std::vector<int> minpts{4, 3};
  const std::vector<ClusterResult> r = dbscan_parallel(table, minpts, 2);
  expect_valid_dbscan(table, minpts, r);
  // minpts 4: A is cluster 0 (root 1), B is cluster 1 (root 4).
  const std::vector<std::int32_t> want{1, 0, 0, 0, 1, 1, 1, 1, 0, 1,
                                       1, 0, 1, kNoise};
  EXPECT_EQ(r[0].labels, want);
  EXPECT_EQ(r[0].num_clusters, 2);
  EXPECT_EQ(dbscan_neighbor_table(table, 4).labels[0], 0);  // BFS: A
  // minpts 3: 0 and 10 turn core and join A and B into one cluster.
  EXPECT_EQ(r[1].num_clusters, 1);
  EXPECT_EQ(r[1].noise_count(), 1u);
}

TEST(BandedPass, RejectsInvalidMinpts) {
  const NeighborTable table = host_table(make_points(0, 100, 4.0f), 0.3f);
  EXPECT_THROW((void)dbscan_parallel(table, 0), std::invalid_argument);
  const std::vector<int> one_bad{4, 0, 8};
  EXPECT_THROW((void)dbscan_parallel(table, one_bad), std::invalid_argument);
}

TEST(BandedPass, WritesLabelsAtOutputIdsAndFillsSeconds) {
  const auto points = make_points(1, 2000, 5.0f);
  const GridIndex index = build_grid_index(points, 0.4f);
  const NeighborTable table = build_neighbor_table_host(index, 0.4f);
  const std::vector<int> minpts{4, 16, 16, 64};
  std::vector<double> seconds(minpts.size(), 0.0);
  const std::vector<ClusterResult> mapped =
      dbscan_parallel(table, minpts, 2, index.original_ids, seconds);
  const std::vector<ClusterResult> indexed = dbscan_parallel(table, minpts, 2);
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    EXPECT_EQ(mapped[i].num_clusters, indexed[i].num_clusters);
    for (PointId p = 0; p < index.size(); ++p) {
      ASSERT_EQ(mapped[i].labels[index.original_ids[p]], indexed[i].labels[p]);
    }
    EXPECT_GT(seconds[i], 0.0);
  }
}

TEST(BandedPass, ReuseSweepReturnsThePassOverTheBuildersTable) {
  const auto points = make_points(1, 3000, 8.0f);
  const float eps = 0.4f;
  const std::vector<int> minpts{30, 4, 100, 8};
  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  opt.executor_threads = 2;
  cudasim::Device dev({}, opt);
  std::vector<ClusterResult> swept;
  (void)cluster_minpts_sweep(dev, points, eps, minpts, 2, {}, &swept);

  const GridIndex index = build_grid_index(points, eps);
  NeighborTableBuilder builder(dev, {});
  const NeighborTable table = builder.build(index, eps);
  const std::vector<ClusterResult> want =
      dbscan_parallel(table, minpts, 1, index.original_ids);
  ASSERT_EQ(swept.size(), minpts.size());
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    EXPECT_EQ(swept[i].labels, want[i].labels) << "minpts " << minpts[i];
    EXPECT_EQ(swept[i].num_clusters, want[i].num_clusters);
  }
}

}  // namespace
}  // namespace hdbscan
