// The quality knob (DESIGN.md §16): cell-graph DBSCAN's routing through
// hybrid_dbscan, its agreement with the exact pipelines on separable data
// and with a brute-force reference of its own definition on adversarial
// inputs.
#include "common/types.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/cell_graph.hpp"
#include "core/hybrid_dbscan.hpp"
#include "cudasim/device.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/union_find.hpp"
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
/// units, so exact and cell-graph runs must both recover the same
/// four-way partition (rand index 1 up to stray border points).
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

// The dense share is what the clustering's report counts, with no
// clustering: the points in eps/sqrt(2) cells of minpts or more residents.
TEST(CellGraphMode, DenseShareIsTheReportsDensePoints) {
  const cudasim::DeviceConfig config;
  const std::vector<Point2> points =
      data::generate_uniform(3000, 11, 20.0f, 20.0f);
  for (const float eps : {0.2f, 0.5f, 1.0f, 2.0f}) {
    for (const int minpts : {1, 4, 8, 30}) {
      SCOPED_TRACE(::testing::Message() << "eps " << eps << " minpts "
                                        << minpts);
      CellGraphReport report;
      (void)cell_graph_dbscan(points, eps, minpts, config, &report);
      EXPECT_DOUBLE_EQ(cell_graph_dense_share(points, eps, minpts),
                       static_cast<double>(report.dense_points) /
                           static_cast<double>(points.size()));
    }
  }
  EXPECT_EQ(cell_graph_dense_share(points, 0.5f, 1), 1.0);
  EXPECT_EQ(cell_graph_dense_share(std::vector<Point2>{}, 0.5f, 4), 0.0);
  const std::vector<Point2> one{{0.0f, 0.0f}};
  EXPECT_THROW((void)cell_graph_dense_share(one, 0.0f, 4),
               std::invalid_argument);
  EXPECT_THROW((void)cell_graph_dense_share(one, 0.5f, 0),
               std::invalid_argument);
  const std::vector<Point2> huge{{0.0f, 0.0f}, {3e9f, 0.0f}};
  EXPECT_THROW((void)cell_graph_dense_share(huge, 1.0f, 2),
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
  EXPECT_THROW((void)cell_graph_dbscan(wrap, 1.0f, 4, config),
               std::invalid_argument);
  const std::vector<Point3> huge{{0.0f, 0.0f, 0.0f}, {3e9f, 0.0f, 0.0f}};
  EXPECT_THROW((void)cell_graph_dbscan(huge, 1.0f, 2, config),
               std::invalid_argument);
  const std::vector<Point3> deep{{0.0f, 0.0f, 0.0f}, {0.0f, 0.0f, 3e9f}};
  EXPECT_THROW((void)cell_graph_dbscan(deep, 1.0f, 2, config),
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
  const ClusterResult noise3 = cell_graph_dbscan(edge3, 1.0f, 4, config, &r3);
  EXPECT_EQ(noise2.noise_count(), 4u);
  EXPECT_EQ(noise3.noise_count(), 4u);
  // Two cells of two points, each testing only its own residents: no
  // stencil cell wrapped onto the other end of the axis.
  EXPECT_EQ(r2.num_cells, 2u);
  EXPECT_EQ(r2.distance_tests, 8u);
  EXPECT_EQ(r3.num_cells, 2u);
  EXPECT_EQ(r3.distance_tests, 8u);
  const ClusterResult pairs2 = cell_graph_dbscan(edge2, 1.0f, 2, config);
  const ClusterResult pairs3 = cell_graph_dbscan(edge3, 1.0f, 2, config);
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
      cell_graph_dbscan(pts, 0.6f, 8, cudasim::DeviceConfig{}, &report);
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

std::array<float, 3> axes(const Point2& p) { return {p.x, p.y, 0.0f}; }
std::array<float, 3> axes(const Point3& p) { return {p.x, p.y, p.z}; }

/// The cell-graph definition, brute force in O(n^2). Cells have side
/// eps/sqrt(d), binned from the float offset to the axis minimum. Two
/// points are neighbors when their cells are within 2 on every axis, the
/// cells' min-distance (in double) is within eps, and dist2 <=
/// float(eps^2). A point is core when its cell holds minpts points or it
/// has minpts neighbors, itself included. Cores connect through a shared
/// dense cell or a neighbor pair. A border point joins the cluster of its
/// smallest-id core neighbor, and clusters are numbered by their first
/// core in input order.
template <typename Point>
ClusterResult cell_graph_definition(const std::vector<Point>& pts, float eps,
                                    int minpts) {
  constexpr int kDims = std::is_same_v<Point, Point3> ? 3 : 2;
  const std::size_t n = pts.size();
  const double side =
      static_cast<double>(eps) / std::sqrt(static_cast<double>(kDims));
  std::array<float, 3> lo{};
  lo.fill(std::numeric_limits<float>::max());
  for (const Point& p : pts) {
    for (int a = 0; a < kDims; ++a) lo[a] = std::min(lo[a], axes(p)[a]);
  }
  std::vector<std::array<std::int64_t, 3>> cell(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int a = 0; a < kDims; ++a) {
      const float offset = axes(pts[i])[a] - lo[a];
      cell[i][a] = static_cast<std::int64_t>(std::floor(offset / side));
    }
  }
  const double eps2 = static_cast<double>(eps) * eps;
  const auto neighbors = [&](std::size_t i, std::size_t j) {
    double d2 = 0.0;
    for (int a = 0; a < kDims; ++a) {
      const std::int64_t gap = std::abs(cell[i][a] - cell[j][a]);
      if (gap > 2) return false;
      if (gap > 1) {
        const double g = static_cast<double>(gap - 1) * side;
        d2 += g * g;
      }
    }
    return d2 <= eps2 && dist2(pts[i], pts[j]) <= static_cast<float>(eps2);
  };

  std::vector<char> dense(n, 0);
  std::vector<char> core(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    int residents = 0;
    int degree = 0;
    for (std::size_t j = 0; j < n; ++j) {
      residents += cell[i] == cell[j] ? 1 : 0;
      degree += neighbors(i, j) ? 1 : 0;
    }
    dense[i] = residents >= minpts ? 1 : 0;
    core[i] = dense[i] || degree >= minpts ? 1 : 0;
  }
  UnionFind uf(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!core[i] || !core[j]) continue;
      if ((dense[i] && cell[i] == cell[j]) || neighbors(i, j)) {
        uf.unite(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
      }
    }
  }
  ClusterResult out;
  out.labels.assign(n, kNoise);
  std::vector<std::int32_t> label_of_root(n, kNoise);
  for (std::size_t i = 0; i < n; ++i) {
    if (!core[i]) continue;
    std::int32_t& label = label_of_root[uf.find(static_cast<std::uint32_t>(i))];
    if (label == kNoise) label = out.num_clusters++;
    out.labels[i] = label;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (core[i]) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (core[j] && neighbors(i, j)) {
        out.labels[i] = out.labels[j];
        break;
      }
    }
  }
  return out;
}

/// A seeded adversarial cloud a few eps across, so stencils overlap:
/// coordinates on multiples of the cell side (cell boundaries and
/// corners), duplicates, one overfull cell, partners exactly eps away on
/// one axis or across a cell diagonal, and uniform jitter.
template <typename Point>
std::vector<Point> adversarial_cloud(std::size_t n, float eps,
                                     std::uint64_t seed) {
  constexpr int kDims = std::is_same_v<Point, Point3> ? 3 : 2;
  const double side =
      static_cast<double>(eps) / std::sqrt(static_cast<double>(kDims));
  Xoshiro256 rng(seed);
  std::vector<Point> pts;
  const auto make = [](const std::array<float, 3>& c) {
    if constexpr (kDims == 3) {
      return Point{c[0], c[1], c[2]};
    } else {
      return Point{c[0], c[1]};
    }
  };
  while (pts.size() < n) {
    std::array<float, 3> c{};
    const std::uint64_t kind = pts.empty() ? 0 : rng.below(7);
    for (int a = 0; a < kDims; ++a) {
      switch (kind) {
        case 0:  // a cell boundary or corner
          c[a] = static_cast<float>(static_cast<double>(rng.below(9)) * side);
          break;
        case 1:  // the overfull cell
          c[a] = static_cast<float>((2.5 + rng.uniform(-0.45f, 0.45f)) * side);
          break;
        default:
          c[a] = rng.uniform(0.0f, static_cast<float>(8.0 * side));
          break;
      }
    }
    if (kind == 4) {  // a duplicate
      c = axes(pts[rng.below(pts.size())]);
    } else if (kind == 5) {  // a partner exactly eps away on one axis
      c = axes(pts[rng.below(pts.size())]);
      c[rng.below(kDims)] += eps;
    } else if (kind == 6) {  // a partner one cell diagonal (eps) away
      c = axes(pts[rng.below(pts.size())]);
      for (int a = 0; a < kDims; ++a) {
        c[a] += static_cast<float>(rng.below(2) != 0 ? side : -side);
      }
    }
    pts.push_back(make(c));
  }
  return pts;
}

template <typename Point>
void expect_labels_equal_the_definition(std::uint64_t seed_base) {
  const cudasim::DeviceConfig config;
  const float eps_choices[] = {0.25f, 0.3f, 0.5f, 1.0f};
  for (std::uint64_t trial = 0; trial < 400; ++trial) {
    Xoshiro256 rng(seed_base + trial);
    const std::size_t n =
        trial % 10 == 0 ? 1 : trial % 10 == 1 ? 2 : 3 + rng.below(118);
    const float eps = eps_choices[rng.below(4)];
    const int minpts_choices[] = {1, 2, 3, 4, 6, 10, static_cast<int>(n) + 1};
    const int minpts = minpts_choices[rng.below(7)];
    const auto pts = adversarial_cloud<Point>(n, eps, rng());
    const ClusterResult want = cell_graph_definition(pts, eps, minpts);
    const ClusterResult got = cell_graph_dbscan(pts, eps, minpts, config);
    ASSERT_EQ(got.labels, want.labels)
        << "trial " << trial << " n=" << n << " eps=" << eps
        << " minpts=" << minpts;
    ASSERT_EQ(got.num_clusters, want.num_clusters) << "trial " << trial;
  }
}

TEST(CellGraphMode, LabelsEqualTheDefinition2d) {
  expect_labels_equal_the_definition<Point2>(0x2d00);
}

TEST(CellGraphMode, LabelsEqualTheDefinition3d) {
  expect_labels_equal_the_definition<Point3>(0x3d00);
}

}  // namespace
}  // namespace hdbscan
