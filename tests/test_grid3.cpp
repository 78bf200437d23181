// 3-D grid index, kernels and end-to-end HYBRID-DBSCAN.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/hybrid_dbscan3.hpp"
#include "cudasim/buffer_pool.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "gpu/kernels.hpp"
#include "index/grid_index3.hpp"

namespace hdbscan {
namespace {

cudasim::SimulationOptions fast_options() {
  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  opt.executor_threads = 2;
  return opt;
}

std::vector<Point3> random_points3(std::size_t n, std::uint64_t seed,
                                   float extent) {
  Xoshiro256 rng(seed);
  std::vector<Point3> points(n);
  for (auto& p : points) {
    p = {rng.uniform(0.0f, extent), rng.uniform(0.0f, extent),
         rng.uniform(0.0f, extent)};
  }
  return points;
}

/// Clustered 3-D data: blobs plus background noise.
std::vector<Point3> blobs3(std::size_t n, std::uint64_t seed, unsigned blobs,
                           float sigma, float extent, double noise_frac) {
  Xoshiro256 rng(seed);
  std::vector<Point3> centers(blobs);
  for (auto& c : centers) {
    c = {rng.uniform(0.0f, extent), rng.uniform(0.0f, extent),
         rng.uniform(0.0f, extent)};
  }
  std::vector<Point3> points;
  points.reserve(n);
  auto clamp01 = [extent](double v) {
    return static_cast<float>(std::min<double>(extent, std::max(0.0, v)));
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < noise_frac) {
      points.push_back({rng.uniform(0.0f, extent), rng.uniform(0.0f, extent),
                        rng.uniform(0.0f, extent)});
    } else {
      const Point3& c = centers[rng.below(blobs)];
      points.push_back({clamp01(rng.normal(c.x, sigma)),
                        clamp01(rng.normal(c.y, sigma)),
                        clamp01(rng.normal(c.z, sigma))});
    }
  }
  return points;
}

std::vector<PointId> brute3(std::span<const Point3> pts, const Point3& q,
                            float eps) {
  std::vector<PointId> out;
  for (PointId i = 0; i < pts.size(); ++i) {
    if (dist2(q, pts[i]) <= eps * eps) out.push_back(i);
  }
  return out;
}

TEST(GridIndex3, RejectsBadInput) {
  const std::vector<Point3> points{{0, 0, 0}};
  EXPECT_THROW(build_grid_index3({}, 1.0f), std::invalid_argument);
  EXPECT_THROW(build_grid_index3(points, -0.5f), std::invalid_argument);
}

TEST(GridIndex3, RejectsGridBeyondCapacityBeforeNarrowing) {
  const std::vector<Point3> wide{{0.0f, 0.0f, 0.0f}, {1e6f, 1e6f, 1e6f}};
  EXPECT_THROW(build_grid_index3(wide, 1e-4f), std::invalid_argument);
  const std::vector<Point3> huge{{-3e38f, 0.0f, 0.0f}, {3e38f, 1.0f, 1.0f}};
  EXPECT_THROW(build_grid_index3(huge, 1.0f), std::invalid_argument);
  const std::vector<Point3> huge_z{{0.0f, 0.0f, -3e38f}, {1.0f, 1.0f, 3e38f}};
  EXPECT_THROW(build_grid_index3(huge_z, 1.0f), std::invalid_argument);
  // Each axis fits, their product does not.
  const std::vector<Point3> cube{{0.0f, 0.0f, 0.0f}, {600.0f, 600.0f, 600.0f}};
  EXPECT_THROW(build_grid_index3(cube, 1.0f), std::invalid_argument);
}

TEST(GridIndex3, PointsAreStoredInCellOrder) {
  const auto points = blobs3(3000, 2, 4, 0.3f, 5.0f, 0.3);
  const GridIndex3 g = build_grid_index3(points, 0.35f);
  ASSERT_EQ(g.lookup.size(), points.size());
  for (std::uint32_t a = 0; a < g.lookup.size(); ++a) {
    ASSERT_EQ(g.lookup[a], a);
  }
  for (std::uint32_t h = 0; h < g.cells.size(); ++h) {
    const CellRange range = g.cells[h];
    for (std::uint32_t a = range.begin; a < range.end; ++a) {
      ASSERT_EQ(g.params.linear_cell(g.points[a]), h) << "slot " << a;
      if (a > range.begin) {
        ASSERT_LT(g.original_ids[a - 1], g.original_ids[a])
            << "cell " << h << " not in input order";
      }
    }
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    ASSERT_EQ(g.points[i], points[g.original_ids[i]]);
  }
}

TEST(GridIndex3, LookupIsPermutation) {
  const auto points = random_points3(3000, 1, 5.0f);
  const GridIndex3 g = build_grid_index3(points, 0.4f);
  std::vector<PointId> sorted(g.lookup.begin(), g.lookup.end());
  std::sort(sorted.begin(), sorted.end());
  for (PointId i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Reordered points match originals through original_ids.
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.points[i], points[g.original_ids[i]]);
  }
}

TEST(NeighborCells3, InteriorCellHas27) {
  GridParams3 p{0, 0, 0, 1.0f, 5, 5, 5};
  std::array<std::uint32_t, 27> out{};
  // Center cell of the 5x5x5 grid: (2,2,2) -> (2*5+2)*5+2 = 62.
  EXPECT_EQ(get_neighbor_cells(p, 62, out), 27u);
  std::set<std::uint32_t> cells(out.begin(), out.begin() + 27);
  EXPECT_EQ(cells.size(), 27u);
  EXPECT_TRUE(cells.count(62));
}

TEST(NeighborCells3, CornerCellHasEight) {
  GridParams3 p{0, 0, 0, 1.0f, 5, 5, 5};
  std::array<std::uint32_t, 27> out{};
  EXPECT_EQ(get_neighbor_cells(p, 0, out), 8u);
  EXPECT_EQ(get_neighbor_cells(p, 124, out), 8u);  // far corner
}

class Grid3QueryProperty : public ::testing::TestWithParam<float> {};

TEST_P(Grid3QueryProperty, MatchesBruteForce) {
  const float eps = GetParam();
  const auto points = blobs3(1200, 7, 5, 0.3f, 4.0f, 0.2);
  const GridIndex3 g = build_grid_index3(points, eps);
  std::vector<PointId> got;
  for (PointId q = 0; q < g.size(); q += 31) {
    grid_query3(g, g.points[q], eps, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute3(g.points, g.points[q], eps)) << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Eps, Grid3QueryProperty,
                         ::testing::Values(0.1f, 0.3f, 0.8f, 2.0f));

TEST(Kernels3, GlobalKernelMatchesHostQueries) {
  // The shared count/fill bodies over the 27-cell stencil, full scan: the
  // 3-D CSR build must hold exactly the grid_query3 oracle's rows.
  const auto points = blobs3(1500, 8, 4, 0.25f, 4.0f, 0.2);
  const float eps = 0.35f;
  const GridIndex3 index = build_grid_index3(points, eps);
  NeighborTable oracle = build_neighbor_table_host3(index, eps);

  cudasim::Device dev({}, fast_options());
  NeighborTable table = build_neighbor_table_device3(dev, index, eps, nullptr,
                                                     ScanMode::kFull);
  table.canonicalize();
  oracle.canonicalize();
  EXPECT_EQ(table.total_pairs(), oracle.total_pairs());
  EXPECT_TRUE(table.identical_to(oracle));
}

TEST(Kernels3, BatchedUnionEqualsUnbatched) {
  // A strided 3-D count pass: every batch's per-point counts are the
  // oracle's row lengths, so the batches together count every pair once.
  const auto points = blobs3(1000, 9, 3, 0.3f, 4.0f, 0.3);
  const float eps = 0.4f;
  const GridIndex3 index = build_grid_index3(points, eps);
  const NeighborTable oracle = build_neighbor_table_host3(index, eps);
  cudasim::Device dev({}, fast_options());
  const auto n = static_cast<std::uint32_t>(index.size());
  const std::uint32_t nb = 5;
  std::uint64_t total = 0;
  for (std::uint32_t l = 0; l < nb; ++l) {
    const gpu::BatchSpec batch{l, nb};
    std::vector<std::uint32_t> counts(batch.points_in_batch(n));
    gpu::run_count_batch(dev, GridView3::of(index), eps, batch,
                         counts.data());
    for (std::uint32_t g = 0; g < counts.size(); ++g) {
      ASSERT_EQ(counts[g], oracle.neighbor_count(l + g * nb))
          << "point " << l + g * nb;
      total += counts[g];
    }
  }
  EXPECT_EQ(total, oracle.total_pairs());
}

TEST(HybridDbscan3, RecoversThreeDBlobs) {
  // Six well-separated blob centers on a lattice (random centers can land
  // close enough to merge, which is not what this test is about).
  const std::array<Point3, 6> centers{{{1.5f, 1.5f, 1.5f},
                                       {6.5f, 1.5f, 1.5f},
                                       {1.5f, 6.5f, 1.5f},
                                       {6.5f, 6.5f, 1.5f},
                                       {1.5f, 1.5f, 6.5f},
                                       {6.5f, 6.5f, 6.5f}}};
  Xoshiro256 rng(11);
  std::vector<Point3> points;
  for (int i = 0; i < 3000; ++i) {
    const Point3& c = centers[rng.below(centers.size())];
    points.push_back({static_cast<float>(rng.normal(c.x, 0.15)),
                      static_cast<float>(rng.normal(c.y, 0.15)),
                      static_cast<float>(rng.normal(c.z, 0.15))});
  }
  cudasim::Device dev({}, fast_options());
  const ClusterResult r = hybrid_dbscan3(dev, points, 0.4f, 8);
  EXPECT_EQ(r.num_clusters, 6);
}

TEST(HybridDbscan3, EquivalentToBruteForceDbscan) {
  const auto points = blobs3(1200, 12, 4, 0.2f, 5.0f, 0.25);
  const float eps = 0.35f;
  const int minpts = 6;
  cudasim::Device dev({}, fast_options());
  Build3Report report;
  const ClusterResult hybrid =
      hybrid_dbscan3(dev, points, eps, minpts, &report);
  EXPECT_GT(report.total_pairs, 0u);
  EXPECT_GT(report.modeled_table_seconds, 0.0);

  // Oracle: input-order neighbor table by brute force, then the
  // comparator's full DBSCAN-validity machinery.
  NeighborTable oracle(points.size());
  for (PointId i = 0; i < points.size(); ++i) {
    std::vector<NeighborPair> pairs;
    for (const PointId v : brute3(points, points[i], eps)) {
      pairs.push_back({i, v});
    }
    oracle.append_sorted_batch(pairs);
  }
  const ClusterResult reference = dbscan_neighbor_table(oracle, minpts);
  const auto outcome = compare_clusterings(hybrid, reference, oracle, minpts);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
}

TEST(HybridDbscan3, DeviceMemoryReleased) {
  const auto points = random_points3(800, 13, 3.0f);
  cudasim::Device dev({}, fast_options());
  hybrid_dbscan3(dev, points, 0.3f, 4);
  dev.pool().trim();  // drop pooled scratch before the leak check
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

}  // namespace
}  // namespace hdbscan
