// 3-D through the one grid core: the index (build_grid_index<Point3>,
// grid_query and the 27-cell stencils), the shared kernel bodies, the
// table builder and the fused passes on the batch engine, and the
// hybrid_dbscan front door. 3-D tables equal the grid_query oracle and
// fused labels equal the banded pass, on one device, on two, under device
// loss and on the host rung; a 3-D run of points with z = 0 is
// bit-identical to the 2-D run of their (x, y).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/fused_clustering.hpp"
#include "core/hybrid_dbscan.hpp"
#include "core/neighbor_table_builder.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/fault.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/dbscan_parallel.hpp"
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

cudasim::SimulationOptions faulted_options(
    cudasim::FaultPlan plan,
    std::shared_ptr<cudasim::FaultInjector>* injector_out = nullptr) {
  cudasim::SimulationOptions opt = fast_options();
  auto injector = std::make_shared<cudasim::FaultInjector>(std::move(plan));
  if (injector_out != nullptr) *injector_out = injector;
  opt.fault = std::move(injector);
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

/// The same points on the z = 0 plane.
std::vector<Point3> lift(const std::vector<Point2>& points) {
  std::vector<Point3> out;
  out.reserve(points.size());
  for (const Point2& p : points) out.push_back({p.x, p.y, 0.0f});
  return out;
}

std::vector<PointId> brute3(std::span<const Point3> pts, const Point3& q,
                            float eps) {
  std::vector<PointId> out;
  for (PointId i = 0; i < pts.size(); ++i) {
    if (dist2(q, pts[i]) <= eps * eps) out.push_back(i);
  }
  return out;
}

void expect_identical(NeighborTable got, NeighborTable want) {
  got.canonicalize();
  want.canonicalize();
  EXPECT_EQ(got.total_pairs(), want.total_pairs());
  EXPECT_TRUE(got.identical_to(want));
}

TEST(GridIndex3, RejectsBadInput) {
  const std::vector<Point3> points{{0, 0, 0}};
  EXPECT_THROW(build_grid_index<Point3>({}, 1.0f), std::invalid_argument);
  EXPECT_THROW(build_grid_index<Point3>(points, -0.5f),
               std::invalid_argument);
}

TEST(GridIndex3, RejectsGridBeyondCapacityBeforeNarrowing) {
  const std::vector<Point3> wide{{0.0f, 0.0f, 0.0f}, {1e6f, 1e6f, 1e6f}};
  EXPECT_THROW(build_grid_index<Point3>(wide, 1e-4f), std::invalid_argument);
  const std::vector<Point3> huge{{-3e38f, 0.0f, 0.0f}, {3e38f, 1.0f, 1.0f}};
  EXPECT_THROW(build_grid_index<Point3>(huge, 1.0f), std::invalid_argument);
  const std::vector<Point3> huge_z{{0.0f, 0.0f, -3e38f}, {1.0f, 1.0f, 3e38f}};
  EXPECT_THROW(build_grid_index<Point3>(huge_z, 1.0f), std::invalid_argument);
  // Each axis fits, their product does not.
  const std::vector<Point3> cube{{0.0f, 0.0f, 0.0f}, {600.0f, 600.0f, 600.0f}};
  EXPECT_THROW(build_grid_index<Point3>(cube, 1.0f), std::invalid_argument);
}

TEST(GridIndex3, PointsAreStoredInCellOrder) {
  const auto points = blobs3(3000, 2, 4, 0.3f, 5.0f, 0.3);
  const GridIndex3 g = build_grid_index<Point3>(points, 0.35f);
  // The cells' runs follow one another in cell order and cover D, so a
  // point's id is its position.
  ASSERT_EQ(g.size(), points.size());
  ASSERT_EQ(g.cells.front().begin, 0u);
  ASSERT_EQ(g.cells.back().end, points.size());
  for (std::uint32_t h = 0; h < g.cells.size(); ++h) {
    if (h > 0) ASSERT_EQ(g.cells[h].begin, g.cells[h - 1].end);
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

TEST(GridIndex3, CellRangesHoldEveryPointIdOnce) {
  const auto points = random_points3(3000, 1, 5.0f);
  const GridIndex3 g = build_grid_index<Point3>(points, 0.4f);
  std::vector<PointId> sorted;
  for (const CellRange& range : g.cells) {
    for (PointId id = range.begin; id < range.end; ++id) sorted.push_back(id);
  }
  ASSERT_EQ(sorted.size(), points.size());
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

/// The stencils list their cells in ascending linear id, by (dz, dy, dx)
/// over -1, 0, +1 with the grid's edges clipped; the forward half keeps the
/// cells with a larger id than the cell's own (at most 13).
TEST(NeighborCells3, StencilsListCellsInAscendingIdOrder) {
  const GridParams3 p{0, 0, 0, 1.0f, 4, 3, 5};
  for (std::uint32_t cell = 0; cell < p.num_cells(); ++cell) {
    const int cx = static_cast<int>(cell % 4);
    const int cy = static_cast<int>(cell / 4 % 3);
    const int cz = static_cast<int>(cell / 12);
    std::vector<std::uint32_t> want;
    for (int z = cz - 1; z <= cz + 1; ++z) {
      for (int y = cy - 1; y <= cy + 1; ++y) {
        for (int x = cx - 1; x <= cx + 1; ++x) {
          if (x >= 0 && x < 4 && y >= 0 && y < 3 && z >= 0 && z < 5) {
            want.push_back((z * 3 + y) * 4 + x);
          }
        }
      }
    }
    std::array<std::uint32_t, 27> out{};
    const unsigned n = get_neighbor_cells(p, cell, out);
    EXPECT_EQ(std::vector<std::uint32_t>(out.begin(), out.begin() + n), want);
    std::erase_if(want, [&](std::uint32_t id) { return id <= cell; });
    const unsigned f = get_forward_neighbor_cells(p, cell, out);
    EXPECT_LE(f, 13u);
    EXPECT_EQ(std::vector<std::uint32_t>(out.begin(), out.begin() + f), want);
  }
}

class Grid3QueryProperty : public ::testing::TestWithParam<float> {};

TEST_P(Grid3QueryProperty, MatchesBruteForce) {
  const float eps = GetParam();
  const auto points = blobs3(1200, 7, 5, 0.3f, 4.0f, 0.2);
  const GridIndex3 g = build_grid_index<Point3>(points, eps);
  std::vector<PointId> got;
  for (PointId q = 0; q < g.size(); q += 31) {
    grid_query(g, g.points[q], eps, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute3(g.points, g.points[q], eps)) << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Eps, Grid3QueryProperty,
                         ::testing::Values(0.1f, 0.3f, 0.8f, 2.0f));

TEST(Kernels3, FullScanBuildMatchesHostQueries) {
  // The shared count/fill bodies over the 27-cell stencil, full scan,
  // through the table builder: T must hold exactly the oracle's rows.
  const auto points = blobs3(1500, 8, 4, 0.25f, 4.0f, 0.2);
  const float eps = 0.35f;
  const GridIndex3 index = build_grid_index<Point3>(points, eps);
  BatchPolicy policy;
  policy.scan_mode = ScanMode::kFull;
  cudasim::Device dev({}, fast_options());
  expect_identical(NeighborTableBuilder(dev, policy).build(index, eps),
                   build_neighbor_table_host(index, eps));
}

TEST(Kernels3, BatchedUnionEqualsUnbatched) {
  // A strided 3-D count pass: every batch's per-point counts are the
  // oracle's row lengths, so the batches together count every pair once.
  const auto points = blobs3(1000, 9, 3, 0.3f, 4.0f, 0.3);
  const float eps = 0.4f;
  const GridIndex3 index = build_grid_index<Point3>(points, eps);
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
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
  const ClusterResult r = hybrid_dbscan(dev, points, 0.4f, 8);
  EXPECT_EQ(r.num_clusters, 6);
}

TEST(HybridDbscan3, EquivalentToBruteForceDbscan) {
  const auto points = blobs3(1200, 12, 4, 0.2f, 5.0f, 0.25);
  const float eps = 0.35f;
  const int minpts = 6;
  cudasim::Device dev({}, fast_options());
  HybridTimings timings;
  const ClusterResult hybrid =
      hybrid_dbscan(dev, points, eps, minpts, &timings);
  EXPECT_GT(timings.build_report.total_pairs, 0u);
  EXPECT_GT(timings.build_report.modeled_table_seconds, 0.0);

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
  hybrid_dbscan(dev, points, 0.3f, 4);
  hybrid_dbscan(dev, points, 0.3f, 4, nullptr, {}, ClusterMode::kFused);
  dev.pool().trim();  // drop pooled scratch before the leak check
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

TEST(HybridDbscan3, RejectsNonFiniteCoordinates) {
  std::vector<Point3> with_nan = random_points3(200, 14, 2.0f);
  with_nan[5].z = std::numeric_limits<float>::quiet_NaN();
  cudasim::Device dev({}, fast_options());
  EXPECT_THROW((void)hybrid_dbscan(dev, with_nan, 0.3f, 4),
               std::invalid_argument);
}

TEST(HybridDbscan3, TwoDevicesMatchOneBitForBit) {
  // A 3-D fleet stripes its batches over the whole index replicated on
  // each device, as a 2-D one does: the table as built, and the labels of
  // both front-door modes, equal one device's.
  const auto points = random_points3(2500, 15, 3.0f);
  const float eps = 0.3f;
  const GridIndex3 index = build_grid_index<Point3>(points, eps);
  cudasim::Device d0({}, fast_options());
  cudasim::Device d1({}, fast_options());
  BatchPolicy policy;
  policy.static_threshold_pairs = 1;  // several batches per lane
  policy.static_buffer_pairs =
      std::max<std::uint64_t>(
          1, build_neighbor_table_host(index, eps).total_pairs() / 12);
  BuildReport two_report;
  const NeighborTable one =
      NeighborTableBuilder(d0, policy).build(index, eps);
  const NeighborTable two =
      NeighborTableBuilder({&d0, &d1}, policy).build(index, eps, &two_report);
  EXPECT_TRUE(two.identical_to(one));
  EXPECT_GT(two_report.batches_run, 2u);
  EXPECT_GT(d1.metrics().kernel_launches, 0u);
  for (const ClusterMode mode : {ClusterMode::kBatchTable,
                                 ClusterMode::kFused}) {
    SCOPED_TRACE(mode == ClusterMode::kFused ? "fused" : "table");
    EXPECT_EQ(hybrid_dbscan({&d0, &d1}, points, eps, 4, nullptr, policy, mode)
                  .labels,
              hybrid_dbscan(d0, points, eps, 4, nullptr, policy, mode).labels);
  }
}

TEST(HybridDbscan3, TableLargerThanDeviceMemoryRunsInBatches) {
  // 20,000 points in the unit square at eps 0.05: about 3M pairs, 12 MB of
  // values, on a 4 MiB device. The planner caps the buffers to the device
  // and splits the build into batches, in 3-D as in 2-D; the labels of the
  // points lifted to z = 0 equal the 2-D run's.
  const std::vector<Point2> flat =
      data::generate_uniform(20000, 31, 1.0f, 1.0f);
  cudasim::DeviceConfig small;
  small.global_mem_bytes = 4u << 20;
  HybridTimings t2;
  HybridTimings t3;
  cudasim::Device dev2(small, fast_options());
  const ClusterResult r2 = hybrid_dbscan(dev2, flat, 0.05f, 4, &t2);
  cudasim::Device dev3(small, fast_options());
  const ClusterResult r3 = hybrid_dbscan(dev3, lift(flat), 0.05f, 4, &t3);
  EXPECT_GT(t2.build_report.total_pairs * sizeof(PointId),
            small.global_mem_bytes);
  EXPECT_GT(t3.build_report.batches_run, 1u);
  EXPECT_FALSE(t3.build_report.used_host_fallback);
  EXPECT_EQ(t3.build_report.total_pairs, t2.build_report.total_pairs);
  EXPECT_EQ(r3.labels, r2.labels);
}

TEST(HybridDbscan3, FlatPointsMatchTheTwoDRunBitForBit) {
  // z = 0 leaves one cell layer, numbered as the 2-D grid numbers its
  // cells, and the 27-cell stencil then lists the 2-D stencil's cells in
  // its order: the same table rows, traversals and labels.
  const std::vector<Point2> flat = data::generate_space_weather(8000, 41);
  const std::vector<Point3> lifted = lift(flat);
  for (const float eps : {0.1f, 0.3f}) {
    for (const int minpts : {4, 8}) {
      for (const ClusterMode mode : {ClusterMode::kBatchTable,
                                     ClusterMode::kFused}) {
        SCOPED_TRACE("eps " + std::to_string(eps) + ", minpts " +
                     std::to_string(minpts) +
                     (mode == ClusterMode::kFused ? ", fused" : ", batch"));
        cudasim::Device dev2({}, fast_options());
        cudasim::Device dev3({}, fast_options());
        const ClusterResult r2 =
            hybrid_dbscan(dev2, flat, eps, minpts, nullptr, {}, mode);
        const ClusterResult r3 =
            hybrid_dbscan(dev3, lifted, eps, minpts, nullptr, {}, mode);
        EXPECT_EQ(r3.labels, r2.labels);
        EXPECT_EQ(r3.num_clusters, r2.num_clusters);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The degradation ladder in 3-D: failover, the host rung, the capped
// degree contract and counters that repeat
// ---------------------------------------------------------------------------

struct Scenario3 {
  GridIndex3 index;
  NeighborTable oracle;            ///< grid_query rows, index point order
  std::vector<std::int32_t> want;  ///< banded-pass labels, index order
  FusedDegrees contract;           ///< what the fused passes leave
  float eps = 0.35f;
  int minpts = 6;
};

/// Blobs over noise: cores, borders next to cores, and noise, so every
/// fused pass has work.
Scenario3 make_scenario3(std::size_t n, std::uint64_t seed) {
  Scenario3 s;
  s.index = build_grid_index<Point3>(blobs3(n, seed, 5, 0.3f, 5.0f, 0.3),
                                     s.eps);
  s.oracle = build_neighbor_table_host(s.index, s.eps);
  s.want = dbscan_parallel(s.oracle, s.minpts).labels;
  s.contract = expected_fused_degrees(s.oracle, s.minpts);
  return s;
}

/// Many small batches on every stream, so a loss lands mid-build.
BatchPolicy striped_policy(const Scenario3& s) {
  BatchPolicy policy;
  policy.estimated_total_override = s.oracle.total_pairs();
  policy.static_threshold_pairs = 1;  // force the static-buffer path
  policy.static_buffer_pairs =
      std::max<std::uint64_t>(1, s.oracle.total_pairs() / 12);
  return policy;
}

/// A 3-D index uploads its points, cells and schedule — one allocation and
/// one transfer each, and no sub-cells — so the fused passes' launches
/// start at device op 7.
constexpr std::uint64_t kFusedUploadOps3 = 6;

struct Run3 {
  BuildReport report;
  NeighborTable table;
  std::vector<std::int32_t> labels;
  std::vector<std::uint32_t> degrees;
};

Run3 build_table(const Scenario3& s, const std::vector<cudasim::Device*>& fleet,
                 const BatchPolicy& policy) {
  Run3 run;
  run.table = NeighborTableBuilder(fleet, policy)
                  .build(s.index, s.eps, &run.report);
  return run;
}

Run3 run_fused(const Scenario3& s, const std::vector<cudasim::Device*>& fleet,
               const BatchPolicy& policy) {
  StreamingDbscan consumer(s.index.size(), s.minpts);
  Run3 run;
  run.report = fused_cluster(fleet, s.index, s.eps, consumer, policy);
  for (PointId i = 0; i < s.index.size(); ++i) {
    run.degrees.push_back(consumer.degree(i));
  }
  run.labels = consumer.finalize().labels;
  return run;
}

/// The fused contract: capped degrees, their counts, the banded labels.
void expect_fused_exact(const Scenario3& s, const Run3& run) {
  EXPECT_EQ(run.degrees, s.contract.degree);
  EXPECT_EQ(run.report.capped_points, s.contract.capped_points);
  EXPECT_EQ(run.report.recounted_points, s.contract.recounted_points);
  EXPECT_EQ(run.labels, s.want);
}

TEST(Ladder3, OneAndTwoDevicesAreExact) {
  const Scenario3 s = make_scenario3(3000, 51);
  ASSERT_GT(s.contract.recounted_points, 0u);  // every fused pass has work
  for (const unsigned devices : {1u, 2u}) {
    for (const ScanMode scan : {ScanMode::kHalf, ScanMode::kFull}) {
      SCOPED_TRACE(std::to_string(devices) + " device(s), " +
                   (scan == ScanMode::kHalf ? "kHalf" : "kFull"));
      cudasim::Device d0({}, fast_options());
      cudasim::Device d1({}, fast_options());
      std::vector<cudasim::Device*> fleet{&d0, &d1};
      fleet.resize(devices);
      BatchPolicy policy = striped_policy(s);
      policy.scan_mode = scan;
      Run3 table = build_table(s, fleet, policy);
      EXPECT_GT(table.report.batches_run, 1u);
      expect_identical(std::move(table.table), s.oracle);
      expect_fused_exact(s, run_fused(s, fleet, policy));
    }
  }
}

TEST(Ladder3, DeviceLostMidBuildFailsOverToTheSurvivor) {
  const Scenario3 s = make_scenario3(3000, 52);
  const BatchPolicy policy = striped_policy(s);
  // Ops the second device spends on a clean two-device table build; it
  // dies two thirds of the way through its batches.
  std::shared_ptr<cudasim::FaultInjector> probe;
  {
    cudasim::Device d0({}, fast_options());
    cudasim::Device d1({}, faulted_options({}, &probe));
    (void)build_table(s, {&d0, &d1}, policy);
  }
  {
    cudasim::FaultPlan lost;
    lost.lost_at_op = probe->ops() * 2 / 3;
    cudasim::Device d0({}, fast_options());
    cudasim::Device d1({}, faulted_options(lost));
    Run3 run = build_table(s, {&d0, &d1}, policy);
    EXPECT_EQ(run.report.devices_lost, 1u);
    EXPECT_GT(run.report.failover_batches, 0u);
    EXPECT_FALSE(run.report.used_host_fallback);
    expect_identical(std::move(run.table), s.oracle);
  }
  {
    // The fused passes: the second device's third core-pass launch.
    cudasim::FaultPlan lost;
    lost.lost_at_op = kFusedUploadOps3 + 3;
    cudasim::Device d0({}, fast_options());
    cudasim::Device d1({}, faulted_options(lost));
    const Run3 run = run_fused(s, {&d0, &d1}, policy);
    EXPECT_EQ(run.report.devices_lost, 1u);
    EXPECT_GT(run.report.failover_batches, 0u);
    EXPECT_FALSE(run.report.used_host_fallback);
    expect_fused_exact(s, run);
  }
}

TEST(Ladder3, LostFleetFinishesOnTheHost) {
  const Scenario3 s = make_scenario3(2000, 53);
  BatchPolicy policy = striped_policy(s);
  policy.resilience.host_fallback = true;
  std::shared_ptr<cudasim::FaultInjector> probe;
  {
    cudasim::Device dev({}, faulted_options({}, &probe));
    (void)build_table(s, {&dev}, policy);
  }
  // At the upload the host builds the whole index; mid-batching it drains
  // the lost lanes' batches.
  for (const std::uint64_t op : {std::uint64_t{1}, probe->ops() / 2}) {
    SCOPED_TRACE("table, lost at op " + std::to_string(op));
    cudasim::FaultPlan lost;
    lost.lost_at_op = op;
    cudasim::Device dev({}, faulted_options(lost));
    Run3 run = build_table(s, {&dev}, policy);
    EXPECT_EQ(run.report.devices_lost, 1u);
    EXPECT_TRUE(run.report.used_host_fallback);
    EXPECT_GT(run.report.host_fallback_batches, 0u);
    expect_identical(std::move(run.table), s.oracle);
  }
  for (const std::uint64_t op : {std::uint64_t{1}, kFusedUploadOps3 + 2}) {
    SCOPED_TRACE("fused, lost at op " + std::to_string(op));
    cudasim::FaultPlan lost;
    lost.lost_at_op = op;
    cudasim::Device dev({}, faulted_options(lost));
    const Run3 run = run_fused(s, {&dev}, policy);
    EXPECT_EQ(run.report.devices_lost, 1u);
    EXPECT_TRUE(run.report.used_host_fallback);
    EXPECT_GT(run.report.host_fallback_batches, 0u);
    expect_fused_exact(s, run);
  }
}

TEST(Ladder3, CountersRepeatExactly) {
  const Scenario3 s = make_scenario3(2500, 54);
  for (const unsigned devices : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(devices) + " device(s)");
    auto fleet_run = [&](bool fused) {
      cudasim::Device d0({}, fast_options());
      cudasim::Device d1({}, fast_options());
      std::vector<cudasim::Device*> fleet{&d0, &d1};
      fleet.resize(devices);
      return fused ? run_fused(s, fleet, BatchPolicy{})
                   : build_table(s, fleet, striped_policy(s));
    };
    for (const bool fused : {false, true}) {
      const Run3 a = fleet_run(fused);
      const Run3 b = fleet_run(fused);
      EXPECT_EQ(a.report.batches_run, b.report.batches_run);
      EXPECT_EQ(a.report.total_pairs, b.report.total_pairs);
      EXPECT_EQ(a.report.d2h_bytes, b.report.d2h_bytes);
      EXPECT_EQ(a.report.kernel_flops, b.report.kernel_flops);
      EXPECT_EQ(a.report.kernel_global_bytes, b.report.kernel_global_bytes);
      EXPECT_EQ(a.report.atomic_ops, b.report.atomic_ops);
      EXPECT_EQ(a.report.capped_points, b.report.capped_points);
      EXPECT_EQ(a.report.recounted_points, b.report.recounted_points);
      // Bit-equal: sums of counted terms, added in the same order.
      EXPECT_EQ(a.report.kernel_modeled_seconds,
                b.report.kernel_modeled_seconds);
      EXPECT_EQ(a.labels, b.labels);
      if (fused) {
        EXPECT_EQ(a.report.modeled_table_seconds,
                  b.report.modeled_table_seconds);
        expect_fused_exact(s, a);
      }
    }
  }
}

}  // namespace
}  // namespace hdbscan
