// Failure injection and degenerate inputs: the pipeline must fail loudly
// and cleanly (never silently drop pairs), and handle pathological data.
#include <gtest/gtest.h>

#include <vector>

#include "core/hybrid_dbscan.hpp"
#include "core/neighbor_table_builder.hpp"
#include "core/pipeline.hpp"
#include "cudasim/buffer.hpp"
#include "cudasim/buffer_pool.hpp"
#include "data/generators.hpp"
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

TEST(FailureInjection, DeviceTooSmallForIndexThrowsOom) {
  const auto points = data::generate_uniform(10000, 1, 10.0f, 10.0f);
  const GridIndex index = build_grid_index(points, 0.3f);
  cudasim::DeviceConfig cfg;
  cfg.global_mem_bytes = 16 << 10;  // 16 KiB: not even D fits
  cudasim::Device device(cfg, fast_options());
  NeighborTableBuilder builder(device);
  EXPECT_THROW((void)builder.build(index, 0.3f), cudasim::DeviceOutOfMemory);
  // Nothing leaks after the failure.
  EXPECT_EQ(device.used_global_bytes(), 0u);
}

TEST(FailureInjection, MultiDeviceTooSmallThrowsOomAndReleasesAll) {
  // Both devices are too small for the index: the multi-device build must
  // drain every stream, release every allocation on every device, and only
  // then surface DeviceOutOfMemory.
  const auto points = data::generate_uniform(10000, 1, 10.0f, 10.0f);
  const GridIndex index = build_grid_index(points, 0.3f);
  cudasim::DeviceConfig cfg;
  cfg.global_mem_bytes = 16 << 10;
  cudasim::Device d0(cfg, fast_options());
  cudasim::Device d1(cfg, fast_options());
  NeighborTableBuilder builder({&d0, &d1});
  EXPECT_THROW((void)builder.build(index, 0.3f), cudasim::DeviceOutOfMemory);
  EXPECT_EQ(d0.used_global_bytes(), 0u);
  EXPECT_EQ(d1.used_global_bytes(), 0u);
}

TEST(FailureInjection, OneTinyDeviceAmongHealthyDegradesNotFails) {
  // A device that cannot even hold the index is dropped at setup; the
  // healthy one carries the whole build and the table is still exact.
  const auto points = data::generate_uniform(5000, 6, 10.0f, 10.0f);
  const GridIndex index = build_grid_index(points, 0.3f);
  cudasim::Device healthy({}, fast_options());
  cudasim::DeviceConfig tiny_cfg;
  tiny_cfg.global_mem_bytes = 16 << 10;
  cudasim::Device tiny(tiny_cfg, fast_options());
  NeighborTableBuilder builder({&healthy, &tiny});
  BuildReport report;
  NeighborTable table = builder.build(index, 0.3f, &report);
  EXPECT_EQ(report.devices_lost, 1u);
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(tiny.used_global_bytes(), 0u);
  NeighborTable oracle = build_neighbor_table_host(index, 0.3f);
  table.canonicalize();
  oracle.canonicalize();
  EXPECT_TRUE(table.identical_to(oracle));
}

TEST(FailureInjection, OverflowBeyondSplitDepthThrowsNotCorrupts) {
  // Estimate claims ~nothing; buffers so tiny that even max-depth splits
  // cannot fit a dense clump's neighborhood -> builder must throw.
  std::vector<Point2> points(4000, Point2{1.0f, 1.0f});  // one dense cell
  const GridIndex index = build_grid_index(points, 0.5f);
  cudasim::Device device({}, fast_options());
  BatchPolicy policy;
  policy.estimated_total_override = 8;  // absurd: real total is 16M pairs
  NeighborTableBuilder builder(device, policy);
  EXPECT_THROW((void)builder.build(index, 0.5f), std::runtime_error);
  device.pool().trim();  // drop pooled scratch before the leak check
  EXPECT_EQ(device.used_global_bytes(), 0u);
}

TEST(FailureInjection, PipelineSurfacesConsumerVisibleErrors) {
  const auto points = data::generate_uniform(500, 2, 5.0f, 5.0f);
  cudasim::Device device({}, fast_options());
  // minpts < 1 blows up inside the consumers, not the producer: on the
  // table path the producer builds T without reading minpts.
  const std::vector<Variant> bad{{0.3f, 0}};
  PipelineOptions options;
  options.cluster_mode = ClusterMode::kBatchTable;
  EXPECT_THROW(run_multi_clustering(device, points, bad, options),
               std::invalid_argument);
}

TEST(DegenerateInputs, SinglePointDataset) {
  const std::vector<Point2> one{{2.0f, 3.0f}};
  cudasim::Device device({}, fast_options());
  const ClusterResult r = hybrid_dbscan(device, one, 0.5f, 2);
  ASSERT_EQ(r.labels.size(), 1u);
  EXPECT_EQ(r.labels[0], kNoise);
  const ClusterResult solo = hybrid_dbscan(device, one, 0.5f, 1);
  EXPECT_EQ(solo.labels[0], 0);  // minpts = 1: a cluster of one
}

TEST(DegenerateInputs, AllIdenticalPoints) {
  const std::vector<Point2> points(500, Point2{1.0f, 1.0f});
  cudasim::Device device({}, fast_options());
  const ClusterResult r = hybrid_dbscan(device, points, 0.1f, 4);
  EXPECT_EQ(r.num_clusters, 1);
  EXPECT_EQ(r.noise_count(), 0u);
}

TEST(DegenerateInputs, CollinearPoints) {
  std::vector<Point2> points;
  for (int i = 0; i < 1000; ++i) {
    points.push_back({static_cast<float>(i) * 0.05f, 0.0f});
  }
  cudasim::Device device({}, fast_options());
  const ClusterResult r = hybrid_dbscan(device, points, 0.06f, 2);
  EXPECT_EQ(r.num_clusters, 1);  // one chain
  EXPECT_EQ(r.noise_count(), 0u);
}

TEST(DegenerateInputs, DuplicateVariantsInPipeline) {
  const auto points = data::generate_uniform(800, 3, 5.0f, 5.0f);
  cudasim::Device device({}, fast_options());
  const std::vector<Variant> variants{{0.3f, 4}, {0.3f, 4}, {0.3f, 4}};
  const PipelineReport report =
      run_multi_clustering(device, points, variants, {});
  ASSERT_EQ(report.variants.size(), 3u);
  EXPECT_EQ(report.variants[0].num_clusters, report.variants[1].num_clusters);
  EXPECT_EQ(report.variants[1].num_clusters, report.variants[2].num_clusters);
}

TEST(DegenerateInputs, NegativeCoordinates) {
  const auto base = data::generate_gaussian_blobs(1000, 4, 3, 0.2f, 10.0f,
                                                  10.0f);
  std::vector<Point2> shifted;
  for (const Point2& p : base) shifted.push_back({p.x - 50.0f, p.y - 50.0f});
  cudasim::Device device({}, fast_options());
  const ClusterResult a = hybrid_dbscan(device, base, 0.5f, 4);
  const ClusterResult b = hybrid_dbscan(device, shifted, 0.5f, 4);
  // Translation invariance.
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.noise_count(), b.noise_count());
}

TEST(DegenerateInputs, TinyEpsMakesEverythingNoise) {
  // eps far below the mean nearest-neighbor distance: everything is noise.
  const auto points = data::generate_uniform(500, 5, 100.0f, 100.0f);
  cudasim::Device device({}, fast_options());
  const ClusterResult r = hybrid_dbscan(device, points, 0.05f, 2);
  EXPECT_EQ(r.num_clusters, 0);
  EXPECT_EQ(r.noise_count(), points.size());
}

}  // namespace
}  // namespace hdbscan
