#include "core/hybrid_dbscan.hpp"

#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/timer.hpp"
#include "core/cell_graph.hpp"
#include "core/fused_clustering.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

/// Cell-graph mode bypasses the device pipelines entirely: no grid index,
/// no batches, no table — the eps/sqrt(d) re-binning happens inside
/// cell_graph_dbscan and the labels come back in input order. The fused
/// traversal has nothing to fuse with here, so the combination is
/// rejected rather than silently served by a different algorithm.
template <typename Point>
ClusterResult run_cell_graph_mode(const cudasim::DeviceConfig& config,
                                  std::span<const Point> points, float eps,
                                  int minpts, ClusterMode mode,
                                  HybridTimings& local,
                                  WallTimer& total_timer) {
  if (mode == ClusterMode::kFused) {
    throw std::invalid_argument(
        "hybrid_dbscan: ClusterQuality::kCellGraph is incompatible with "
        "ClusterMode::kFused — the cell graph replaces the traversal "
        "kernels the fused path would fuse into");
  }
  WallTimer phase_timer;
  CellGraphReport cg;
  ClusterResult out = cell_graph_dbscan(points, eps, minpts, config, &cg);
  local.dbscan_seconds = phase_timer.seconds();
  local.total_seconds = total_timer.seconds();
  local.modeled_gpu_table_seconds = cg.modeled_seconds;
  local.modeled_total_seconds = cg.modeled_seconds;
  local.build_report.total_pairs = cg.distance_tests;
  local.build_report.table_materialized = false;
  return out;
}

template <typename Point>
ClusterResult hybrid_dbscan_impl(const std::vector<cudasim::Device*>& devices,
                                 std::span<const Point> points, float eps,
                                 int minpts, HybridTimings* timings,
                                 const ShardedBuildOptions& options,
                                 ClusterMode mode) {
  HybridTimings local;
  WallTimer total_timer;
  const BatchPolicy& policy = options.policy;

  if (policy.quality.mode == ClusterQuality::kCellGraph) {
    if (devices.empty() || devices.front() == nullptr) {
      throw std::invalid_argument("hybrid_dbscan: no devices");
    }
    const ClusterResult out = run_cell_graph_mode(
        devices.front()->config(), points, eps, minpts, mode, local,
        total_timer);
    if (timings != nullptr) *timings = local;
    return out;
  }

  if (mode == ClusterMode::kFused) {
    reject_sharded_fused("hybrid_dbscan", options.num_shards);
  }

  WallTimer phase_timer;
  const BasicGridIndex<Point> index = [&] {
    TRACE_SPAN("index", "grid_index n=%zu", points.size());
    return build_grid_index<Point>(points, eps);
  }();
  local.index_seconds = phase_timer.seconds();

  phase_timer.reset();
  ClusterResult indexed;
  if (mode == ClusterMode::kBatchTable) {
    // A 2-D index may be built in row slabs (core/sharded_build.hpp); the
    // slabs are 2-D, so a 3-D index goes whole to every device.
    const NeighborTable table = [&] {
      if constexpr (std::is_same_v<Point, Point2>) {
        return build_fleet_neighbor_table(devices, index, eps, options,
                                          &local.build_report);
      } else {
        return NeighborTableBuilder(devices, policy)
            .build(index, eps, &local.build_report);
      }
    }();
    local.gpu_table_seconds = phase_timer.seconds();

    phase_timer.reset();
    indexed = dbscan_neighbor_table(table, minpts);
    local.dbscan_seconds = phase_timer.seconds();
  } else {
    // Fused: the index is replicated across the devices and the strided
    // batches interleave — no slab sharding applies, since the kernels
    // union global ids directly.
    StreamingDbscan consumer(index.size(), minpts);
    consumer.set_cancel_token(policy.cancel);
    local.build_report = fused_cluster(devices, index, eps, consumer, policy);
    local.fused = true;
    local.gpu_table_seconds = phase_timer.seconds();

    phase_timer.reset();
    indexed = consumer.finalize();
    local.dbscan_seconds = phase_timer.seconds();
    local.peak_consumer_bytes = consumer.peak_memory_bytes();
  }
  local.total_seconds = total_timer.seconds();
  local.modeled_gpu_table_seconds = local.build_report.modeled_table_seconds;
  local.modeled_total_seconds = local.index_seconds +
                                local.modeled_gpu_table_seconds +
                                local.dbscan_seconds;
  if (timings != nullptr) *timings = local;
  return unmap_labels(indexed, index.original_ids);
}

}  // namespace

ClusterResult unmap_labels(const ClusterResult& indexed,
                           std::span<const PointId> original_ids) {
  ClusterResult out;
  out.num_clusters = indexed.num_clusters;
  out.labels.resize(indexed.labels.size());
  for (std::size_t i = 0; i < indexed.labels.size(); ++i) {
    out.labels[original_ids[i]] = indexed.labels[i];
  }
  out.finalize_noise_count();
  return out;
}

ClusterResult hybrid_dbscan(const std::vector<cudasim::Device*>& devices,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings,
                            const ShardedBuildOptions& options,
                            ClusterMode mode) {
  return hybrid_dbscan_impl(devices, points, eps, minpts, timings, options,
                            mode);
}

ClusterResult hybrid_dbscan(const std::vector<cudasim::Device*>& devices,
                            std::span<const Point3> points, float eps,
                            int minpts, HybridTimings* timings,
                            const ShardedBuildOptions& options,
                            ClusterMode mode) {
  if (options.num_shards > 1 || options.plan != nullptr) {
    throw std::invalid_argument(
        "hybrid_dbscan: 3-D points replicate the whole index on every "
        "device and cannot be sharded (num_shards = " +
        std::to_string(options.num_shards) +
        "); the shard planner cuts 2-D row slabs");
  }
  return hybrid_dbscan_impl(devices, points, eps, minpts, timings, options,
                            mode);
}

ClusterResult hybrid_dbscan(cudasim::Device& device,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings,
                            const BatchPolicy& policy, ClusterMode mode) {
  ShardedBuildOptions options;
  options.policy = policy;
  return hybrid_dbscan(std::vector<cudasim::Device*>{&device}, points, eps,
                       minpts, timings, options, mode);
}

ClusterResult hybrid_dbscan(cudasim::Device& device,
                            std::span<const Point3> points, float eps,
                            int minpts, HybridTimings* timings,
                            const BatchPolicy& policy, ClusterMode mode) {
  ShardedBuildOptions options;
  options.policy = policy;
  return hybrid_dbscan(std::vector<cudasim::Device*>{&device}, points, eps,
                       minpts, timings, options, mode);
}

}  // namespace hdbscan
