#include "core/hybrid_dbscan.hpp"

#include <stdexcept>

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
                                 const BatchPolicy& policy, ClusterMode mode) {
  HybridTimings local;
  WallTimer total_timer;

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

  WallTimer phase_timer;
  const BasicGridIndex<Point> index = [&] {
    TRACE_SPAN("index", "grid_index n=%zu", points.size());
    return build_grid_index<Point>(points, eps);
  }();
  local.index_seconds = phase_timer.seconds();

  phase_timer.reset();
  ClusterResult indexed;
  if (mode == ClusterMode::kBatchTable) {
    const NeighborTable table = NeighborTableBuilder(devices, policy)
                                    .build(index, eps, &local.build_report);
    local.gpu_table_seconds = phase_timer.seconds();

    phase_timer.reset();
    indexed = dbscan_neighbor_table(table, minpts);
    local.dbscan_seconds = phase_timer.seconds();
  } else {
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
                            const BatchPolicy& policy, ClusterMode mode) {
  return hybrid_dbscan_impl(devices, points, eps, minpts, timings, policy,
                            mode);
}

ClusterResult hybrid_dbscan(const std::vector<cudasim::Device*>& devices,
                            std::span<const Point3> points, float eps,
                            int minpts, HybridTimings* timings,
                            const BatchPolicy& policy, ClusterMode mode) {
  return hybrid_dbscan_impl(devices, points, eps, minpts, timings, policy,
                            mode);
}

ClusterResult hybrid_dbscan(cudasim::Device& device,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings,
                            const BatchPolicy& policy, ClusterMode mode) {
  return hybrid_dbscan({&device}, points, eps, minpts, timings, policy, mode);
}

ClusterResult hybrid_dbscan(cudasim::Device& device,
                            std::span<const Point3> points, float eps,
                            int minpts, HybridTimings* timings,
                            const BatchPolicy& policy, ClusterMode mode) {
  return hybrid_dbscan({&device}, points, eps, minpts, timings, policy, mode);
}

}  // namespace hdbscan
