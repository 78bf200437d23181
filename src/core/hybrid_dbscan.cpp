#include "core/hybrid_dbscan.hpp"

#include <algorithm>
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
ClusterResult run_cell_graph_mode(const cudasim::DeviceConfig& config,
                                  std::span<const Point2> points, float eps,
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

/// Tail of the streaming and fused modes: finalize the consumer that
/// ingested the build and fill the streaming timing fields.
/// `local.index_seconds`, `local.gpu_table_seconds` and
/// `local.build_report` must already be set.
ClusterResult finish_streamed(StreamingDbscan& consumer,
                              const GridIndex& index, HybridTimings& local,
                              WallTimer& total_timer) {
  WallTimer phase_timer;
  const ClusterResult indexed = consumer.finalize();
  local.dbscan_seconds = phase_timer.seconds();

  const StreamingDbscan::Stats& st = consumer.stats();
  local.streamed = true;
  local.consume_seconds = st.consume_seconds;
  local.finalize_seconds = st.finalize_seconds;
  local.overlap_fraction = st.overlap_fraction();
  local.streamed_edge_fraction = st.streamed_fraction();
  local.peak_consumer_bytes = consumer.peak_memory_bytes();
  local.total_seconds = total_timer.seconds();
  local.modeled_gpu_table_seconds = local.build_report.modeled_table_seconds;
  // On the reference host the consumers drain completed staging buffers
  // (or, fused, union inside the kernel) on their own cores, so the union
  // work adds its slowest thread — not the summed CPU time — to the
  // critical path: response time is max(build, slowest union thread) +
  // tail.
  local.modeled_total_seconds =
      local.index_seconds +
      std::max(local.modeled_gpu_table_seconds,
               st.max_thread_consume_seconds) +
      st.finalize_seconds;
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

ClusterResult hybrid_dbscan(cudasim::Device& device,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings,
                            const BatchPolicy& policy, ClusterMode mode) {
  ShardedBuildOptions options;
  options.policy = policy;
  return hybrid_dbscan(std::vector<cudasim::Device*>{&device}, points, eps,
                       minpts, timings, options, mode);
}

ClusterResult hybrid_dbscan(const std::vector<cudasim::Device*>& devices,
                            std::span<const Point2> points, float eps,
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
  // Under kSubsampled every kernel keeps an expected `sample_rate`
  // fraction of each neighborhood, so the density threshold rescales to
  // minpts * s (the SNG estimator) wherever degrees are thresholded.
  const int run_minpts = policy.quality.scaled_minpts(minpts);

  WallTimer phase_timer;
  const GridIndex index = [&] {
    TRACE_SPAN("index", "grid_index n=%zu", points.size());
    return build_grid_index(points, eps);
  }();
  local.index_seconds = phase_timer.seconds();

  phase_timer.reset();
  if (mode == ClusterMode::kBatchTable) {
    const NeighborTable table = build_fleet_neighbor_table(
        devices, index, eps, options, &local.build_report);
    local.gpu_table_seconds = phase_timer.seconds();

    phase_timer.reset();
    const ClusterResult indexed = dbscan_neighbor_table(table, run_minpts);
    local.dbscan_seconds = phase_timer.seconds();

    local.total_seconds = total_timer.seconds();
    local.modeled_gpu_table_seconds = local.build_report.modeled_table_seconds;
    local.modeled_total_seconds = local.index_seconds +
                                  local.modeled_gpu_table_seconds +
                                  local.dbscan_seconds;
    if (timings != nullptr) *timings = local;
    return unmap_labels(indexed, index.original_ids);
  }

  StreamingDbscan consumer(index.size(), run_minpts);
  if (mode == ClusterMode::kFused) {
    // Fused mode replicates the (whole) index across the devices and
    // interleaves the strided batches — no slab sharding applies, since
    // the kernels union global ids directly.
    consumer.set_cancel_token(policy.cancel);
    local.build_report = fused_cluster(devices, index, eps, consumer, policy);
    local.fused = true;
  } else {
    // Streaming: the union-find consumer ingests every CSR batch on the
    // builder's stream threads, so the host clustering work runs while the
    // GPU is still filling later batches — and T is never materialized (no
    // shard merge, no half-table expansion, no table memory).
    build_fleet_neighbor_table(devices, index, eps, options,
                               &local.build_report, &consumer,
                               /*materialize_table=*/false);
  }
  local.gpu_table_seconds = phase_timer.seconds();
  const ClusterResult out =
      finish_streamed(consumer, index, local, total_timer);
  if (timings != nullptr) *timings = local;
  return out;
}

}  // namespace hdbscan
