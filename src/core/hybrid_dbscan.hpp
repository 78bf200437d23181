// HYBRID-DBSCAN (paper Algorithm 4): grid index construction, GPU neighbor
// table construction with batching, and host-side DBSCAN over T.
#pragma once

#include <span>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/neighbor_table_builder.hpp"
#include "core/sharded_build.hpp"
#include "cudasim/device.hpp"
#include "dbscan/cluster_result.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/streaming_dbscan.hpp"

namespace hdbscan {

/// Per-phase wall times of one HYBRID-DBSCAN run. `gpu_table_seconds` is
/// the "GPU time" of the paper's Figure 3: constructing T, part of which
/// (the append into B) occurs on the host.
struct HybridTimings {
  double index_seconds = 0.0;
  double gpu_table_seconds = 0.0;  ///< simulator wall time of the T build
  double dbscan_seconds = 0.0;
  double total_seconds = 0.0;      ///< simulator wall total
  /// Modeled T-construction time on the reference hardware (K20c) — the
  /// simulator executes kernels on the host CPU, so gpu_table_seconds is
  /// CPU time, not GPU time. See BuildReport::modeled_table_seconds.
  double modeled_gpu_table_seconds = 0.0;
  /// index build + modeled T construction + host DBSCAN: the response
  /// time a machine with the paper's GPU would see. In streaming mode the
  /// union work overlaps the build on the reference host, so this is
  /// index + max(modeled build, host union) + the resolution tail.
  double modeled_total_seconds = 0.0;
  BuildReport build_report;

  // --- streaming mode (ClusterMode::kStreaming / kFused) ---
  bool fused = false;  ///< the fused no-table traversal produced the labels
  bool streamed = false;
  double consume_seconds = 0.0;   ///< union work hidden under the build
  double finalize_seconds = 0.0;  ///< post-build resolution tail
  double overlap_fraction = 0.0;  ///< consume / (consume + finalize)
  double streamed_edge_fraction = 0.0;  ///< edges settled mid-build
  std::size_t peak_consumer_bytes = 0;  ///< replaces the table footprint
};

/// Runs HYBRID-DBSCAN for a single (eps, minpts) on a fleet of devices.
/// The returned labels are in the order of `points` (the grid index's
/// internal reordering is unmapped before returning). T is built by
/// build_fleet_neighbor_table: a fleet of one device with num_shards <= 1
/// builds the whole index; any other fleet builds it sharded (one grid
/// slab plus its eps-halo per shard; see core/sharded_build.hpp), with
/// labels bit-identical to the one-device run.
/// ClusterMode::kStreaming clusters the CSR batches as the GPU produces
/// them and never materializes T; on a sharded build the cross-shard
/// core-core unions reach the same StreamingDbscan consumer, fed global
/// keys by the shard translation layer. ClusterMode::kFused goes further:
/// the traversal kernel itself counts degrees and unions both-core edges
/// (core/fused_clustering) over the whole index replicated on every
/// device, so even the CSR passes and value transfers disappear — combine
/// with policy.index_backend = IndexBackend::kBvh for the tree-traversal
/// variant.
ClusterResult hybrid_dbscan(const std::vector<cudasim::Device*>& devices,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings = nullptr,
                            const ShardedBuildOptions& options = {},
                            ClusterMode mode = ClusterMode::kBatchTable);

/// One device is a fleet of one: forwards to the fleet overload.
ClusterResult hybrid_dbscan(cudasim::Device& device,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings = nullptr,
                            const BatchPolicy& policy = {},
                            ClusterMode mode = ClusterMode::kBatchTable);

/// Remaps labels from the grid index's point order back to input order.
ClusterResult unmap_labels(const ClusterResult& indexed,
                           std::span<const PointId> original_ids);

}  // namespace hdbscan
