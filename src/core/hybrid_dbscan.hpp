// HYBRID-DBSCAN (paper Algorithm 4): grid index construction, GPU neighbor
// table construction with batching, and host-side DBSCAN over T — for 2-D
// and 3-D points through one body.
#pragma once

#include <span>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/neighbor_table_builder.hpp"
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
  double dbscan_seconds = 0.0;     ///< BFS, or the fused finalize tail
  double total_seconds = 0.0;      ///< simulator wall total
  /// Modeled T-construction time on the reference hardware (K20c) — the
  /// simulator executes kernels on the host CPU, so gpu_table_seconds is
  /// CPU time, not GPU time. See BuildReport::modeled_table_seconds.
  double modeled_gpu_table_seconds = 0.0;
  /// index build + modeled T construction + host DBSCAN: the response
  /// time a machine with the paper's GPU would see. In fused mode the
  /// modeled passes stand in for the build and the finalize tail for
  /// DBSCAN.
  double modeled_total_seconds = 0.0;
  BuildReport build_report;

  // --- fused mode (ClusterMode::kFused) ---
  bool fused = false;  ///< the fused no-table traversal produced the labels
  std::size_t peak_consumer_bytes = 0;  ///< replaces the table footprint
};

/// Runs HYBRID-DBSCAN for a single (eps, minpts) on a fleet of devices,
/// for 2-D or 3-D points through one body. The returned labels are in the
/// order of `points` (the grid index's internal reordering is unmapped
/// before returning). The whole index is replicated on every device and
/// the batches are striped over devices x streams (the paper's batching
/// scheme, §VI, dealt to a fleet), so any fleet gives labels bit-identical
/// to one device. ClusterMode::kBatchTable builds T with
/// NeighborTableBuilder and clusters it with Alg. 4's BFS.
/// ClusterMode::kFused never materializes T: a capped core pass counts
/// degrees, the cores next to non-core points are recounted, and a union
/// pass unions core-core pairs and folds border keys (core/fused_clustering)
/// on the same striped fleet, so the fill pass and every result transfer
/// disappear. policy.quality = kCellGraph runs the host cell graph.
ClusterResult hybrid_dbscan(const std::vector<cudasim::Device*>& devices,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings = nullptr,
                            const BatchPolicy& policy = {},
                            ClusterMode mode = ClusterMode::kBatchTable);
ClusterResult hybrid_dbscan(const std::vector<cudasim::Device*>& devices,
                            std::span<const Point3> points, float eps,
                            int minpts, HybridTimings* timings = nullptr,
                            const BatchPolicy& policy = {},
                            ClusterMode mode = ClusterMode::kBatchTable);

/// One device is a fleet of one: forwards to the fleet overload.
ClusterResult hybrid_dbscan(cudasim::Device& device,
                            std::span<const Point2> points, float eps,
                            int minpts, HybridTimings* timings = nullptr,
                            const BatchPolicy& policy = {},
                            ClusterMode mode = ClusterMode::kBatchTable);
ClusterResult hybrid_dbscan(cudasim::Device& device,
                            std::span<const Point3> points, float eps,
                            int minpts, HybridTimings* timings = nullptr,
                            const BatchPolicy& policy = {},
                            ClusterMode mode = ClusterMode::kBatchTable);

/// Remaps labels from the grid index's point order back to input order.
ClusterResult unmap_labels(const ClusterResult& indexed,
                           std::span<const PointId> original_ids);

}  // namespace hdbscan
