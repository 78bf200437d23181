// HYBRID-DBSCAN in three dimensions: 3-D grid index and kernels feed the
// same neighbor table, so the host-side clustering, reuse and comparison
// machinery is shared with the 2-D pipeline unchanged.
#pragma once

#include <span>

#include "cudasim/device.hpp"
#include "dbscan/cluster_result.hpp"
#include "dbscan/neighbor_table.hpp"
#include "index/grid_index3.hpp"

namespace hdbscan {

struct Build3Report {
  std::uint64_t total_pairs = 0;
  double table_seconds = 0.0;
  double modeled_table_seconds = 0.0;
  std::uint64_t kernel_flops = 0;  ///< distance-test FLOPs across both passes
  double expand_seconds = 0.0;     ///< host transpose of forward rows (kHalf)
};

/// Builds the eps-neighbor table for a 3-D dataset on the device:
/// count pass (exact sizing) -> scan -> fill kernel -> D2H. Under
/// ScanMode::kHalf (the default) each pair is distance-tested once, only
/// forward rows cross PCIe, and one host transpose restores the full
/// table. Staging and scratch come from the device's BufferPool, so the
/// pinned page-lock cost is paid once per process, not per call.
NeighborTable build_neighbor_table_device3(cudasim::Device& device,
                                           const GridIndex3& index, float eps,
                                           Build3Report* report = nullptr,
                                           ScanMode mode = ScanMode::kHalf);

/// End-to-end 3-D HYBRID-DBSCAN; labels are returned in input order.
/// (The 3-D cell graph is core/cell_graph's cell_graph_dbscan3.)
ClusterResult hybrid_dbscan3(cudasim::Device& device,
                             std::span<const Point3> points, float eps,
                             int minpts, Build3Report* report = nullptr,
                             ScanMode mode = ScanMode::kHalf);

/// Fused no-table 3-D clustering (see core/fused_clustering for the 2-D
/// orchestrated version): a core pass counts exact degrees under kFull,
/// then a union pass under `mode` unions core-core pairs and folds border
/// keys straight into the consumer, so neither the fill pass nor any
/// result transfer runs and T is never materialized. 3-D has no batch
/// engine or ladder, so each pass is one synchronous launch; labels are
/// bit-identical to the banded pass. `report` fields:
/// total_pairs counts cross pairs, kernel_flops both passes' distance
/// tests; expand_seconds stays 0 (nothing to transpose).
ClusterResult fused_dbscan3(cudasim::Device& device,
                            std::span<const Point3> points, float eps,
                            int minpts, Build3Report* report = nullptr,
                            ScanMode mode = ScanMode::kHalf);

/// Host oracle (tests): T built by direct 3-D grid queries.
NeighborTable build_neighbor_table_host3(const GridIndex3& index, float eps);

}  // namespace hdbscan
