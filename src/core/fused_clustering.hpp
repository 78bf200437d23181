// Fused no-table clustering (ClusterMode::kFused): FDBSCAN's passes
// (Prokopenko et al.) as batch lists on the table builder's batch engine
// (core/batch_engine.hpp), straight into a StreamingDbscan. With T =
// max(minpts, 2):
//  * the core pass counts each point's degree (self included) under
//    ScanMode::kFull and stops at T — FDBSCAN's early exit, the own grid
//    cell first — storing min(degree, T) in the consumer;
//  * the mark pass, run only when some point has 2 <= degree < minpts:
//    each such point (exact, below T) flags its core neighbors;
//  * the recount pass, run only when something was flagged: each flagged
//    core stores its exact degree, which the border rule reads;
//  * the union pass starts once every degree is in, so core status is
//    final: it unions core-core pairs and folds each core/non-core pair
//    into the non-core point's border key. On a 2-D grid a core point
//    links each dense eps/2 sub-cell (minpts or more residents, all mutual
//    neighbors) of a well-filled cell with one union and skips the rest
//    of it (DESIGN.md §15).
// A degree is then exact below T or on a flagged point, and T otherwise
// (expected_fused_degrees), and the union pass and finalize() read only
// core status and flagged degrees: the labels are bit-identical to
// dbscan_parallel over the full table. T is never allocated on either
// side of the bus: no fill pass and no result transfer. Every counter
// depends on the input alone.
//
// Each pass runs under the engine's ladder: transient faults retry (a
// faulted launch changed nothing, and a pass's stores, flags and unions
// repeat harmlessly), a cancelled token stops every stream, a lost
// device's batches — also one lost between the passes — fail over to the
// survivors, and with no device left the host finishes the pass with the
// pass's own kernel body over the same grid.
#pragma once

#include <cstdint>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/neighbor_table_builder.hpp"
#include "cudasim/device.hpp"
#include "dbscan/neighbor_table.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {

/// Runs the fused passes over `index` (a 2-D or 3-D grid, which fixes the
/// id order exactly as for the table pipelines) and fills `consumer`'s
/// degrees, union-find and border keys in place. The caller
/// owns finalize(): labels come from consumer.finalize() after this
/// returns. The report counts capped_points, recounted_points and the
/// dense sub-cells the union pass linked (dense_runs); its d2h_bytes is 0,
/// and its total_pairs stays 0 — capped degrees do not add up to the pair
/// count. Honors policy.scan_mode (the union pass's; kHalf walks the
/// forward half of the stencil), the resilience ladder, cancellation and
/// metrics labels; the buffer and estimation fields are ignored — there
/// is nothing to size or estimate.
template <typename Point>
BuildReport fused_cluster(const std::vector<cudasim::Device*>& devices,
                          const BasicGridIndex<Point>& index, float eps,
                          StreamingDbscan& consumer,
                          const BatchPolicy& policy = {});

/// Single-device convenience overload.
template <typename Point>
BuildReport fused_cluster(cudasim::Device& device,
                          const BasicGridIndex<Point>& index, float eps,
                          StreamingDbscan& consumer,
                          const BatchPolicy& policy = {}) {
  return fused_cluster(std::vector<cudasim::Device*>{&device}, index, eps,
                       consumer, policy);
}

/// The degree contract a fused_cluster run at `minpts` leaves in its
/// consumer, derived from the full table of the same index, and the
/// report counts that go with it.
struct FusedDegrees {
  std::vector<std::uint32_t> degree;  ///< consumer.degree(i), per point
  std::uint64_t capped_points = 0;
  std::uint64_t recounted_points = 0;
};
[[nodiscard]] FusedDegrees expected_fused_degrees(const NeighborTable& table,
                                                  int minpts);

}  // namespace hdbscan
