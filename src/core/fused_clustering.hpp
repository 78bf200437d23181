// Fused no-table clustering (ClusterMode::kFused) — the FDBSCAN-style
// fast path: one traversal launch per batch computes degrees *and* unions
// both-core edges straight into the StreamingDbscan consumer's union-find.
// The neighbor table T is never allocated, on either side of the bus:
// the CSR count/fill passes, the exclusive scan, the offset and value
// transfers and the delivery hop all disappear. Only the edges a kernel
// thread could not decide yet (an endpoint still below minpts at test
// time) cross the kernel boundary, and the finalize() tail settles them
// exactly like the streaming mode's deferred buffer.
//
// Correctness rests on the same two facts the streaming consumer uses:
// core status is monotone (degrees only grow), and disjoint-set DBSCAN is
// order-independent over core-core edges. A kernel-side union is therefore
// final, and the labels are bit-identical to batch DBSCAN over the full
// table.
//
// The degradation ladder matches the table builder's: transient faults
// retry the launch (injected faults fire before any block runs, so a
// faulted launch mutated nothing and the retry is exactly-once), a lost
// device's batches fail over to the survivors, and when no device remains
// the unfinished batches complete on the host — through the packed STR
// R-tree under the tree backends' id-ownership rule, or the grid's forward
// stencil under IndexBackend::kGrid, so the pair cover never mixes rules.
#pragma once

#include <vector>

#include "core/batch_planner.hpp"
#include "core/neighbor_table_builder.hpp"
#include "cudasim/device.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {

/// Runs the fused traversal over `index` (whole-index builds only; the
/// grid index fixes the id order exactly as for the table pipelines) and
/// mutates `consumer`'s degrees and union-find in place. The caller owns
/// finalize(): labels come from consumer.finalize() after this returns.
/// Honors policy.index_backend (grid stencil vs packed-BVH traversal),
/// policy.scan_mode (kHalf tests each pair once), the resilience ladder,
/// cancellation and metrics labels; the buffer and estimation fields are
/// ignored — there is nothing to size or estimate.
BuildReport fused_cluster(const std::vector<cudasim::Device*>& devices,
                          const GridIndex& index, float eps,
                          StreamingDbscan& consumer,
                          const BatchPolicy& policy = {});

/// Single-device convenience overload.
BuildReport fused_cluster(cudasim::Device& device, const GridIndex& index,
                          float eps, StreamingDbscan& consumer,
                          const BatchPolicy& policy = {});

}  // namespace hdbscan
