// Multi-device sharded construction of the neighbor table T.
//
// Where NeighborTableBuilder's multi-device mode replicates the whole
// index on every device and stripes *batches* across them, the sharded
// build partitions the *data*: plan_shards cuts the grid into k row slabs
// (core/shard_planner.hpp), each shard uploads only its slab plus the
// eps-halo to one device, runs the ordinary single-device batch pipeline
// over its owned points, and the shard tables are translated into the
// global id space and merged through NeighborTable::absorb_shard. Each
// device therefore holds ~1/k of the index and does ~1/k of the distance
// tests — the scaling regime of a GPU-per-node deployment where the index
// itself no longer fits (or no longer uploads cheaply) on one device.
//
// Exactly-once cross-shard edges: ownership is row-homogeneous and the
// shard-local point order is a monotone relabeling of the global order, so
// under ScanMode::kHalf a cross pair (a, b) is forward in exactly one
// owner's rows — no dedup structure is needed on the fault-free path. The
// per-key dedup ledger below exists only for the resilience ladder: when a
// device dies mid-build its shard is re-partitioned onto the survivors,
// and keys whose counts/rows already reached the caller's sink must not be
// delivered again.
//
// Half-scan expansion is deferred: shard builds run with
// BatchPolicy::expand_half = false (a shard-local expansion would write
// ghost-key rows that collide at the merge) and the orchestrator expands
// the merged forward table once, globally — exactly the single-device
// schedule, so the final table and any labels derived from it are
// bit-identical to a one-device build.
#pragma once

#include <vector>

#include "core/neighbor_table_builder.hpp"
#include "core/shard_planner.hpp"
#include "cudasim/device.hpp"
#include "dbscan/batch_sink.hpp"
#include "dbscan/neighbor_table.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {

struct ShardedBuildOptions {
  /// Requested shard count k. 0 = one shard per device. Values above the
  /// device count queue multiple shards per device (correct, but the
  /// modeled timeline serializes them); the planner additionally clamps to
  /// the grid's row count and drops slabs that own no points.
  unsigned num_shards = 0;
  /// Per-shard batch policy template. The orchestrator overrides
  /// expand_half (always deferred), metrics_labels (each shard publishes
  /// under "shard=<uid>"), and the failover/host_fallback rungs (device
  /// loss is handled here, by re-partitioning; resilience.host_fallback
  /// still decides whether a fully dead fleet finishes on the host or
  /// throws DeviceLost).
  BatchPolicy policy;
  /// Reusable partition. The plan for a given (index, eps-geometry) is
  /// deterministic, so callers building the same index repeatedly — an
  /// eps-reuse sweep, repeated label streams, benchmark trials — compute
  /// it once with plan_shards and point here; `num_shards` is then
  /// ignored and the plan's shards are built (the orchestrator works on
  /// copies; the plan stays reusable). Null means plan internally, with
  /// ShardPlan::critical_seconds charged to the modeled serial phase the
  /// same way a one-off build pays it. Like the grid index itself, a
  /// *reused* plan is setup, not build work, so it is not re-charged per
  /// build. Fault re-partitions always re-plan internally and are always
  /// charged. The plan must have been computed for this exact index.
  const ShardPlan* plan = nullptr;
};

/// Builds T for `index` and `eps` sharded across `devices`. Labels-stream
/// consumers pass `sink` (deliveries carry *global* keys via the explicit
/// key span) and may skip materialization, exactly as with
/// NeighborTableBuilder::build. Throws cudasim::DeviceLost when every
/// device dies and host fallback is off; propagates other hard errors.
NeighborTable build_sharded_neighbor_table(
    const std::vector<cudasim::Device*>& devices, const GridIndex& index,
    float eps, const ShardedBuildOptions& options,
    BuildReport* report = nullptr, BatchSink* sink = nullptr,
    bool materialize_table = true);

/// The build-path choice of the fleet front doors (hybrid_dbscan,
/// run_multi_clustering): a fleet of one device with num_shards <= 1 and
/// no shard plan builds the whole index with NeighborTableBuilder (a
/// one-shard sharded build would only add the slab copy and the
/// translation); any other fleet goes to build_sharded_neighbor_table.
/// Same arguments and contract as both.
NeighborTable build_fleet_neighbor_table(
    const std::vector<cudasim::Device*>& devices, const GridIndex& index,
    float eps, const ShardedBuildOptions& options,
    BuildReport* report = nullptr, BatchSink* sink = nullptr,
    bool materialize_table = true);

}  // namespace hdbscan
