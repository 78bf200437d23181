// Multi-clustering pipeline (paper §VII-E).
//
// Clustering a dataset across a set of parameter variants V maximizes
// throughput when the construction of T (GPU-bound) for variant v_{i+1}
// overlaps with DBSCAN (host-bound) for v_i. One producer thread builds
// neighbor tables; a small pool of consumer threads runs the modified
// DBSCAN on them, connected by a bounded queue. The non-pipelined mode
// runs the same variants back-to-back for comparison (Figure 4).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/failure.hpp"
#include "core/sharded_build.hpp"
#include "cudasim/device.hpp"
#include "dbscan/cluster_result.hpp"
#include "dbscan/streaming_dbscan.hpp"

namespace hdbscan {

/// One DBSCAN parameterization v_i = (eps_i, minpts_i) (paper §III).
struct Variant {
  float eps = 0.0f;
  int minpts = 4;
};

/// How one variant of a multi-variant run ended. A failed variant no
/// longer aborts its siblings: the pipeline records the failure here and
/// keeps going, rethrowing the first error only when *every* variant
/// failed (so single-variant callers still see their exception).
struct VariantOutcome {
  bool ok = true;
  /// The variant's table was built host-side because the device(s) were
  /// already lost when its turn came.
  bool host_fallback = false;
  std::string error;  ///< what() of the failure; empty when ok
  /// Structured cause of the failure (kNone when ok) — what callers
  /// branch on instead of parsing `error`.
  FailureReason failure = FailureReason::kNone;
};

struct VariantTiming {
  Variant variant;
  double table_seconds = 0.0;   ///< index + GPU neighbor-table wall time
  double dbscan_seconds = 0.0;  ///< host clustering time
  /// Index build + modeled T construction (reference-hardware GPU model).
  double modeled_table_seconds = 0.0;
  std::int32_t num_clusters = 0;
  std::size_t noise_count = 0;
  /// Streaming mode: this variant's unions ran during its own build.
  bool streamed = false;
  double overlap_fraction = 0.0;  ///< consume / (consume + finalize)
  VariantOutcome outcome;
};

struct PipelineOptions {
  bool pipelined = true;
  unsigned num_consumers = 3;    ///< paper: "up to 3 threads consume T"
  unsigned queue_capacity = 3;   ///< bounds in-flight *table count*
  /// Additionally bounds the in-flight payload *bytes* (0 = legacy
  /// count-only). A large-eps sweep's multi-GB tables stop admitting once
  /// the budget is reached — but an empty queue always admits one item,
  /// whatever its size, so an over-budget single table can never
  /// deadlock the producer.
  std::uint64_t queue_bytes_budget = 0;
  BatchPolicy policy;
  bool keep_results = false;     ///< retain labels (costs memory)
  /// kStreaming: each variant's core-core unions run on the builder's
  /// stream threads during its own build and T is never materialized —
  /// intra-variant overlap on top of the paper's inter-variant pipeline.
  /// kFused: the traversal kernel itself counts degrees and unions
  /// both-core edges (core/fused_clustering) — not even the CSR passes
  /// run; honors policy.index_backend for grid-vs-BVH traversal.
  ClusterMode cluster_mode = ClusterMode::kBatchTable;
  /// Shards per variant's table build (0 = one shard per live device, the
  /// sharded orchestrator's default). A fleet of one device with
  /// num_shards <= 1 builds the whole index unsharded (see
  /// build_fleet_neighbor_table).
  unsigned num_shards = 0;
};

struct PipelineReport {
  double total_seconds = 0.0;
  std::vector<VariantTiming> variants;   ///< in input order
  std::vector<ClusterResult> results;    ///< only when keep_results
};

/// Clusters `points` for every variant on a fleet of devices. With
/// options.pipelined the producer/consumer overlap (bounded queue: count +
/// byte budget, one-item minimum) is on; otherwise variants run
/// sequentially. Each variant's table is built by
/// build_fleet_neighbor_table: a fleet of one device with num_shards <= 1
/// builds the whole index, any other fleet goes through the sharded
/// orchestrator — eps-halo row slabs, re-partitioning on device loss, the
/// whole §12 ladder. Once every device is lost, later variants build their
/// tables host-side.
PipelineReport run_multi_clustering(
    const std::vector<cudasim::Device*>& devices,
    std::span<const Point2> points, std::span<const Variant> variants,
    const PipelineOptions& options = {});

/// One device is a fleet of one: forwards to the fleet overload.
PipelineReport run_multi_clustering(cudasim::Device& device,
                                    std::span<const Point2> points,
                                    std::span<const Variant> variants,
                                    const PipelineOptions& options = {});

}  // namespace hdbscan
