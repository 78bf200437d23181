// Multi-clustering pipeline (paper §VII-E).
//
// Clustering a dataset across a set of parameter variants V maximizes
// throughput when the construction of T (GPU-bound) for variant v_{i+1}
// overlaps with DBSCAN (host-bound) for v_i. One producer thread builds
// neighbor tables; a small pool of consumer threads runs the modified
// DBSCAN on them, connected by a bounded queue. The non-pipelined mode
// runs the same variants back-to-back for comparison (Figure 4).
//
// T pays for itself when it is reused across minpts (§VII-F); a sweep of
// one-off variants never reads a table twice. So the pipeline's default
// is ClusterMode::kFused: the producer runs each variant's fused passes
// and the consumers run only their finalize tails. The
// paper's table pipeline stays one option away (ClusterMode::kBatchTable).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/failure.hpp"
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
  /// The fused passes produced the labels: table_seconds is the passes,
  /// dbscan_seconds the finalize tail.
  bool fused = false;
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
  /// kFused (the default): a capped core pass counts degrees and a union
  /// pass unions core-core pairs (core/fused_clustering) — no table, no fill
  /// pass, no BFS. A sweep of one-off (eps, minpts) variants never reads a
  /// table twice, so nothing is lost by skipping it.
  /// kBatchTable: the paper's pipeline — T of v_{i+1} builds while v_i
  /// clusters over it (Alg. 4's BFS). Ask for it to reproduce the paper's
  /// figures.
  ClusterMode cluster_mode = ClusterMode::kFused;
};

struct PipelineReport {
  double total_seconds = 0.0;
  std::vector<VariantTiming> variants;   ///< in input order
  std::vector<ClusterResult> results;    ///< only when keep_results
};

/// Clusters `points` for every variant on a fleet of devices. With
/// options.pipelined the producer/consumer overlap (bounded queue: count +
/// byte budget, one-item minimum) is on; otherwise variants run
/// sequentially. Every variant replicates its index on the live devices
/// and stripes its batches over them (the engine's ladder, DESIGN.md §8,
/// handles faults). By default each variant runs the fused passes and a
/// consumer runs its finalize tail; the labels equal the one-value banded
/// pass (dbscan_parallel) over the variant's table. Under kBatchTable each
/// variant's table is built by NeighborTableBuilder and clustered with
/// BFS. Once every device is lost, later variants build their tables
/// host-side and cluster them with the banded pass (BFS under
/// kBatchTable). policy.quality = kCellGraph runs the host cell graph per
/// variant under every mode.
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
