// Batched construction of the neighbor table T on the (simulated) GPU —
// the heart of HYBRID-DBSCAN (paper §V and §VI).
//
// Per epsilon:
//   1. upload the grid index (D, G, A, S) to the device;
//   2. run the count kernel on a 1% sample to estimate the result size;
//   3. plan n_b and b_b via the batching equation (Eq. 1);
//   4. execute the batches round-robin across three CUDA-style streams.
//      Streams overlap kernel execution, transfers and host-side table
//      construction, exactly as described in §VI.
//
// Each batch runs the two-pass CSR pipeline: the count kernel writes
// per-point neighbor counts, an exclusive scan turns them into exact CSR
// offsets, the fill kernel writes neighbor ids straight into their slots.
// This replaces the paper's atomic append + device sort_by_key + (key,
// value) transfer of Alg. 4: no device sort, no atomics in either pass,
// and only bare PointId values + per-point offsets cross PCIe (about half
// the bytes). Each (device, stream) context appends into its own private
// NeighborTable shard; shards are merged once after all streams
// synchronize, so no host mutex serializes the per-batch appends.
//
// Robustness: should a batch still exceed its buffer (adversarial skew
// beyond what alpha covers), the batch is recursively split in two —
// batch (l, n_b) becomes (l, 2 n_b) and (l + n_b, 2 n_b), which partitions
// the same point set — instead of crashing or silently dropping pairs. The
// exact size is known after the (cheap) count pass, so a split wastes no
// fill-kernel work.
#pragma once

#include <cstdint>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/estimator.hpp"
#include "core/failure.hpp"
#include "cudasim/device.hpp"
#include "dbscan/batch_sink.hpp"
#include "dbscan/neighbor_table.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {

struct BuildReport {
  BatchPlan plan;
  ResultSizeEstimate estimate;
  std::uint32_t batches_run = 0;       ///< kernel invocations incl. splits
  std::uint32_t overflow_splits = 0;   ///< batches that had to be split
  std::uint64_t total_pairs = 0;       ///< |R| over all batches
  std::uint64_t max_batch_pairs = 0;
  double estimate_seconds = 0.0;
  double table_seconds = 0.0;          ///< total wall time of build()
  double kernel_modeled_seconds = 0.0; ///< summed modeled GPU kernel time
  double scan_modeled_seconds = 0.0;   ///< modeled device exclusive scans
  std::uint64_t atomic_ops = 0;        ///< global atomics across all kernels
  std::uint64_t d2h_bytes = 0;         ///< result bytes shipped to the host
  std::uint64_t kernel_flops = 0;      ///< distance-test FLOPs (batch kernels)
  std::uint64_t kernel_global_bytes = 0;  ///< global-memory traffic of same
  double expand_seconds = 0.0;  ///< host transpose restoring back rows (kHalf)

  // --- streaming delivery (BatchSink) ---
  bool streamed = false;           ///< a sink consumed batches in-flight
  bool table_materialized = true;  ///< false: labels-only build, T skipped
  /// True when the report came from the fused no-table path
  /// (core/fused_clustering): degrees and both-core unions happened inside
  /// the traversal kernel, so there are no CSR passes, no value transfers
  /// and no sink hop — d2h_bytes counts only the parked-edge traffic.
  bool fused = false;
  std::uint64_t sink_batches = 0;        ///< exactly-once CSR row deliveries
  std::uint64_t sink_count_batches = 0;  ///< pass-1 degree deliveries
  /// Host CPU spent inside sink callbacks across all stream threads — the
  /// clustering work that overlapped the device build instead of running
  /// after it. Not part of modeled_table_seconds: on the reference host the
  /// consumer drains completed staging buffers on its own cores.
  double sink_consume_seconds = 0.0;

  ScanMode scan_mode = ScanMode::kHalf;  ///< pair-evaluation mode that ran
  /// Spatial index the traversal kernels ran against (grid stencil vs
  /// packed-BVH stack traversal). Affects the kHalf pair-ownership rule;
  /// see IndexBackend.
  IndexBackend index_backend = IndexBackend::kGrid;

  /// Modeled wall time of the whole T construction on the reference
  /// hardware (K20c + PCIe 2.0): index upload, estimation kernel, pinned
  /// allocation, then per-stream (kernels + scan + D2H) timelines overlapped
  /// across streams while the host-side appends into B serialize. This is
  /// the "GPU time" the figures report — the simulator executes device
  /// code on the host CPU, so its raw wall time is not GPU time (DESIGN.md).
  double modeled_table_seconds = 0.0;

  // --- degradation accounting (ResiliencePolicy) ---
  std::uint32_t transient_retries = 0;    ///< TransientKernelFault retries
  std::uint32_t alloc_retries = 0;        ///< OOM-driven shrink retries
  std::uint32_t devices_lost = 0;         ///< devices dropped mid-build
  std::uint32_t failover_batches = 0;     ///< batches requeued to survivors
  std::uint32_t host_fallback_batches = 0;///< batches finished on the host
  bool used_host_fallback = false;        ///< any host-side completion

  // --- sharded build accounting (core/sharded_build.hpp); zero unless the
  // --- report came from build_sharded ---
  std::uint32_t shards = 0;               ///< slab shards actually built
  std::uint32_t shard_repartitions = 0;   ///< dead-shard re-partition rounds
  std::uint64_t halo_ghost_points = 0;    ///< summed eps-halo residents
  std::uint64_t cross_shard_pairs = 0;    ///< pairs spanning two owners
  /// Decomposition of modeled_table_seconds: the serial host phases
  /// (index upload, estimation, pinned allocation, the post-build merge,
  /// the final half-table expansion — plus partition planning and host
  /// fallback for sharded builds) versus the overlapped per-stream /
  /// per-round device timelines (charged at the slowest one). Their sum
  /// equals modeled_table_seconds; the fixed share is the Amdahl term
  /// that bounds multi-device scaling.
  double shard_fixed_seconds = 0.0;
  double shard_stream_seconds = 0.0;

  /// Structured cause when build() threw (kNone on success). Filled by the
  /// classifying wrapper around build_impl, so even callers that swallow
  /// the exception (pipeline variants, chaos CLI, the service) see why the
  /// ladder ran out of rungs.
  FailureReason failure = FailureReason::kNone;

  /// True when any rung of the degradation ladder fired.
  [[nodiscard]] bool degraded() const noexcept {
    return transient_retries != 0 || alloc_retries != 0 ||
           devices_lost != 0 || failover_batches != 0 || used_host_fallback;
  }
};

class NeighborTableBuilder {
 public:
  explicit NeighborTableBuilder(cudasim::Device& device,
                                BatchPolicy policy = {})
      : devices_{&device}, policy_(policy) {}

  /// Multi-device construction (the direction of Mr. Scan, the paper's
  /// citation [7]: one GPU per node over a replicated index): the index is
  /// uploaded to every device and the batches are interleaved across
  /// num_devices x num_streams contexts. Devices must outlive the builder.
  NeighborTableBuilder(std::vector<cudasim::Device*> devices,
                       BatchPolicy policy = {});

  /// Builds T for `index` (which fixes the point ordering) and `eps`.
  /// Thread-safe for concurrent calls with distinct indexes (each call
  /// creates its own streams and buffers).
  NeighborTable build(const GridIndex& index, float eps,
                      BuildReport* report = nullptr) {
    return build(index, eps, report, /*sink=*/nullptr,
                 /*materialize_table=*/true);
  }

  /// Streaming build: every batch's pass-1 counts and CSR rows are handed
  /// to `sink` the moment they land (see dbscan/batch_sink.hpp for the
  /// exactly-once contract under the degradation ladder). With
  /// `materialize_table` false the shard appends, final merge and
  /// half-table expansion are all skipped and the returned table is empty
  /// — labels-only callers save the transpose and the host table memory
  /// entirely.
  NeighborTable build(const GridIndex& index, float eps, BuildReport* report,
                      BatchSink* sink, bool materialize_table);

  [[nodiscard]] const BatchPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] std::size_t num_devices() const noexcept {
    return devices_.size();
  }

 private:
  /// The actual build; the public build() wraps it to stamp
  /// report->failure with the classified cause when it throws.
  NeighborTable build_impl(const GridIndex& index, float eps,
                           BuildReport* report, BatchSink* sink,
                           bool materialize_table);

  std::vector<cudasim::Device*> devices_;
  BatchPolicy policy_;
};

}  // namespace hdbscan
