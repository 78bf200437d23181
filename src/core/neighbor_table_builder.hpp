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
// The upload, the streams and the degradation ladder are the batch engine
// (core/batch_engine.hpp) the fused path runs on too; this builder adds
// the estimation, the plan, each lane's buffers, the CSR step and the
// host rung.
//
// Each batch runs the two-pass CSR pipeline: the count kernel writes
// per-point neighbor counts, an exclusive scan turns them into exact CSR
// offsets, the fill kernel writes neighbor ids straight into their slots.
// This replaces the paper's atomic append + device sort_by_key + (key,
// value) transfer of Alg. 4: no device sort, no atomics in either pass,
// and only bare PointId values + per-point offsets cross PCIe (about half
// the bytes). Each (device, stream) lane appends into its own private
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
#include "dbscan/neighbor_table.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {

struct BuildReport {
  BatchPlan plan;
  ResultSizeEstimate estimate;
  std::uint32_t batches_run = 0;       ///< kernel invocations incl. splits
  std::uint32_t overflow_splits = 0;   ///< batches that had to be split
  std::uint64_t total_pairs = 0;  ///< |R| over all batches; 0 when fused
  std::uint64_t max_batch_pairs = 0;
  double estimate_seconds = 0.0;
  double table_seconds = 0.0;          ///< total wall time of build()
  double kernel_modeled_seconds = 0.0; ///< summed modeled GPU kernel time
  double scan_modeled_seconds = 0.0;   ///< modeled device exclusive scans
  std::uint64_t atomic_ops = 0;        ///< global atomics across all kernels
  std::uint64_t d2h_bytes = 0;         ///< result bytes shipped to the host
  std::uint64_t kernel_flops = 0;      ///< distance-test FLOPs (batch kernels)
  std::uint64_t kernel_global_bytes = 0;  ///< global-memory traffic of same
  /// Host assembly of T (NeighborTable::assemble): merging the stream
  /// shards plus, under kHalf, the transpose restoring back rows.
  double expand_seconds = 0.0;

  bool table_materialized = true;  ///< false: labels-only run, no T
  /// True when the report came from the fused no-table path
  /// (core/fused_clustering): a capped core pass counted degrees, the cores
  /// next to non-core points were recounted, and a union pass unioned
  /// core-core pairs on the devices, so there is no fill pass and no
  /// transfer — d2h_bytes is 0.
  bool fused = false;
  /// Fused core pass: points whose count stopped at the cap, max(minpts,
  /// 2) — every point of degree at least the cap.
  std::uint64_t capped_points = 0;
  /// Fused recount pass: core points with a non-core neighbor, whose
  /// exact degree the border rule reads and the recount pass stored.
  std::uint64_t recounted_points = 0;
  /// Fused union pass on a grid with sub-cell runs: how many times a core
  /// point met a dense run (minpts or more residents of one eps/2
  /// sub-cell) and linked it with one union instead of a union per
  /// resident. Counted on the devices and the host rung alike.
  std::uint64_t dense_runs = 0;

  ScanMode scan_mode = ScanMode::kHalf;  ///< pair-evaluation mode that ran

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

  /// Decomposition of modeled_table_seconds: the serial host phases
  /// (index upload, estimation, pinned allocation, the post-build
  /// assembly) versus the overlapped per-stream device timelines (charged
  /// at the slowest one). Their sum equals modeled_table_seconds; the
  /// fixed share is the Amdahl term that bounds multi-device scaling.
  double fixed_seconds = 0.0;
  double stream_seconds = 0.0;

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

  /// Builds T for `index` (which fixes the point ordering; a 2-D or 3-D
  /// grid) and `eps`. Thread-safe for concurrent calls with distinct
  /// indexes (each call creates its own streams and buffers).
  template <typename Point>
  NeighborTable build(const BasicGridIndex<Point>& index, float eps,
                      BuildReport* report = nullptr);

  [[nodiscard]] const BatchPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] std::size_t num_devices() const noexcept {
    return devices_.size();
  }

 private:
  /// The actual build; the public build() wraps it to stamp
  /// report->failure with the classified cause when it throws.
  template <typename Point>
  NeighborTable build_impl(const BasicGridIndex<Point>& index, float eps,
                           BuildReport* report);

  std::vector<cudasim::Device*> devices_;
  BatchPolicy policy_;
};

}  // namespace hdbscan
