// The efficient batching scheme's planning logic (paper §VI).
//
// Given the sampled result-size estimate, the planner chooses the number
// of batches n_b and the per-stream GPU buffer size b_b:
//
//   n_b = ceil( (1 + alpha) * a_b / b_b )        (Eq. 1)
//
// where a_b = e_b / f is the estimated total result size and alpha is the
// over-estimation factor guarding against batch-size variance. Two buffer
// policies (paper values):
//   * static  — when a_b >= 3e8 pairs:  b_b = 1e8, alpha = 0.05;
//   * variable — otherwise: b_b = a_b * (1 + 2*alpha) / 3 with alpha
//     doubled, because small estimates are noisier and pinned-memory
//     allocation cost would dominate if the static buffer were used. With
//     three streams this yields exactly n_b = 3 (one batch per stream).
//
// The planner additionally respects a device-memory cap: if three stream
// value buffers (plus the per-point counts) would not fit alongside the
// index, b_b shrinks and n_b grows accordingly.
#pragma once

#include <cstdint>
#include <string>

#include "common/cancel.hpp"
#include "common/request_context.hpp"
#include "common/types.hpp"

namespace hdbscan {

/// How the builder reacts to injected (or, on real hardware, actual)
/// device faults — the degradation ladder: retry transient kernel faults,
/// shrink the buffers on allocation failure, fail work over from a lost
/// device to the survivors (always on: strided batches cover disjoint key
/// sets and a batch becomes visible only after every device op for it
/// succeeded), and finally finish on the host — the kernel bodies run on
/// the host pool — when no device remains.
struct ResiliencePolicy {
  /// Retries of one batch after TransientKernelFault before it becomes a
  /// hard error (the launch did no work, so a retry is always safe).
  unsigned max_transient_retries = 2;
  /// Times the lane setup may halve its buffer cap (replanning n_b)
  /// after DeviceOutOfMemory before the allocation failure becomes a hard
  /// error. Batches allocate nothing once the lanes exist.
  unsigned max_alloc_retries = 3;
  /// When every device is lost, finish the remaining batches on the host
  /// instead of throwing. Off by default so a single-device out-of-memory
  /// condition still surfaces as DeviceOutOfMemory.
  bool host_fallback = false;
};

struct BatchPolicy {
  double sample_fraction = 0.01;  ///< f, fraction of points sampled
  double alpha = 0.05;            ///< base over-estimation factor
  std::uint64_t static_threshold_pairs = 300'000'000;  ///< a_b >= this -> static
  std::uint64_t static_buffer_pairs = 100'000'000;     ///< b_b in static mode
  unsigned num_streams = 3;
  unsigned block_size = 256;
  /// When non-zero, skips the estimation kernel and uses this as a_b
  /// directly (callers that already know the result size, e.g. repeated
  /// runs; also how tests exercise the overflow-recovery path).
  std::uint64_t estimated_total_override = 0;
  /// Candidate-pair traversal (see ScanMode in common/types.hpp). kHalf
  /// tests each pair once — roughly half the distance FLOPs and candidate
  /// reads of kFull — and the builder restores symmetry afterwards with
  /// one host-side expand. kFull is kept for A/B benchmarking.
  ScanMode scan_mode = ScanMode::kHalf;
  /// Deepest recursive overflow split allowed: a batch may shrink to
  /// 1/2^max_split_depth of its planned size before the builder gives up
  /// on it. Guards against a pathological estimate looping forever.
  unsigned max_split_depth = 10;
  /// Fault-degradation behavior (see ResiliencePolicy).
  ResiliencePolicy resilience;
  /// Extra metric labels ("key=value,key=value") for this builder's
  /// published build counters/gauges, so concurrent builds don't overwrite
  /// one another's gauges. Empty = unlabeled.
  std::string metrics_labels;
  /// Optional cooperative-cancellation hook (not owned; must outlive the
  /// build). Workers poll it at batch granularity; a cancelled token turns
  /// into OperationCancelled riding the hard-error unwind, so pooled
  /// buffers and device queues are released promptly. nullptr = never
  /// cancelled.
  const CancelToken* cancel = nullptr;
  /// Request attribution installed on every thread that works for this
  /// build (stream pumps, host-builder threads), so their
  /// spans carry the request id the service minted (DESIGN.md §14).
  /// Default-constructed = unattributed.
  RequestContext trace;
  /// The quality knob (DESIGN.md §16). hybrid_dbscan and
  /// run_multi_clustering route kCellGraph to the host cell graph
  /// (core/cell_graph); the builder, the fused path and the traversal
  /// kernels never read it.
  QualitySpec quality;
};

struct BatchPlan {
  std::uint64_t estimated_total_pairs = 0;  ///< a_b
  std::uint64_t buffer_pairs = 0;           ///< b_b
  std::uint32_t num_batches = 0;            ///< n_b
  double alpha_used = 0.0;
  bool static_buffer = false;
};

/// Plans the batched execution. `estimated_total_pairs` is a_b = e_b / f;
/// `max_buffer_pairs` caps b_b (0 = uncapped) from device-memory headroom.
[[nodiscard]] BatchPlan plan_batches(std::uint64_t estimated_total_pairs,
                                     const BatchPolicy& policy,
                                     std::uint64_t max_buffer_pairs = 0);

}  // namespace hdbscan
