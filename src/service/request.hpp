// Request model for the clustering service front-end (DESIGN.md §13).
//
// A job is one (dataset, eps, minpts) clustering request from a tenant.
// Every submitted job ends in exactly one terminal state — the
// RequestOutcome taxonomy below — and the service publishes one obs
// counter per terminal state, so overload behavior is observable without
// parsing logs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/failure.hpp"

namespace hdbscan::service {

/// Scheduling class. Higher values preempt queue space from lower ones:
/// under byte/depth pressure an arriving interactive job sheds queued
/// batch jobs, never the other way around.
enum class Priority : int {
  kBatch = 0,
  kNormal = 1,
  kInteractive = 2,
};

const char* priority_name(Priority p) noexcept;

/// One clustering request.
struct JobSpec {
  std::string tenant = "default";
  std::string dataset;           ///< must be register_dataset()-ed
  float eps = 0.5f;
  int minpts = 4;
  Priority priority = Priority::kNormal;
  /// Modeled-clock deadline (seconds from serve start; 0 = none). A job
  /// whose dispatch-time modeled clock is already past it is terminated
  /// as deadline-exceeded without touching a device.
  double deadline_seconds = 0.0;
  /// Wall-clock deadline armed on the job's CancelToken at dispatch
  /// (seconds; 0 = none). Expiry mid-build aborts the build cooperatively
  /// and returns its pooled buffers.
  double wall_deadline_seconds = 0.0;
  /// Modeled arrival time (seconds from serve start); a job's modeled
  /// latency is finish - arrival.
  double arrival_seconds = 0.0;
  /// Client hung up before serving began: the job's token is cancelled at
  /// submit, so dispatch terminates it without device work.
  bool abandoned = false;
  /// Serve via the fused no-table fast path (core/fused_clustering): a
  /// core pass counts degrees and a union pass unions core-core pairs in
  /// place, so no neighbor table is built, transferred, or cached. Fused jobs
  /// bypass the TableCache (there is nothing to reuse) but still coalesce
  /// — with fused and cell-graph jobs of the same (dataset, eps, minpts)
  /// that run fused, since the union-find threshold is baked into the
  /// traversal. A fused job runs fused whatever `quality` says. An eps the
  /// dense grid cannot index is rejected at admission with a reason.
  bool fused = false;
  /// Quality knob for this request (DESIGN.md §13, §16). kCellGraph asks
  /// for no table, and admission picks the cheaper no-table run for the
  /// job's (dataset, eps, minpts): the fused passes, served exactly like a
  /// fused job (the same run and labels, counted in `fused_jobs`), or the
  /// host cell graph (counted in `cell_graph_jobs`, on no device) where
  /// at least 0.8 of the points sit in dense eps/sqrt(2) cells, where the
  /// dense grid would hold more than 16 cells per point, or past its
  /// capacity. Either way it never shares a run or a cache entry with an
  /// exact job, and with no live device it completes host-side even with
  /// `host_fallback` off.
  QualitySpec quality{};
};

/// Terminal (and transient) states of a request. Every job ends in one of
/// the states at kCompleted or beyond.
enum class JobState : int {
  kQueued = 0,           ///< admitted, waiting for a worker
  kRunning,              ///< on a worker
  kCompleted,            ///< labels produced
  kRejected,             ///< admission refused (see reject_reason)
  kShed,                 ///< evicted from the queue by a higher-priority
                         ///< arrival under overload
  kCancelled,            ///< client abandoned (token cancelled)
  kDeadlineExceeded,     ///< modeled or wall deadline expired
  kFailed,               ///< build failed after the ladder + retry budget
};

const char* job_state_name(JobState s) noexcept;

[[nodiscard]] inline bool is_terminal(JobState s) noexcept {
  return s >= JobState::kCompleted;
}

/// Pipeline stages a request's latency is attributed to. Every wall
/// microsecond between submit and terminal lands in exactly one stage, so
/// per-stage sums reconstruct end-to-end latency (DESIGN.md §14).
enum class Stage : int {
  kQueueWait = 0,  ///< admitted → picked up by a worker
  kAdmission,      ///< pricing + admission control at submit
  kCache,          ///< TableCache probe + clustering from a cached table
  kBuild,          ///< neighbor-table build (device or host fallback)
  kStreamUnion,    ///< union-find labels without a cached table: a fused
                   ///< finalize, or the cache-off group's banded pass
  kFinalize,       ///< result assembly + terminal bookkeeping
};

inline constexpr std::size_t kNumStages = 6;

const char* stage_name(Stage s) noexcept;

/// Wall + modeled seconds a request spent in each Stage.
struct StageBreakdown {
  std::array<double, kNumStages> wall_seconds{};
  std::array<double, kNumStages> modeled_seconds{};

  void add(Stage s, double wall, double modeled = 0.0) noexcept {
    wall_seconds[static_cast<std::size_t>(s)] += wall;
    modeled_seconds[static_cast<std::size_t>(s)] += modeled;
  }
  [[nodiscard]] double wall(Stage s) const noexcept {
    return wall_seconds[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] double total_wall_seconds() const noexcept {
    double t = 0.0;
    for (double v : wall_seconds) t += v;
    return t;
  }
  /// Stage holding the largest share of wall time.
  [[nodiscard]] Stage dominant() const noexcept {
    std::size_t best = 0;
    for (std::size_t i = 1; i < kNumStages; ++i) {
      if (wall_seconds[i] > wall_seconds[best]) best = i;
    }
    return static_cast<Stage>(best);
  }
};

/// Everything the service reports back for one job.
struct JobResult {
  JobState state = JobState::kQueued;
  std::string reject_reason;  ///< human-readable cause for kRejected/kShed
  FailureReason failure = FailureReason::kNone;  ///< cause for kFailed &c.

  bool cache_hit = false;   ///< served from the eps-keyed table cache
  bool fused = false;       ///< served by the fused no-table passes
  bool coalesced = false;   ///< shared its group's build: a table, or
                            ///< the fused passes
  bool host_fallback = false;  ///< clustered host-side (no live device)
  unsigned retries = 0;        ///< service-level re-dispatches
  int device_id = -1;          ///< device that ran the build; -1 = none

  /// Admission price (from the estimator's reference calibration).
  std::uint64_t priced_pairs = 0;
  std::uint64_t priced_bytes = 0;

  /// Modeled timeline (reference-hardware seconds from serve start).
  double modeled_start_seconds = 0.0;
  double modeled_finish_seconds = 0.0;
  /// Modeled device seconds this job's build consumed (0 for jobs that
  /// never reached a device: rejected, shed, abandoned, overdue).
  double modeled_device_seconds = 0.0;

  std::int32_t num_clusters = 0;
  std::size_t noise_count = 0;
  std::vector<std::int32_t> labels;  ///< only when keep_labels

  /// Request id minted at admission; every trace span recorded while this
  /// job was being served carries it (0 = never admitted).
  std::uint64_t request_id = 0;
  /// Leader's request id when this job coalesced onto another build.
  std::uint64_t linked_request_id = 0;
  /// Wall/modeled latency attribution per pipeline stage.
  StageBreakdown stages;

  [[nodiscard]] double modeled_latency_seconds(double arrival) const noexcept {
    return modeled_finish_seconds - arrival;
  }
};

}  // namespace hdbscan::service
