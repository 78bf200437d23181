// The clustering service front-end (DESIGN.md §13): request scheduler,
// admission control, eps-keyed table cache, job coalescing, deadline /
// cancellation propagation, and a per-device circuit breaker — the layer
// that turns the one-shot pipeline into a resilient request server.
//
// Serving model (no network): replay() admits a job list in arrival
// order — admission control prices each job via the estimator's
// reference calibration and rejects-with-reason or sheds lower-priority
// queued work when the byte budget or depth limit would be exceeded —
// then a small pool of worker threads drains the per-tenant fair queues
// to completion. Every job ends in exactly one terminal RequestOutcome,
// published to the obs registry.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/request_context.hpp"
#include "common/types.hpp"
#include "core/batch_planner.hpp"
#include "cudasim/device.hpp"
#include "index/grid_index.hpp"
#include "obs/registry.hpp"
#include "service/circuit_breaker.hpp"
#include "service/request.hpp"
#include "service/table_cache.hpp"

namespace hdbscan::service {

struct ServiceOptions {
  unsigned num_workers = 2;
  /// Admission: max queued jobs (the depth limit). One-item minimum: an
  /// empty queue always admits the next job, whatever its price.
  std::size_t queue_depth_limit = 64;
  /// Admission: max summed priced bytes across queued jobs (0 = off).
  std::uint64_t queue_bytes_budget = 0;
  /// Table-cache byte budget (0 = cache off).
  std::uint64_t cache_bytes_budget = 0;
  /// Coalesce queued same-(dataset, eps) jobs into one build.
  bool coalesce = true;
  /// Per-build policy — the ResiliencePolicy ladder runs *inside* each
  /// build; the breaker + retry budget below decide what happens when a
  /// whole build still fails.
  BatchPolicy policy;
  unsigned breaker_failure_threshold = 2;
  unsigned breaker_cooldown_dispatches = 6;
  /// Service-wide budget of whole-build re-dispatches after classified
  /// failures (transient-exhausted / OOM / device-lost).
  unsigned retry_budget = 4;
  /// When every device is gone, complete admitted jobs host-side instead
  /// of failing them. Cell-graph jobs complete host-side either way: they
  /// never asked for a device.
  bool host_fallback = true;
  bool keep_labels = false;
  /// Threads for the host-side union-find labels (a fused finalize, the
  /// banded pass of a cache-off group or of a fused job on a lost fleet);
  /// 0 = hardware concurrency. Alg. 4's BFS over a table runs on one
  /// thread.
  unsigned dbscan_threads = 0;
  /// Per-tenant p99 wall-latency target for slo_report() (seconds; 0 = no
  /// target — the report still lists quantiles, target_met stays true).
  double slo_p99_target_seconds = 0.0;
};

/// One tenant's row of the SLO report (DESIGN.md §14): terminal counts,
/// wall-latency quantiles from the tenant's registry histogram, and
/// whether the p99 target held.
struct TenantSlo {
  std::string tenant;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double target_p99_seconds = 0.0;  ///< 0 = no target configured
  bool target_met = true;

  [[nodiscard]] std::uint64_t terminal_total() const noexcept {
    return completed + rejected + shed + cancelled + deadline_exceeded +
           failed;
  }
  /// Fraction of terminal requests that failed outright.
  [[nodiscard]] double error_fraction() const noexcept {
    const std::uint64_t t = terminal_total();
    return t == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(t);
  }
  /// Fraction of submitted requests turned away by overload control.
  [[nodiscard]] double shed_fraction() const noexcept {
    return submitted == 0 ? 0.0
                          : static_cast<double>(rejected + shed) /
                                static_cast<double>(submitted);
  }
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  /// Jobs served by a build, cache hit or pass their group's leader
  /// shared, and the groups of more than one job so served. Counted once
  /// per group when it is served, not per dispatch: a failed dispatch
  /// that requeues its jobs adds nothing.
  std::uint64_t coalesced_jobs = 0;
  std::uint64_t coalesced_builds = 0;
  /// Label computations the service ran: one per distinct minpts of a
  /// table or cache-off group, one per fused run (fused and cell-graph
  /// jobs of one (dataset, eps, minpts) share it), one per cell-graph
  /// run. At most `completed`, and equal to it when nothing coalesces.
  std::uint64_t clusterings_run = 0;
  /// Jobs served by the fused passes: every fused job, and every
  /// cell-graph job for which they are the cheaper no-table run.
  std::uint64_t fused_jobs = 0;
  /// Jobs served by the host cell graph: the cell-graph jobs for which it
  /// is the cheaper run (dense cells, a dense grid too big for the
  /// points, or one past kMaxGridCells).
  std::uint64_t cell_graph_jobs = 0;
  /// Grid indexes the service built: one per register_dataset (its
  /// calibration grid, which seeds the dataset's index cache), then one per
  /// (dataset, eps) a group needed that the cache did not hold. Two
  /// workers racing on one may both build it.
  std::uint64_t index_builds = 0;
  std::uint64_t retries = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t host_fallback_jobs = 0;
  /// Slowest worker's modeled clock when the queue drained — the modeled
  /// wall time of serving the whole workload.
  double modeled_makespan_seconds = 0.0;

  [[nodiscard]] std::uint64_t terminal_total() const noexcept {
    return completed + rejected + shed + cancelled + deadline_exceeded +
           failed;
  }
};

class ClusterService {
 public:
  /// Distinct (eps, minpts) a dataset memoizes CellGraphFits for before it
  /// drops them all (a client cycling through eps values costs a re-bin per
  /// job, not unbounded memory).
  static constexpr std::size_t kMaxCellGraphFits = 256;
  /// Grid indexes a dataset keeps, one per eps, least recently used out
  /// first. An index depends only on (points, eps), so every table, fused
  /// and host-rung group at that eps shares one; 8 covers service_mix's
  /// 6-eps menu. On the 78,125-point SDSS2 sample an index holds 1.3-1.9
  /// MB and takes 1.6-2.7 ms to build at eps 0.15-0.40.
  static constexpr std::size_t kMaxDatasetIndexes = 8;

  ClusterService(std::vector<cudasim::Device*> devices,
                 ServiceOptions options);

  /// Registers a dataset and calibrates its admission price: one
  /// estimator run at `reference_eps` (host-resident grid view — no index
  /// upload), from which any eps is priced as ref_pairs * (eps/ref)^2.
  /// Falls back to a strided host sample when no device can run the
  /// estimation kernel. The calibration grid becomes the dataset's cached
  /// index at `reference_eps`. Throws std::invalid_argument, and registers
  /// nothing, for an empty dataset, a reference_eps that is not positive,
  /// or a point with a coordinate that is not finite (build_grid_index).
  /// Registering a name again replaces the dataset and all that was built
  /// from it: its cached indexes and tables are never served again.
  void register_dataset(const std::string& name, std::vector<Point2> points,
                        float reference_eps);

  /// Serves a job list: admission in input order, then the worker pool
  /// drains the queues to completion. Returns one JobResult per input
  /// job, in input order; every result is terminal.
  std::vector<JobResult> replay(const std::vector<JobSpec>& jobs);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] TableCache& cache() noexcept { return cache_; }
  [[nodiscard]] CircuitBreaker& breaker() noexcept { return breaker_; }

  /// Per-tenant SLO report over everything served so far, sorted by
  /// tenant name. Quantiles come from the per-tenant
  /// service_latency_seconds histograms in the global obs registry.
  [[nodiscard]] std::vector<TenantSlo> slo_report() const;

  /// Admission price of (dataset, eps) in pairs/bytes (test hook).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> price(
      const std::string& dataset, float eps) const;

 private:
  /// What the cell graph would make of one (eps, minpts) on a dataset:
  /// its dense share (cell_graph_dense_share), or why its key cannot bin
  /// the extent at that eps.
  struct CellGraphFit {
    double dense_share = 0.0;
    std::string error;  ///< empty when the cell key holds the extent
  };

  /// One registration of a dataset. Jobs hold the registration they were
  /// admitted against, so one registered again mid-replay never mixes
  /// points.
  struct Dataset {
    std::vector<Point2> points;
    Rect2 extent;  ///< sizes the grid of any eps at admission
    float ref_eps = 0.0f;
    std::uint64_t ref_pairs = 0;
    /// Numbers the registrations of one service; its tables' cache keys
    /// carry it.
    std::uint64_t generation = 0;
    /// Per (eps bits, minpts) of the cell-graph jobs admitted; read and
    /// filled under mutex_ (cell_graph_fit_locked).
    std::map<std::pair<std::uint32_t, int>, CellGraphFit> cell_graph_fits;
    /// Grid indexes by eps bits, most recently used first, at most
    /// kMaxDatasetIndexes; read and filled under index_mutex (grid_index).
    std::vector<std::pair<std::uint32_t, std::shared_ptr<const GridIndex>>>
        indexes;
    std::mutex index_mutex;
  };
  using DatasetPtr = std::shared_ptr<Dataset>;

  /// The run that serves a job, decided once at admission (submit_locked)
  /// from its flags and what its (dataset, eps, minpts) costs each run.
  /// Jobs coalesce only with jobs of the same kind.
  enum class RunKind {
    kTable,      ///< exact: a neighbor table (cached, or one banded pass)
    kFused,      ///< fused, or cell-graph where it is cheaper: fused passes
    kCellGraph,  ///< cell-graph where its own run is cheaper: the cell graph
  };

  struct Pending {
    JobSpec spec;
    DatasetPtr data;  ///< the registration admission found for spec.dataset
    RunKind run = RunKind::kTable;
    std::size_t index = 0;  ///< slot in the results vector
    std::uint64_t priced_pairs = 0;
    std::uint64_t priced_bytes = 0;
    unsigned retries = 0;
    std::shared_ptr<CancelToken> token;
    /// Request identity minted at submit; installed on every thread that
    /// works for this job so its trace spans carry the request id.
    /// link_id points at the request whose build served this one
    /// (coalesce leader / cache populator).
    RequestContext trace;
    /// Wall stamps (tracer clock, microseconds) for stage attribution.
    double submit_us = 0.0;
    double pickup_us = 0.0;           ///< 0 until a worker popped it
    double admission_seconds = 0.0;   ///< wall spent inside submit_locked
  };
  using PendingPtr = std::shared_ptr<Pending>;
  static constexpr std::size_t kNumClasses = 3;

  struct ReplayState {
    std::vector<JobResult> results;
    std::mutex results_mutex;
    std::vector<double> worker_clocks;
  };

  // Admission (mutex_ held).
  void submit_locked(PendingPtr job, ReplayState& rs);
  /// What price() returns, for a registration in hand.
  static std::pair<std::uint64_t, std::uint64_t> price_of(const Dataset& ds,
                                                          float eps);
  /// `ds`'s CellGraphFit for (eps, minpts), binning its points on the
  /// first ask; the memo is dropped whole once it holds kMaxCellGraphFits.
  /// Memoized because admission holds mutex_: binning the 78,125-point
  /// SDSS2 sample takes about 2 ms, which every cell-graph job of a
  /// service_mix burst would otherwise pay while workers wait to pop.
  const CellGraphFit& cell_graph_fit_locked(Dataset& ds, float eps,
                                            int minpts);
  bool shed_for_locked(Priority arriving, std::uint64_t needed_bytes,
                       ReplayState& rs);
  void enqueue_locked(PendingPtr job);
  void remove_queued_locked(const Pending& job);

  // Dispatch.
  /// `ds`'s grid index at `eps`: the cached one, or one built now and
  /// cached (of two workers racing to build it, the first insert wins).
  /// Records an "index_hit" or "index_build" span.
  std::shared_ptr<const GridIndex> grid_index(Dataset& ds, float eps);
  PendingPtr pop_group(std::vector<PendingPtr>& members);
  void requeue_front(std::vector<PendingPtr> group);
  void worker_loop(unsigned worker_id, ReplayState& rs);
  void process_group(PendingPtr leader, std::vector<PendingPtr> members,
                     unsigned worker_id, ReplayState& rs);
  int pick_device();

  void record_terminal(const Pending& job, ReplayState& rs, JobState state,
                       JobResult&& partial);

  /// Per-tenant aggregates behind slo_report() (stats_mutex_ held).
  struct TenantCounts {
    std::uint64_t submitted = 0;
    std::array<std::uint64_t, 6> terminal{};  ///< indexed by JobState -
                                              ///< kCompleted
    obs::Histogram* latency = nullptr;  ///< registry-owned, stable address
  };
  TenantCounts& tenant_counts_locked(const std::string& tenant);

  std::vector<cudasim::Device*> devices_;
  ServiceOptions options_;
  TableCache cache_;
  CircuitBreaker breaker_;
  std::atomic<std::size_t> dispatch_rr_{0};  ///< round-robin device cursor

  mutable std::mutex mutex_;  ///< datasets, queues + counters below
  std::map<std::string, DatasetPtr> datasets_;  ///< current registrations
  std::uint64_t registrations_ = 0;
  std::condition_variable work_available_;
  std::array<std::map<std::string, std::deque<PendingPtr>>, kNumClasses>
      queues_;
  std::array<std::vector<std::string>, kNumClasses> rr_order_;
  std::array<std::size_t, kNumClasses> rr_cursor_{};
  std::size_t queued_count_ = 0;
  std::uint64_t queued_bytes_ = 0;
  std::size_t in_flight_groups_ = 0;
  bool closed_ = false;
  unsigned retry_budget_left_ = 0;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
  std::map<std::string, TenantCounts> tenant_stats_;
};

}  // namespace hdbscan::service
