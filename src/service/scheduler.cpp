#include "service/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/timer.hpp"
#include "core/cell_graph.hpp"
#include "core/estimator.hpp"
#include "core/fused_clustering.hpp"
#include "core/neighbor_table_builder.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/dbscan_parallel.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "gpu/kernels.hpp"
#include "index/grid_index.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace hdbscan::service {

namespace {

std::uint32_t eps_bits(float eps) noexcept {
  std::uint32_t bits = 0;
  static_assert(sizeof(bits) == sizeof(eps));
  std::memcpy(&bits, &eps, sizeof(bits));
  return bits;
}

/// A cell-graph job runs the host cell graph instead of the fused passes
/// when at least this share of its points sit in dense eps/sqrt(2) cells
/// (cell_graph_dense_share), whose residents it makes core with no
/// distance test. Best-of-5 single runs of both on SDSS2 and SW4 samples
/// (eps 0.15-0.5, minpts 4 and 8, 4-vCPU VM) put the crossover there: the
/// fused passes won every run below a share of 0.65 (by 1.07-2.6x), the
/// cell graph every run from 0.8 up (by 1.04-2.2x), and in between
/// neither won by more than 1.33x.
constexpr double kCellGraphDenseShare = 0.8;

/// ... or when the dense grid at its eps would hold more than this many
/// cells per point: the fused passes build and upload one CellRange per
/// cell of it, where the cell graph's sparse key costs O(n + cells per
/// axis). On sparse uniform points (20,000 and 80,000 of them, dense
/// share 0, best of 5) fused won at 8 cells per point by 1.4-1.5x and at
/// 12 by 1.03-1.18x, and the cell graph at 16 by 1.15-1.2x, at 32 by
/// 2.7-3.0x and at 128 by 12.8x. The SDSS2 and SW4 samples hold 6.3 and
/// 15 cells per point at eps 0.05, and under 2 from eps 0.15.
constexpr std::uint64_t kFusedGridCellsPerPoint = 16;

/// An eps as reject reasons quote it.
std::string eps_text(float eps) {
  char text[32];
  std::snprintf(text, sizeof text, "%g", static_cast<double>(eps));
  return text;
}

void publish_outcome(JobState state) {
  obs::Registry::global()
      .counter("service_requests",
               std::string("outcome=") + job_state_name(state))
      .add(1);
}

/// Chronological order stage timelines are laid out in (the enum orders
/// by attribution bucket, not time).
constexpr std::array<Stage, kNumStages> kStageTimeline = {
    Stage::kAdmission, Stage::kQueueWait,   Stage::kCache,
    Stage::kBuild,     Stage::kStreamUnion, Stage::kFinalize};

/// Emits one synthetic "stage" span per non-empty stage, laid end to end
/// from the request's submit stamp, under the request's context — the
/// trace-side twin of JobResult::stages that `hdbscan_cli explain` reads.
void emit_stage_spans(const RequestContext& ctx, double submit_us,
                      const StageBreakdown& stages) {
  obs::Tracer& t = obs::Tracer::global();
  if (!obs::kTraceCompiled || !t.enabled()) return;
  RequestScope scope(ctx);
  double at_us = submit_us;
  double model_at_us = 0.0;
  for (Stage s : kStageTimeline) {
    const double wall = stages.wall(s);
    const double modeled =
        stages.modeled_seconds[static_cast<std::size_t>(s)];
    if (wall <= 0.0 && modeled <= 0.0) continue;
    const double dur_us = wall * 1e6;
    const double model_dur_us = modeled * 1e6;
    t.record(obs::EventType::kSpan, "stage", stage_name(s), at_us, dur_us,
             model_at_us, model_dur_us > 0.0 ? model_dur_us : -1.0, 0.0);
    at_us += dur_us;
    model_at_us += model_dur_us;
  }
}

/// Records the span of one grid-index acquisition that began at
/// `begin_us`, named by how it ended: a cache hit or a build.
void record_index_span(double begin_us, bool built, float eps) {
  obs::Tracer& t = obs::Tracer::global();
  if (!obs::kTraceCompiled || !t.enabled()) return;
  char name[48];
  std::snprintf(name, sizeof name, "%s eps=%g",
                built ? "index_build" : "index_hit", static_cast<double>(eps));
  t.record(obs::EventType::kSpan, "index", name, begin_us,
           t.now_us() - begin_us, 0.0, -1.0, 0.0);
}

/// Remaps index-order labels back to input order (the service returns
/// labels the caller can line up with the registered points).
std::vector<std::int32_t> unmap(const std::vector<std::int32_t>& indexed,
                                const std::vector<PointId>& original_ids) {
  std::vector<std::int32_t> out(indexed.size());
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    out[original_ids[i]] = indexed[i];
  }
  return out;
}

/// One clustering a group ran, kept for every job of the group that asked
/// for its minpts.
struct GroupClustering {
  std::int32_t num_clusters = 0;
  std::size_t noise_count = 0;
  std::vector<std::int32_t> labels;  ///< input order; only with keep_labels
};

}  // namespace

ClusterService::ClusterService(std::vector<cudasim::Device*> devices,
                               ServiceOptions options)
    : devices_(std::move(devices)),
      options_(options),
      cache_(options.cache_bytes_budget),
      breaker_(devices_.size(), options.breaker_failure_threshold,
               options.breaker_cooldown_dispatches) {
  for (cudasim::Device* d : devices_) {
    if (d == nullptr) {
      throw std::invalid_argument("ClusterService: null device");
    }
  }
}

void ClusterService::register_dataset(const std::string& name,
                                      std::vector<Point2> points,
                                      float reference_eps) {
  if (points.empty()) {
    throw std::invalid_argument("register_dataset: empty dataset");
  }
  if (reference_eps <= 0.0f) {
    throw std::invalid_argument("register_dataset: reference_eps must be > 0");
  }
  // Calibration runs outside any client request; give it a request id of
  // its own (tenant "system") so even registration-time spans are
  // attributable — no span in a service run should be anonymous.
  RequestContext reg_ctx;
  reg_ctx.request_id = mint_request_id();
  reg_ctx.set_tenant("system");
  RequestScope reg_scope(reg_ctx);
  auto ds = std::make_shared<Dataset>();
  ds->points = std::move(points);
  for (const Point2& p : ds->points) ds->extent.expand(p);
  ds->ref_eps = reference_eps;
  auto index = std::make_shared<const GridIndex>(
      build_grid_index(ds->points, reference_eps));
  // Calibrate with the estimation kernel over the host-resident view (no
  // index upload): one cheap device op per dataset, at registration — the
  // admission decision itself is pure arithmetic afterwards.
  for (cudasim::Device* d : devices_) {
    if (d->lost()) continue;
    try {
      const ResultSizeEstimate est = estimate_result_size(
          *d, GridView::of(*index), reference_eps,
          options_.policy.sample_fraction, options_.policy.block_size);
      ds->ref_pairs = est.estimated_total;
      break;
    } catch (const cudasim::SimError&) {
      // Faulted during calibration; try the next device or fall through.
    }
  }
  if (ds->ref_pairs == 0) {
    // No device could run the kernel: a 1-in-16 strided host sample of
    // the same grid gives the reference figure.
    const NeighborTable sample = gpu::host_csr_batch(
        GridView::of(*index), reference_eps, gpu::BatchSpec{0, 16},
        ScanMode::kFull);
    ds->ref_pairs = std::max<std::uint64_t>(1, sample.total_pairs() * 16);
  }
  ds->indexes.emplace_back(eps_bits(reference_eps), std::move(index));
  {
    std::lock_guard slock(stats_mutex_);
    ++stats_.index_builds;
  }
  std::lock_guard lock(mutex_);
  ds->generation = ++registrations_;
  datasets_[name] = std::move(ds);
  // A replaced registration's tables carry its generation and can never
  // hit again; drop them so they stop holding budget. Its indexes go with
  // its Dataset once no job holds it.
  cache_.drop_dataset(name);
}

std::pair<std::uint64_t, std::uint64_t> ClusterService::price(
    const std::string& dataset, float eps) const {
  std::lock_guard lock(mutex_);
  const auto it = datasets_.find(dataset);
  if (it == datasets_.end()) return {0, 0};
  return price_of(*it->second, eps);
}

std::pair<std::uint64_t, std::uint64_t> ClusterService::price_of(
    const Dataset& ds, float eps) {
  // Expected pairs scale with the neighborhood area: (eps / eps_ref)^2.
  const double ratio = static_cast<double>(eps) / ds.ref_eps;
  const auto pairs = static_cast<std::uint64_t>(std::max(
      1.0, static_cast<double>(ds.ref_pairs) * ratio * ratio));
  const std::uint64_t bytes =
      pairs * sizeof(PointId) +
      ds.points.size() * 2 * sizeof(std::uint32_t);
  return {pairs, bytes};
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

const ClusterService::CellGraphFit& ClusterService::cell_graph_fit_locked(
    Dataset& ds, float eps, int minpts) {
  const std::pair<std::uint32_t, int> key{eps_bits(eps), minpts};
  if (const auto it = ds.cell_graph_fits.find(key);
      it != ds.cell_graph_fits.end()) {
    return it->second;
  }
  if (ds.cell_graph_fits.size() >= kMaxCellGraphFits) {
    ds.cell_graph_fits.clear();
  }
  CellGraphFit fit;
  try {
    fit.dense_share = cell_graph_dense_share(ds.points, eps, minpts);
  } catch (const std::invalid_argument& e) {
    fit.error = e.what();
  }
  return ds.cell_graph_fits.emplace(key, std::move(fit)).first->second;
}

void ClusterService::enqueue_locked(PendingPtr job) {
  const auto cls = static_cast<std::size_t>(job->spec.priority);
  auto& tenant_q = queues_[cls][job->spec.tenant];
  if (tenant_q.empty() &&
      std::find(rr_order_[cls].begin(), rr_order_[cls].end(),
                job->spec.tenant) == rr_order_[cls].end()) {
    rr_order_[cls].push_back(job->spec.tenant);
  }
  queued_bytes_ += job->priced_bytes;
  ++queued_count_;
  tenant_q.push_back(std::move(job));
}

void ClusterService::remove_queued_locked(const Pending& job) {
  queued_bytes_ -= job.priced_bytes;
  --queued_count_;
}

bool ClusterService::shed_for_locked(Priority arriving,
                                     std::uint64_t needed_bytes,
                                     ReplayState& rs) {
  // Evict the most recently queued job of the lowest class strictly below
  // the arrival's — newest-first so long-waiting work keeps its place.
  for (std::size_t cls = 0; cls < static_cast<std::size_t>(arriving); ++cls) {
    std::deque<PendingPtr>* victim_q = nullptr;
    for (auto& [tenant, q] : queues_[cls]) {
      if (q.empty()) continue;
      if (victim_q == nullptr ||
          q.back()->index > victim_q->back()->index) {
        victim_q = &q;
      }
    }
    if (victim_q == nullptr) continue;
    PendingPtr victim = victim_q->back();
    victim_q->pop_back();
    remove_queued_locked(*victim);
    JobResult r;
    r.reject_reason = "shed by higher-priority arrival under " +
                      std::string(needed_bytes != 0 ? "byte budget"
                                                    : "queue depth") +
                      " pressure";
    record_terminal(*victim, rs, JobState::kShed, std::move(r));
    return true;
  }
  return false;
}

void ClusterService::submit_locked(PendingPtr job, ReplayState& rs) {
  // Admission is where a request becomes traceable: mint its id here so
  // even a reject-with-reason carries one.
  job->trace.request_id = mint_request_id();
  job->trace.set_tenant(job->spec.tenant.c_str());
  job->submit_us = obs::Tracer::global().now_us();
  WallTimer admission_timer;
  {
    std::lock_guard slock(stats_mutex_);
    ++stats_.submitted;
    ++tenant_counts_locked(job->spec.tenant).submitted;
  }
  auto reject = [&](std::string reason) {
    JobResult r;
    r.reject_reason = std::move(reason);
    job->admission_seconds = admission_timer.seconds();
    record_terminal(*job, rs, JobState::kRejected, std::move(r));
  };
  const JobSpec& spec = job->spec;
  const auto ds = datasets_.find(spec.dataset);
  if (ds == datasets_.end()) {
    reject("unknown dataset '" + spec.dataset + "'");
    return;
  }
  job->data = ds->second;
  // Checked here, not at dispatch: a bad value would throw inside a
  // worker, for the whole coalesced group, and every retry would again.
  if (spec.minpts < 1) {
    reject("minpts must be >= 1 (got " + std::to_string(spec.minpts) + ")");
    return;
  }
  if (!(spec.eps > 0.0f) || !std::isfinite(spec.eps)) {
    reject("eps must be positive and finite (got " + eps_text(spec.eps) + ")");
    return;
  }
  // The run is fixed here, once: a table for an exact job, the fused
  // passes for a fused one, and for a cell-graph job the cheaper of the
  // fused passes and the cell graph, by what its (dataset, eps, minpts)
  // costs each. A job that no run can serve (its eps past the dense
  // grid's capacity and, for a cell-graph job, past the cell key's too)
  // would fail inside a worker and be blamed on its device, so it is
  // rejected here like a bad eps.
  Dataset& data = *job->data;
  const auto past = [&](const std::string& why) {
    reject("eps " + eps_text(spec.eps) + " on dataset '" + spec.dataset +
           "': " + why);
  };
  std::string grid_error;
  std::uint64_t grid_cells = 0;
  try {
    grid_cells = grid_params(data.extent, spec.eps).num_cells();
  } catch (const std::invalid_argument& e) {
    grid_error = e.what();
  }
  if (spec.fused || spec.quality.mode != ClusterQuality::kCellGraph) {
    if (!grid_error.empty()) {
      past(grid_error);
      return;
    }
    job->run = spec.fused ? RunKind::kFused : RunKind::kTable;
  } else {
    const CellGraphFit& fit =
        cell_graph_fit_locked(data, spec.eps, spec.minpts);
    if (!grid_error.empty() && !fit.error.empty()) {
      past(grid_error + "; " + fit.error);
      return;
    }
    const bool fused_cheaper =
        grid_error.empty() &&
        grid_cells <= kFusedGridCellsPerPoint * data.points.size() &&
        fit.dense_share < kCellGraphDenseShare;
    job->run = fit.error.empty() && !fused_cheaper ? RunKind::kCellGraph
                                                   : RunKind::kFused;
  }
  const auto [pairs, bytes] = price_of(data, spec.eps);
  job->priced_pairs = pairs;
  job->priced_bytes = bytes;
  rs.results[job->index].priced_pairs = pairs;
  rs.results[job->index].priced_bytes = bytes;

  // One-item minimum: an empty queue admits anything — a single
  // over-budget job must stall admission behind it, never deadlock it.
  if (queued_count_ != 0) {
    while (queued_count_ + 1 > options_.queue_depth_limit) {
      if (!shed_for_locked(spec.priority, 0, rs)) {
        reject("queue depth limit (" +
               std::to_string(options_.queue_depth_limit) + ") reached");
        return;
      }
    }
    while (options_.queue_bytes_budget != 0 &&
           queued_bytes_ + bytes > options_.queue_bytes_budget) {
      if (!shed_for_locked(spec.priority, bytes, rs)) {
        reject("queue byte budget (" +
               std::to_string(options_.queue_bytes_budget) +
               " B) would be exceeded by priced " + std::to_string(bytes) +
               " B");
        return;
      }
    }
  }
  {
    std::lock_guard slock(stats_mutex_);
    ++stats_.admitted;
  }
  obs::Registry::global()
      .counter("service_requests", "outcome=admitted")
      .add(1);
  job->admission_seconds = admission_timer.seconds();
  enqueue_locked(std::move(job));
  work_available_.notify_one();
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

std::shared_ptr<const GridIndex> ClusterService::grid_index(Dataset& ds,
                                                            float eps) {
  const std::uint32_t bits = eps_bits(eps);
  const double begin_us = obs::Tracer::global().now_us();
  // The cached index at `bits`, moved to the front as most recently used;
  // null when there is none (ds.index_mutex held).
  const auto take_cached = [&]() -> std::shared_ptr<const GridIndex> {
    const auto it = std::find_if(
        ds.indexes.begin(), ds.indexes.end(),
        [bits](const auto& entry) { return entry.first == bits; });
    if (it == ds.indexes.end()) return nullptr;
    std::rotate(ds.indexes.begin(), it, it + 1);
    return ds.indexes.front().second;
  };
  std::shared_ptr<const GridIndex> cached;
  {
    std::lock_guard lock(ds.index_mutex);
    cached = take_cached();
  }
  if (cached != nullptr) {
    record_index_span(begin_us, /*built=*/false, eps);
    return cached;
  }
  // Built outside the lock: other eps stay servable meanwhile.
  auto built =
      std::make_shared<const GridIndex>(build_grid_index(ds.points, eps));
  {
    std::lock_guard slock(stats_mutex_);
    ++stats_.index_builds;
  }
  std::shared_ptr<const GridIndex> index;
  {
    std::lock_guard lock(ds.index_mutex);
    index = take_cached();
    if (index == nullptr) {
      ds.indexes.emplace(ds.indexes.begin(), bits, built);
      if (ds.indexes.size() > kMaxDatasetIndexes) ds.indexes.pop_back();
      index = std::move(built);
    }
  }
  record_index_span(begin_us, /*built=*/true, eps);
  return index;
}

ClusterService::PendingPtr ClusterService::pop_group(
    std::vector<PendingPtr>& members) {
  std::unique_lock lock(mutex_);
  work_available_.wait(lock, [&] {
    return queued_count_ != 0 || (closed_ && in_flight_groups_ == 0);
  });
  if (queued_count_ == 0) return nullptr;

  PendingPtr leader;
  for (std::size_t cls = kNumClasses; cls-- > 0;) {
    auto& order = rr_order_[cls];
    if (order.empty()) continue;
    for (std::size_t step = 0; step < order.size(); ++step) {
      const std::size_t at = (rr_cursor_[cls] + step) % order.size();
      auto& q = queues_[cls][order[at]];
      if (q.empty()) continue;
      leader = q.front();
      q.pop_front();
      remove_queued_locked(*leader);
      rr_cursor_[cls] = (at + 1) % order.size();
      break;
    }
    if (leader != nullptr) break;
  }
  if (leader == nullptr) return nullptr;  // unreachable; defensive
  const double pickup_us = obs::Tracer::global().now_us();
  leader->pickup_us = pickup_us;

  if (options_.coalesce) {
    // Same-(dataset, eps) jobs of the leader's run kind ride along with
    // its build — whatever their tenant or class, they cost no extra
    // device time. A table job cannot share a run that produces no table,
    // and a fused or cell-graph run is the whole clustering, its minpts
    // baked into the union-find, so those also require equal minpts. A
    // fused run serves fused and cell-graph jobs alike.
    const bool needs_equal_minpts = leader->run != RunKind::kTable;
    for (auto& per_class : queues_) {
      for (auto& [tenant, q] : per_class) {
        for (auto it = q.begin(); it != q.end();) {
          if ((*it)->data == leader->data &&
              eps_bits((*it)->spec.eps) == eps_bits(leader->spec.eps) &&
              (*it)->run == leader->run &&
              (!needs_equal_minpts ||
               (*it)->spec.minpts == leader->spec.minpts)) {
            remove_queued_locked(**it);
            // The member's work happens under the leader's request id;
            // the link instant lets the analyzer chase a member's latency
            // into the leader's build spans.
            (*it)->pickup_us = pickup_us;
            (*it)->trace.link_id = leader->trace.request_id;
            obs::link("coalesced", (*it)->trace.request_id,
                      (*it)->trace.tenant, leader->trace.request_id);
            members.push_back(std::move(*it));
            it = q.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
  }
  ++in_flight_groups_;
  return leader;
}

void ClusterService::requeue_front(std::vector<PendingPtr> group) {
  std::lock_guard lock(mutex_);
  for (auto& job : group) {
    const auto cls = static_cast<std::size_t>(job->spec.priority);
    auto& tenant_q = queues_[cls][job->spec.tenant];
    if (std::find(rr_order_[cls].begin(), rr_order_[cls].end(),
                  job->spec.tenant) == rr_order_[cls].end()) {
      rr_order_[cls].push_back(job->spec.tenant);
    }
    queued_bytes_ += job->priced_bytes;
    ++queued_count_;
    tenant_q.push_front(std::move(job));
  }
  work_available_.notify_all();
}

int ClusterService::pick_device() {
  const std::size_t k = devices_.size();
  const std::size_t start = dispatch_rr_.fetch_add(1) % k;
  int fallback = -1;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t d = (start + i) % k;
    if (devices_[d]->lost()) continue;
    if (fallback < 0) fallback = static_cast<int>(d);
    if (breaker_.allow(d)) return static_cast<int>(d);
  }
  // Every live device's breaker is open: route to the first live one
  // anyway (an open breaker sheds load onto alternatives; when there is
  // no alternative it must not starve the queue).
  return fallback;
}

ClusterService::TenantCounts& ClusterService::tenant_counts_locked(
    const std::string& tenant) {
  TenantCounts& tc = tenant_stats_[tenant];
  if (tc.latency == nullptr) {
    tc.latency = &obs::Registry::global().histogram(
        "service_latency_seconds", "tenant=" + tenant);
  }
  return tc;
}

void ClusterService::record_terminal(const Pending& job, ReplayState& rs,
                                     JobState state, JobResult&& partial) {
  partial.state = state;
  partial.retries = job.retries;
  partial.request_id = job.trace.request_id;
  partial.linked_request_id = job.trace.link_id;

  // Close the latency ledger: every wall microsecond between submit and
  // now lands in exactly one stage. Admission and queue-wait come from
  // the Pending's stamps; build/cache/stream were added by the caller;
  // whatever is left is finalize (result assembly + this bookkeeping).
  const double now_us = obs::Tracer::global().now_us();
  double latency_seconds = 0.0;
  if (job.submit_us > 0.0) {
    latency_seconds = std::max(0.0, (now_us - job.submit_us) * 1e-6);
    partial.stages.add(Stage::kAdmission, job.admission_seconds);
    const double queue_wait =
        job.pickup_us > 0.0
            ? std::max(0.0, (job.pickup_us - job.submit_us) * 1e-6 -
                                job.admission_seconds)
            : std::max(0.0, latency_seconds - job.admission_seconds);
    partial.stages.add(Stage::kQueueWait, queue_wait);
    const double finalize =
        latency_seconds - partial.stages.total_wall_seconds();
    partial.stages.add(Stage::kFinalize, std::max(0.0, finalize));
    emit_stage_spans(job.trace, job.submit_us, partial.stages);
  }

  obs::Registry& reg = obs::Registry::global();
  {
    const std::string tenant_label = "tenant=" + job.spec.tenant;
    for (std::size_t s = 0; s < kNumStages; ++s) {
      const double wall = partial.stages.wall_seconds[s];
      if (wall <= 0.0) continue;
      reg.histogram("service_stage_seconds",
                    "stage=" + std::string(stage_name(static_cast<Stage>(s))) +
                        "," + tenant_label)
          .observe(wall);
    }
    reg.counter("service_tenant_requests",
                tenant_label + ",outcome=" + job_state_name(state))
        .add(1);
  }

  if (state == JobState::kFailed) {
    obs::FlightRecorder& fr = obs::FlightRecorder::global();
    fr.note("job", job.trace.request_id,
            "request %llu (tenant %s, dataset %s) failed: %s after %u "
            "retries",
            static_cast<unsigned long long>(job.trace.request_id),
            job.spec.tenant.c_str(), job.spec.dataset.c_str(),
            failure_reason_name(partial.failure), partial.retries);
    fr.dump("job_failed");
  }

  {
    std::lock_guard lock(rs.results_mutex);
    // Preserve admission pricing stamped at submit.
    partial.priced_pairs = rs.results[job.index].priced_pairs;
    partial.priced_bytes = rs.results[job.index].priced_bytes;
    rs.results[job.index] = std::move(partial);
  }
  publish_outcome(state);
  std::lock_guard slock(stats_mutex_);
  TenantCounts& tc = tenant_counts_locked(job.spec.tenant);
  const auto terminal_idx = static_cast<std::size_t>(state) -
                            static_cast<std::size_t>(JobState::kCompleted);
  if (terminal_idx < tc.terminal.size()) ++tc.terminal[terminal_idx];
  if (job.submit_us > 0.0) tc.latency->observe(latency_seconds);
  switch (state) {
    case JobState::kCompleted:
      ++stats_.completed;
      break;
    case JobState::kRejected:
      ++stats_.rejected;
      break;
    case JobState::kShed:
      ++stats_.shed;
      break;
    case JobState::kCancelled:
      ++stats_.cancelled;
      break;
    case JobState::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      break;
    case JobState::kFailed:
      ++stats_.failed;
      break;
    default:
      break;
  }
}

void ClusterService::worker_loop(unsigned worker_id, ReplayState& rs) {
  obs::set_thread_track(obs::kHostPid, "service_worker");
  for (;;) {
    std::vector<PendingPtr> members;
    PendingPtr leader = pop_group(members);
    if (leader == nullptr) {
      work_available_.notify_all();  // wake siblings so they can exit too
      return;
    }
    process_group(std::move(leader), std::move(members), worker_id, rs);
    {
      std::lock_guard lock(mutex_);
      --in_flight_groups_;
    }
    work_available_.notify_all();
  }
}

void ClusterService::process_group(PendingPtr leader,
                                   std::vector<PendingPtr> members,
                                   unsigned worker_id, ReplayState& rs) {
  std::vector<PendingPtr> group;
  group.push_back(std::move(leader));
  for (auto& m : members) group.push_back(std::move(m));

  double& clock = rs.worker_clocks[worker_id];

  // Terminal filters that never touch a device: client abandoned, and
  // modeled deadline already missed while queued.
  std::vector<PendingPtr> runnable;
  for (auto& job : group) {
    if (job->token->cancelled()) {
      JobResult r;
      r.failure = job->token->reason() == CancelReason::kDeadline
                      ? FailureReason::kDeadlineExceeded
                      : FailureReason::kCancelled;
      const JobState state = r.failure == FailureReason::kDeadlineExceeded
                                 ? JobState::kDeadlineExceeded
                                 : JobState::kCancelled;
      r.modeled_start_seconds = clock;
      r.modeled_finish_seconds = clock;
      record_terminal(*job, rs, state, std::move(r));
      continue;
    }
    if (job->spec.deadline_seconds > 0.0 &&
        std::max(clock, job->spec.arrival_seconds) >
            job->spec.deadline_seconds) {
      JobResult r;
      r.failure = FailureReason::kDeadlineExceeded;
      r.modeled_start_seconds = clock;
      r.modeled_finish_seconds = clock;
      record_terminal(*job, rs, JobState::kDeadlineExceeded, std::move(r));
      continue;
    }
    runnable.push_back(std::move(job));
  }
  if (runnable.empty()) return;

  const JobSpec& lead = runnable.front()->spec;
  const RunKind run = runnable.front()->run;
  Dataset& ds = *runnable.front()->data;
  const TableCache::Key key{lead.dataset, eps_bits(lead.eps), ds.generation};
  bool coalesced_build = runnable.size() > 1;
  // Counted once, when the group is served: a dispatch that fails and
  // requeues its jobs shared nothing.
  auto count_coalesced = [&] {
    if (!coalesced_build) return;
    std::lock_guard slock(stats_mutex_);
    ++stats_.coalesced_builds;
    stats_.coalesced_jobs += runnable.size() - 1;
  };

  // Shared work (index build, device build, calibration retries) runs
  // under the leader's request; per-job sections re-scope below, so every
  // span this worker records carries some request id.
  RequestScope group_scope(runnable.front()->trace);

  // --- Cell graph, for the cell-graph jobs it serves more cheaply than
  // the fused passes (dense cells, or a dense grid too big for the points
  // or past its capacity): the whole clustering is one host pass over the
  // eps/sqrt(d) cells' sparse keys — no neighbor table, no cache entry,
  // no device occupancy.
  // Coalescing guaranteed equal minpts, so one run serves the group;
  // labels come back in input order (no unmap). ---
  if (run == RunKind::kCellGraph) {
    const cudasim::DeviceConfig* cfg = nullptr;
    for (cudasim::Device* d : devices_) {
      if (!d->lost()) {
        cfg = &d->config();
        break;
      }
    }
    const cudasim::DeviceConfig reference{};  // modeled costs only
    WallTimer t;
    CellGraphReport cg;
    ClusterResult labels;
    try {
      labels = cell_graph_dbscan(ds.points, lead.eps, lead.minpts,
                                 cfg != nullptr ? *cfg : reference, &cg);
    } catch (...) {
      // The input is the fault (an extent past the cell key too, say), so
      // a retry would throw again and no device is to blame: the group
      // fails at once, with no retry and no breaker strike.
      const FailureReason fr = classify_current_exception();
      for (auto& job : runnable) {
        JobResult r;
        r.failure = fr;
        r.modeled_start_seconds = clock;
        r.modeled_finish_seconds = clock;
        record_terminal(*job, rs, JobState::kFailed, std::move(r));
      }
      return;
    }
    const double wall = t.seconds();
    count_coalesced();
    {
      std::lock_guard slock(stats_mutex_);
      stats_.cell_graph_jobs += runnable.size();
      ++stats_.clusterings_run;
    }
    bool first = true;
    for (auto& job : runnable) {
      RequestScope scope(job->trace);
      const double start = std::max(clock, job->spec.arrival_seconds);
      clock = start + (first ? wall : 0.0);
      JobResult r;
      r.coalesced = coalesced_build;
      r.device_id = -1;
      r.modeled_start_seconds = start;
      r.modeled_finish_seconds = clock;
      r.num_clusters = labels.num_clusters;
      r.noise_count = labels.noise_count();
      r.stages.add(Stage::kBuild, first ? wall : 0.0,
                   first ? cg.modeled_seconds : 0.0);
      if (options_.keep_labels) r.labels = labels.labels;
      record_terminal(*job, rs, JobState::kCompleted, std::move(r));
      first = false;
    }
    return;
  }

  // Completes one job of a table or labels-only group. Labels are a pure
  // function of what the group shares (its table, or its fused passes)
  // and minpts, so the group clusters once per distinct minpts: the first
  // job that asks runs `cluster(minpts)` and unmaps the labels to input
  // order, and later jobs with that minpts copy them. The job's wall time
  // here (the pass, or only the copy) lands in `pass_stage` and advances
  // the modeled clock (host work is real work on this machine), so the
  // ledger and the makespan count only work that ran. The leader also
  // carries the group's `build_model` seconds; `build_wall` is the wall
  // time every job waited on the group's build (both 0 for cache hits).
  // The memo lives for this dispatch only: a requeued group clusters again
  // from its next build. The leader's completion counts the group's
  // sharing.
  std::map<int, GroupClustering> clusterings;
  auto finish = [&](Pending& job, JobResult r, double build_model,
                    double build_wall, Stage pass_stage,
                    const std::vector<PointId>& original_ids,
                    const auto& cluster) {
    RequestScope scope(job.trace);
    const double start = std::max(clock, job.spec.arrival_seconds);
    const bool is_leader = &job == runnable.front().get();
    if (is_leader) count_coalesced();
    const double device_share = is_leader ? build_model : 0.0;
    WallTimer t;
    auto it = clusterings.find(job.spec.minpts);
    if (it == clusterings.end()) {
      const ClusterResult labels = cluster(job.spec.minpts);
      GroupClustering c;
      c.num_clusters = labels.num_clusters;
      c.noise_count = labels.noise_count();
      if (options_.keep_labels) c.labels = unmap(labels.labels, original_ids);
      it = clusterings.emplace(job.spec.minpts, std::move(c)).first;
      std::lock_guard slock(stats_mutex_);
      ++stats_.clusterings_run;
    }
    const GroupClustering& c = it->second;
    if (options_.keep_labels) r.labels = c.labels;
    const double pass_wall = t.seconds();
    clock = start + device_share + pass_wall;
    r.coalesced = coalesced_build;
    r.modeled_start_seconds = start;
    r.modeled_finish_seconds = clock;
    r.modeled_device_seconds = device_share;
    r.num_clusters = c.num_clusters;
    r.noise_count = c.noise_count;
    r.stages.add(Stage::kBuild, build_wall, device_share);
    r.stages.add(pass_stage, pass_wall);
    record_terminal(job, rs, JobState::kCompleted, std::move(r));
  };
  // Alg. 4's BFS over a shared table: cache hits and fresh builds label
  // through it alike, so their labels are bit-identical.
  auto bfs_over = [](const NeighborTable& table) {
    return [&table](int minpts) {
      return dbscan_neighbor_table(table, minpts);
    };
  };
  // The union-find labels of the labels-only groups (cache off, or a
  // fused group's host rung): one banded pass over a table answers every
  // distinct minpts of the group (dbscan_parallel). The first job that
  // asks runs it; `finish` asks once per distinct minpts, so each result
  // is handed over once.
  std::vector<int> group_minpts;
  for (const auto& job : runnable) {
    if (std::find(group_minpts.begin(), group_minpts.end(),
                  job->spec.minpts) == group_minpts.end()) {
      group_minpts.push_back(job->spec.minpts);
    }
  }
  std::vector<ClusterResult> banded;
  auto banded_over = [&](const NeighborTable& table) {
    return [this, &banded, &group_minpts, &table](int minpts) {
      if (banded.empty()) {
        banded = dbscan_parallel(table, group_minpts, options_.dbscan_threads);
      }
      const auto at = std::find(group_minpts.begin(), group_minpts.end(),
                                minpts) -
                      group_minpts.begin();
      return std::move(banded[static_cast<std::size_t>(at)]);
    };
  };
  // A fresh table goes into the cache as built: every table producer emits
  // canonical rows (NeighborTable::is_canonical), so nothing re-sorts it.
  // The index keeps its ids; the entry gets a copy.
  auto cache_table = [&](NeighborTable&& table, const GridIndex& index) {
    CachedTable entry;
    entry.table = std::move(table);
    entry.original_ids = index.original_ids;
    entry.bytes = CachedTable::payload_bytes(entry.table);
    entry.built_by_request = runnable.front()->trace.request_id;
    return cache_.insert(key, std::move(entry));
  };

  // --- Cache hit: no device at all. Fused runs never probe: the cache
  // holds materialized tables, and serving a fused request from one would
  // silently undo its no-table contract (and skew A/B measurements). ---
  const bool fused = run == RunKind::kFused;
  if (TableCache::Handle hit = fused ? TableCache::Handle{}
                                     : cache_.find(key)) {
    JobResult served;
    served.cache_hit = true;
    for (auto& job : runnable) {
      // Link each hit back to the request whose build populated the
      // entry, so `explain` can chase a suspiciously fast request into
      // the build it reused.
      if (hit->built_by_request != 0 &&
          hit->built_by_request != job->trace.request_id) {
        job->trace.link_id = hit->built_by_request;
        obs::link("cache_hit", job->trace.request_id, job->trace.tenant,
                  hit->built_by_request);
      }
      finish(*job, served, /*build_model=*/0.0, /*build_wall=*/0.0,
             Stage::kCache, hit->original_ids, bfs_over(hit->table));
    }
    return;
  }

  // --- Fresh build. ---
  const int dev = pick_device();
  if (dev < 0) {
    // Fleet gone. Finish host-side (still a completed request) or fail. A
    // cell-graph job never asked for a device, so it finishes host-side
    // even without the host rung; the rest of its group fails. Failed
    // jobs go back to `group`, which keeps alive the spec `lead` names.
    if (!options_.host_fallback) {
      const auto host_side = std::stable_partition(
          runnable.begin(), runnable.end(), [](const PendingPtr& job) {
            return job->spec.quality.mode == ClusterQuality::kCellGraph &&
                   !job->spec.fused;
          });
      for (auto it = host_side; it != runnable.end(); ++it) {
        JobResult r;
        r.failure = FailureReason::kDeviceLost;
        record_terminal(**it, rs, JobState::kFailed, std::move(r));
        group.push_back(std::move(*it));
      }
      runnable.erase(host_side, runnable.end());
      if (runnable.empty()) return;
      coalesced_build = runnable.size() > 1;
    }
    WallTimer t;
    const std::shared_ptr<const GridIndex> index = grid_index(ds, lead.eps);
    {
      std::lock_guard slock(stats_mutex_);
      stats_.host_fallback_jobs += runnable.size();
      if (fused) stats_.fused_jobs += runnable.size();
    }
    JobResult served;
    served.fused = fused;
    served.host_fallback = true;
    if (fused) {
      // The fused passes need no table: with every device lost, the
      // engine's host rung runs each pass over the host grid, into the
      // consumer a device run fills, so the labels are the same.
      StreamingDbscan consumer(index->size(), lead.minpts);
      BatchPolicy hp = options_.policy;
      hp.resilience.host_fallback = true;
      hp.metrics_labels = "service=1";
      hp.trace = runnable.front()->trace;
      (void)fused_cluster(devices_, *index, lead.eps, consumer, hp);
      const double host_build = t.seconds();
      for (auto& job : runnable) {
        finish(*job, served, host_build, host_build, Stage::kStreamUnion,
               index->original_ids, [&](int) {
                 return consumer.finalize(options_.dbscan_threads);
               });
      }
      return;
    }
    NeighborTable table = gpu::host_csr_batch(
        GridView::of(*index), lead.eps, gpu::BatchSpec{0, 1}, ScanMode::kFull);
    const double host_build = t.seconds();
    // Each group gets the labels a live device gives it: BFS over its
    // cached table, and with the cache off the banded pass over the host
    // table (the labels-only path's union-find labels).
    if (!cache_.enabled()) {
      for (auto& job : runnable) {
        finish(*job, served, host_build, host_build, Stage::kStreamUnion,
               index->original_ids, banded_over(table));
      }
      return;
    }
    const TableCache::Handle pinned = cache_table(std::move(table), *index);
    for (auto& job : runnable) {
      finish(*job, served, host_build, host_build, Stage::kCache,
             pinned->original_ids, bfs_over(pinned->table));
    }
    return;
  }

  cudasim::Device& device = *devices_[static_cast<std::size_t>(dev)];
  BatchPolicy bp = options_.policy;
  bp.metrics_labels = "service=1";
  // Belt and braces: the builder re-installs this context on its pump
  // thread even if a future caller launches builds from an unscoped
  // thread.
  bp.trace = runnable.front()->trace;
  CancelToken* token = nullptr;
  if (runnable.size() == 1) {
    // Singleton builds propagate the job's own token into the ladder; a
    // coalesced build serves several clients, so one client's cancel
    // must not abort the others' work.
    token = runnable.front()->token.get();
    if (runnable.front()->spec.wall_deadline_seconds > 0.0) {
      token->set_deadline_after(runnable.front()->spec.wall_deadline_seconds);
    }
    bp.cancel = token;
  }

  try {
    WallTimer build_wall_timer;
    const std::shared_ptr<const GridIndex> index = grid_index(ds, lead.eps);
    const double index_wall = build_wall_timer.seconds();
    BuildReport report;
    JobResult served;
    served.fused = fused;
    served.device_id = dev;

    if (cache_.enabled() && !fused) {
      // Materialized path: one build, labels for every group job via the
      // same dbscan_neighbor_table a later cache hit will use — so
      // cache-hit labels are bit-identical to fresh-build labels.
      NeighborTable table =
          NeighborTableBuilder(device, bp).build(*index, lead.eps, &report);
      const double build_wall = build_wall_timer.seconds();
      const TableCache::Handle pinned = cache_table(std::move(table), *index);
      breaker_.record_success(static_cast<std::size_t>(dev));
      const double build_model = index_wall + report.modeled_table_seconds;
      served.host_fallback = report.used_host_fallback;
      for (auto& job : runnable) {
        finish(*job, served, build_model, build_wall, Stage::kCache,
               pinned->original_ids, bfs_over(pinned->table));
      }
      return;
    }

    if (fused) {
      // The fused passes run straight into one consumer: coalescing gave
      // a fused group one minpts. T is never materialized.
      StreamingDbscan consumer(index->size(), lead.minpts);
      if (token != nullptr) consumer.set_cancel_token(token);
      report = fused_cluster(device, *index, lead.eps, consumer, bp);
      breaker_.record_success(static_cast<std::size_t>(dev));
      const double build_wall = build_wall_timer.seconds();
      const double build_model = index_wall + report.modeled_table_seconds;
      {
        std::lock_guard slock(stats_mutex_);
        stats_.fused_jobs += runnable.size();
      }
      served.host_fallback = report.used_host_fallback;
      for (auto& job : runnable) {
        finish(*job, served, build_model, build_wall, Stage::kStreamUnion,
               index->original_ids, [&](int) {
                 return consumer.finalize(options_.dbscan_threads);
               });
      }
      return;
    }

    // Cache off: one table for the group, held only while one banded pass
    // answers every distinct minpts. Hard failures fall through to the
    // breaker + retry ladder like any build.
    const NeighborTable table =
        NeighborTableBuilder(device, bp).build(*index, lead.eps, &report);
    breaker_.record_success(static_cast<std::size_t>(dev));
    const double build_wall = build_wall_timer.seconds();
    const double build_model = index_wall + report.modeled_table_seconds;
    served.host_fallback = report.used_host_fallback;
    for (auto& job : runnable) {
      finish(*job, served, build_model, build_wall, Stage::kStreamUnion,
             index->original_ids, banded_over(table));
    }
    return;
  } catch (...) {
    const FailureReason fr = classify_current_exception();
    if (fr == FailureReason::kCancelled ||
        fr == FailureReason::kDeadlineExceeded) {
      // Only singleton builds carry a token, so the group is one job. The
      // unwind already returned its pooled buffers.
      Pending& job = *runnable.front();
      JobResult r;
      r.failure = fr;
      r.device_id = dev;
      r.modeled_start_seconds = clock;
      r.modeled_finish_seconds = clock;
      record_terminal(job, rs,
                      fr == FailureReason::kCancelled
                          ? JobState::kCancelled
                          : JobState::kDeadlineExceeded,
                      std::move(r));
      return;
    }
    obs::FlightRecorder& frec = obs::FlightRecorder::global();
    frec.note("build", runnable.front()->trace.request_id,
              "build failed on device %d: %s (group of %zu)", dev,
              failure_reason_name(fr), runnable.size());
    if (breaker_.record_failure(static_cast<std::size_t>(dev))) {
      frec.note("breaker", runnable.front()->trace.request_id,
                "breaker opened on device %d", dev);
      frec.dump("breaker_open");
    }
    bool retry = false;
    {
      std::lock_guard lock(mutex_);
      if (retry_budget_left_ != 0) {
        --retry_budget_left_;
        retry = true;
      }
    }
    if (retry) {
      {
        std::lock_guard slock(stats_mutex_);
        ++stats_.retries;
      }
      obs::Registry::global().counter("service_retries").add(1);
      for (auto& job : runnable) ++job->retries;
      requeue_front(std::move(runnable));
      return;
    }
    for (auto& job : runnable) {
      JobResult r;
      r.failure = fr;
      r.device_id = dev;
      r.modeled_start_seconds = clock;
      r.modeled_finish_seconds = clock;
      record_terminal(*job, rs, JobState::kFailed, std::move(r));
    }
    return;
  }
}

std::vector<JobResult> ClusterService::replay(
    const std::vector<JobSpec>& jobs) {
  ReplayState rs;
  rs.results.resize(jobs.size());
  rs.worker_clocks.assign(std::max(1u, options_.num_workers), 0.0);
  {
    std::lock_guard lock(mutex_);
    closed_ = false;
    retry_budget_left_ = options_.retry_budget;
  }

  // Admission pass, in arrival order. replay is the whole "network": all
  // jobs are on the doorstep before serving starts, which makes admission
  // decisions deterministic for a given job list.
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      auto job = std::make_shared<Pending>();
      job->spec = jobs[i];
      job->index = i;
      job->token = std::make_shared<CancelToken>();
      if (job->spec.abandoned) job->token->cancel();
      submit_locked(std::move(job), rs);
    }
    closed_ = true;
  }
  work_available_.notify_all();

  std::vector<std::thread> workers;
  const unsigned n_workers = std::max(1u, options_.num_workers);
  workers.reserve(n_workers);
  for (unsigned w = 0; w < n_workers; ++w) {
    workers.emplace_back([this, w, &rs] { worker_loop(w, rs); });
  }
  for (auto& w : workers) w.join();

  double makespan = 0.0;
  for (double c : rs.worker_clocks) makespan = std::max(makespan, c);
  {
    std::lock_guard slock(stats_mutex_);
    stats_.modeled_makespan_seconds =
        std::max(stats_.modeled_makespan_seconds, makespan);
    stats_.cache_hits = cache_.hits();
    stats_.cache_misses = cache_.misses();
    stats_.cache_evictions = cache_.evictions();
    stats_.breaker_opens = breaker_.opens();
  }
  obs::Registry::global()
      .gauge("service_modeled_makespan_seconds")
      .set(makespan);
  return std::move(rs.results);
}

ServiceStats ClusterService::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

std::vector<TenantSlo> ClusterService::slo_report() const {
  std::vector<TenantSlo> report;
  std::lock_guard lock(stats_mutex_);
  for (const auto& [tenant, tc] : tenant_stats_) {
    TenantSlo row;
    row.tenant = tenant;
    row.submitted = tc.submitted;
    row.completed = tc.terminal[0];
    row.rejected = tc.terminal[1];
    row.shed = tc.terminal[2];
    row.cancelled = tc.terminal[3];
    row.deadline_exceeded = tc.terminal[4];
    row.failed = tc.terminal[5];
    if (tc.latency != nullptr) {
      const obs::Histogram::Snapshot snap = tc.latency->snapshot();
      row.p50_seconds = snap.quantile(0.5);
      row.p99_seconds = snap.quantile(0.99);
    }
    row.target_p99_seconds = options_.slo_p99_target_seconds;
    row.target_met = row.target_p99_seconds <= 0.0 ||
                     row.p99_seconds <= row.target_p99_seconds;
    report.push_back(std::move(row));
  }
  return report;
}

}  // namespace hdbscan::service
