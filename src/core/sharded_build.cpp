#include "core/sharded_build.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/timer.hpp"
#include "core/failure.hpp"
#include "core/report_metrics.hpp"
#include "core/shard_planner.hpp"
#include "cudasim/error.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

/// Per-global-key delivery ledger shared by every shard's TranslatingSink.
/// On the fault-free path it is write-once bookkeeping (shards own disjoint
/// keys, so concurrent sinks touch disjoint bytes); its purpose is the
/// resilience ladder — a shard re-partitioned off a dead device must not
/// re-deliver counts or rows a previous attempt already pushed into the
/// caller's sink. Cross-round visibility comes from the thread joins
/// between rounds.
struct DedupLedger {
  std::vector<std::uint8_t> counts_sent;
  std::vector<std::uint8_t> row_sent;
  explicit DedupLedger(std::size_t n) : counts_sent(n, 0), row_sent(n, 0) {}
};

/// Rewrites one shard's deliveries into the global key space before
/// handing them to the caller's sink: keys are shard-local resident ids,
/// the consumer speaks global ids. VALUES arrive already global — the
/// slab kernels emit through the shard's emission map — so on the
/// fault-free path the value and offset spans pass through untouched and
/// the per-delivery work is O(keys), not O(pairs). Ghost-key rows never
/// occur (the slab kernels only run over owned points). Serialized per
/// shard; distinct shards deliver concurrently, which is the same
/// contract the builder's stream threads already impose on the
/// downstream sink.
class TranslatingSink final : public BatchSink {
 public:
  TranslatingSink(BatchSink* downstream, const GridShard* shard,
                  DedupLedger* ledger,
                  std::atomic<std::uint64_t>* cross_pairs,
                  const std::uint32_t* row_of)
      : downstream_(downstream),
        shard_(shard),
        ledger_(ledger),
        cross_pairs_(cross_pairs),
        row_of_(row_of) {}

  void consume_counts(const CountDelivery& d) override {
    std::lock_guard lock(mutex_);
    keys_.clear();
    counts_.clear();
    for (std::size_t g = 0; g < d.counts.size(); ++g) {
      const PointId local = d.key_at(g);
      if (local >= shard_->num_owned) continue;
      const PointId global = shard_->to_global[local];
      // A prior attempt on a lost device may already have delivered this
      // key's degree, via its counts or via a counts-less row.
      if (ledger_->counts_sent[global] != 0 ||
          ledger_->row_sent[global] != 0) {
        continue;
      }
      ledger_->counts_sent[global] = 1;
      keys_.push_back(global);
      counts_.push_back(d.counts[g]);
    }
    if (keys_.empty()) return;
    CountDelivery out;
    out.scan_mode = d.scan_mode;
    out.counts = counts_;
    out.keys = keys_;
    downstream_->consume_counts(out);
  }

  void consume(const BatchDelivery& d) override {
    std::lock_guard lock(mutex_);
    const std::size_t nkeys = d.offsets.size();
    // Fast path: every key is owned, fresh, and counted — true on every
    // delivery of a fault-free build. Keys are translated (O(keys)); the
    // offset and value spans alias the builder's staging untouched.
    bool fresh = true;
    for (std::size_t g = 0; g < nkeys && fresh; ++g) {
      const PointId local = d.key_at(g);
      fresh = local < shard_->num_owned &&
              ledger_->row_sent[shard_->to_global[local]] == 0 &&
              ledger_->counts_sent[shard_->to_global[local]] != 0;
    }
    if (fresh) {
      keys_.clear();
      for (std::size_t g = 0; g < nkeys; ++g) {
        const PointId global = shard_->to_global[d.key_at(g)];
        ledger_->row_sent[global] = 1;
        keys_.push_back(global);
      }
      BatchDelivery out = d;
      out.counts_delivered = true;
      out.keys = keys_;
      downstream_->consume(out);
      cross_pairs_->fetch_add(count_ghost_values(d.values),
                              std::memory_order_relaxed);
      return;
    }
    // One outgoing batch carries a single counts_delivered flag, but after
    // a device loss the surviving keys can be in mixed states (a dead
    // attempt delivered some counts but not the rows); emit one batch per
    // state.
    for (const bool counted : {true, false}) {
      keys_.clear();
      offsets_.clear();
      values_.clear();
      std::uint64_t cross = 0;
      for (std::size_t g = 0; g < nkeys; ++g) {
        const PointId local = d.key_at(g);
        if (local >= shard_->num_owned) continue;
        const PointId global = shard_->to_global[local];
        if (ledger_->row_sent[global] != 0) continue;
        if ((ledger_->counts_sent[global] != 0) != counted) continue;
        ledger_->row_sent[global] = 1;
        if (!counted) ledger_->counts_sent[global] = 1;  // degree from row
        offsets_.push_back(static_cast<std::uint32_t>(values_.size()));
        keys_.push_back(global);
        const std::size_t row_begin = d.offsets[g];
        const std::size_t row_end =
            g + 1 < nkeys ? d.offsets[g + 1] : d.values.size();
        for (std::size_t a = row_begin; a < row_end; ++a) {
          const PointId v = d.values[a];  // already global (emission map)
          if (row_of_[v] < shard_->row_begin || row_of_[v] >= shard_->row_end) {
            ++cross;  // ghost endpoint: another shard owns it
          }
          values_.push_back(v);
        }
      }
      if (keys_.empty()) continue;
      BatchDelivery out;
      out.scan_mode = d.scan_mode;
      out.counts_delivered = counted;
      out.offsets = offsets_;
      out.values = values_;
      out.keys = keys_;
      downstream_->consume(out);
      cross_pairs_->fetch_add(cross, std::memory_order_relaxed);
    }
  }

 private:
  [[nodiscard]] std::uint64_t count_ghost_values(
      std::span<const PointId> values) const noexcept {
    std::uint64_t cross = 0;
    for (const PointId v : values) {
      if (row_of_[v] < shard_->row_begin || row_of_[v] >= shard_->row_end) {
        ++cross;
      }
    }
    return cross;
  }

  BatchSink* downstream_;
  const GridShard* shard_;
  DedupLedger* ledger_;
  std::atomic<std::uint64_t>* cross_pairs_;
  const std::uint32_t* row_of_;  ///< global id -> cell row (cross tally)
  std::mutex mutex_;
  std::vector<PointId> keys_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> offsets_;
  std::vector<PointId> values_;
};

/// Sums one shard's per-build counters into the fleet report. Timings that
/// the orchestrator re-derives (modeled_table_seconds, table_seconds,
/// expand_seconds) are deliberately not folded in here.
void accumulate_report(BuildReport& agg, const BuildReport& r) {
  agg.plan.num_batches += r.plan.num_batches;
  agg.plan.estimated_total_pairs += r.plan.estimated_total_pairs;
  agg.plan.buffer_pairs = std::max(agg.plan.buffer_pairs, r.plan.buffer_pairs);
  agg.estimate.sampled_pairs += r.estimate.sampled_pairs;
  agg.estimate.estimated_total += r.estimate.estimated_total;
  agg.batches_run += r.batches_run;
  agg.overflow_splits += r.overflow_splits;
  agg.total_pairs += r.total_pairs;
  agg.max_batch_pairs = std::max(agg.max_batch_pairs, r.max_batch_pairs);
  agg.estimate_seconds += r.estimate_seconds;
  agg.kernel_modeled_seconds += r.kernel_modeled_seconds;
  agg.scan_modeled_seconds += r.scan_modeled_seconds;
  agg.atomic_ops += r.atomic_ops;
  agg.d2h_bytes += r.d2h_bytes;
  agg.kernel_flops += r.kernel_flops;
  agg.kernel_global_bytes += r.kernel_global_bytes;
  agg.sink_batches += r.sink_batches;
  agg.sink_count_batches += r.sink_count_batches;
  agg.sink_consume_seconds += r.sink_consume_seconds;
  agg.transient_retries += r.transient_retries;
  agg.alloc_retries += r.alloc_retries;
  agg.failover_batches += r.failover_batches;
  agg.host_fallback_batches += r.host_fallback_batches;
  agg.used_host_fallback = agg.used_host_fallback || r.used_host_fallback;
}

/// Forward cross pairs visible in a shard-local table: values are global
/// (emission map); one whose cell row falls outside the shard's owned
/// rows is a ghost, i.e. the other endpoint belongs to another shard.
std::uint64_t count_cross_pairs(const NeighborTable& local,
                                std::uint32_t num_owned,
                                const std::uint32_t* row_of,
                                std::uint32_t row_begin,
                                std::uint32_t row_end) {
  std::uint64_t cross = 0;
  for (std::uint32_t k = 0; k < num_owned; ++k) {
    for (const PointId v : local.neighbors(k)) {
      if (row_of[v] < row_begin || row_of[v] >= row_end) ++cross;
    }
  }
  return cross;
}

/// One shard's outcome, produced on the owning device's host thread.
struct ShardOutcome {
  std::uint32_t row_begin = 0;
  NeighborTable translated;  ///< global-sized table (materialized builds)
  BuildReport report;
  double timeline_seconds = 0.0;  ///< modeled device time + host translate
  std::uint64_t ghosts = 0;
  std::uint64_t cross = 0;  ///< table-derived cross pairs (no-sink path)
  bool ok = false;
  std::uint32_t fail_row_begin = 0;  ///< owned range to re-partition
  std::uint32_t fail_row_end = 0;
};

NeighborTable build_sharded_impl(
    const std::vector<cudasim::Device*>& devices, const GridIndex& index,
    float eps, const ShardedBuildOptions& options, BuildReport* report,
    BatchSink* sink, bool materialize_table) {
  if (devices.empty()) {
    throw std::invalid_argument("build_sharded_neighbor_table: no devices");
  }
  WallTimer total_timer;
  TRACE_SPAN("build", "sharded_build n=%zu", index.size());

  BuildReport agg;
  agg.scan_mode = options.policy.scan_mode;
  agg.streamed = sink != nullptr;
  agg.table_materialized = materialize_table;

  std::vector<cudasim::Device*> live;
  for (cudasim::Device* d : devices) {
    if (d != nullptr && !d->lost()) live.push_back(d);
  }

  const unsigned requested =
      options.num_shards != 0 ? options.num_shards
                              : static_cast<unsigned>(
                                    std::max<std::size_t>(1, live.size()));

  // Serial host phases (planning, shard merges, the final expansion) and
  // the per-round slowest-device timeline compose the modeled wall time:
  // devices run their shards concurrently, so a round costs its slowest
  // device, never the sum.
  double modeled_fixed = 0.0;
  double modeled_stream = 0.0;

  const unsigned host_cores = static_cast<unsigned>(
      std::max(1, live.empty() ? cudasim::DeviceConfig{}.host_cores
                               : live.front()->config().host_cores));
  ShardPlan plan;
  if (options.plan != nullptr) {
    if (options.plan->owner_of.size() != index.size()) {
      throw std::invalid_argument(
          "build_sharded_neighbor_table: options.plan was computed for a "
          "different index");
    }
    // Deep-copy the borrowed plan's shards: the build queue consumes
    // them destructively (ids relabeled per round, sub-indexes moved to
    // the device threads) and the caller's plan must stay reusable. The
    // copy is host bookkeeping — a deployment keeps each resident
    // sub-index on its device across builds — so it is not on the
    // modeled clock; a reused plan's construction was charged when the
    // caller ran plan_shards.
    plan.shards = options.plan->shards;
  } else {
    plan = plan_shards(index, requested, host_cores);
    modeled_fixed += plan.critical_seconds;
  }

  std::unique_ptr<DedupLedger> ledger;
  if (sink != nullptr) ledger = std::make_unique<DedupLedger>(index.size());
  std::atomic<std::uint64_t> cross_pairs{0};

  // Global id -> cell row, for the O(1)-per-value cross-pair tally.
  // Bookkeeping, not pipeline work: on the reference hardware the fill
  // kernel counts ghost-valued emissions as it writes them, so neither
  // this map nor the tallies that use it sit on the modeled clock.
  std::vector<std::uint32_t> row_of(index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    row_of[i] = index.params.cell_y_of(index.points[i].y);
  }

  NeighborTable table(index.size());
  std::vector<NeighborTable> merge_parts;  ///< translated shard tables
  std::deque<GridShard> pending;
  for (GridShard& s : plan.shards) pending.push_back(std::move(s));
  agg.shards = static_cast<std::uint32_t>(pending.size());

  std::uint32_t shard_uid = 0;
  std::uint32_t devices_died = 0;
  // Shard-level OOM strikes per device. A single-device shard build cannot
  // fail over, so a setup-stage OOM (index upload, context creation past
  // the builder's own shrink ladder) escapes build(); the orchestrator's
  // answer is to re-partition the slab into smaller shards — which shrinks
  // the resident set, unlike retrying — and bench a device that keeps
  // striking out.
  std::unordered_map<cudasim::Device*, unsigned> oom_strikes;

  while (!pending.empty() && !live.empty()) {
    // Cancellation between rounds; mid-round polls happen inside each
    // shard's builder (the token rides options.policy into every build).
    check_cancel(options.policy.cancel);
    const std::size_t ndev = live.size();
    std::vector<std::vector<GridShard>> assigned(ndev);
    {
      std::size_t i = 0;
      while (!pending.empty()) {
        pending.front().shard_id = shard_uid++;  // unique metric label
        assigned[i % ndev].push_back(std::move(pending.front()));
        pending.pop_front();
        ++i;
      }
    }

    std::vector<std::vector<ShardOutcome>> results(ndev);
    std::vector<std::uint8_t> dev_died(ndev, 0);
    std::vector<std::uint32_t> dev_oom(ndev, 0);
    std::vector<std::exception_ptr> hard_errors(ndev);

    std::vector<std::thread> workers;
    for (std::size_t d = 0; d < ndev; ++d) {
      if (assigned[d].empty()) continue;
      workers.emplace_back([&, d, ctx = current_request_context()] {
        RequestScope scope(ctx);
        auto& mine = assigned[d];
        for (std::size_t s = 0; s < mine.size(); ++s) {
          GridShard& shard = mine[s];
          ShardOutcome out;
          out.row_begin = shard.row_begin;
          out.fail_row_begin = shard.row_begin;
          out.fail_row_end = shard.row_end;
          out.ghosts = shard.num_ghosts();
          BatchPolicy sp = options.policy;
          // Deferred expansion: a shard-local one would emit ghost-key
          // rows that collide at the global merge. Device loss is
          // recovered here (re-partition), not inside the shard build.
          sp.expand_half = false;
          sp.resilience.failover = false;
          sp.resilience.host_fallback = false;
          sp.metrics_labels = "shard=" + std::to_string(shard.shard_id);
          TranslatingSink tsink(sink, &shard, ledger.get(), &cross_pairs,
                                row_of.data());
          try {
            NeighborTableBuilder builder(*live[d], sp);
            NeighborTable local =
                builder.build(shard.index, eps, &out.report,
                              sink != nullptr ? &tsink : nullptr,
                              materialize_table);
            double translate_seconds = 0.0;
            if (materialize_table) {
              if (sink == nullptr) {
                out.cross = count_cross_pairs(local, shard.num_owned,
                                              row_of.data(), shard.row_begin,
                                              shard.row_end);
              }
              ThreadCpuTimer translate_timer;
              out.translated = std::move(local).translate(
                  shard.to_global, shard.num_owned, index.size());
              translate_seconds = translate_timer.seconds();
            }
            out.timeline_seconds =
                out.report.modeled_table_seconds + translate_seconds;
            out.ok = true;
            results[d].push_back(std::move(out));
          } catch (const cudasim::DeviceLost&) {
            dev_died[d] = 1;
            results[d].push_back(std::move(out));
            // The device refuses all further work; everything else queued
            // on it goes back for re-partitioning.
            for (std::size_t rest = s + 1; rest < mine.size(); ++rest) {
              ShardOutcome skipped;
              skipped.fail_row_begin = mine[rest].row_begin;
              skipped.fail_row_end = mine[rest].row_end;
              results[d].push_back(std::move(skipped));
            }
            return;
          } catch (const cudasim::DeviceOutOfMemory&) {
            // The device survives an OOM; the shard goes back for
            // re-partitioning into smaller slabs. Dead-attempt sink
            // deliveries are filtered by the ledger exactly as after a
            // device loss.
            ++dev_oom[d];
            results[d].push_back(std::move(out));
          } catch (...) {
            hard_errors[d] = std::current_exception();
            return;
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (std::exception_ptr& e : hard_errors) {
      if (e) std::rethrow_exception(e);
    }

    double round_max = 0.0;
    std::vector<ShardOutcome*> successes;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> failed_ranges;
    for (std::size_t d = 0; d < ndev; ++d) {
      double timeline = 0.0;
      for (ShardOutcome& o : results[d]) {
        if (o.ok) {
          timeline += o.timeline_seconds;
          accumulate_report(agg, o.report);
          agg.halo_ghost_points += o.ghosts;
          cross_pairs.fetch_add(o.cross, std::memory_order_relaxed);
          successes.push_back(&o);
        } else {
          failed_ranges.emplace_back(o.fail_row_begin, o.fail_row_end);
        }
      }
      round_max = std::max(round_max, timeline);
    }
    modeled_stream += round_max;

    if (materialize_table) {
      // Stash the round's tables; the fan-in happens once, in parallel,
      // after every shard (including repartitioned ones) has built.
      std::sort(successes.begin(), successes.end(),
                [](const ShardOutcome* a, const ShardOutcome* b) {
                  return a->row_begin < b->row_begin;
                });
      for (ShardOutcome* o : successes) {
        merge_parts.push_back(std::move(o->translated));
      }
    }

    std::vector<cudasim::Device*> survivors;
    for (std::size_t d = 0; d < ndev; ++d) {
      if (dev_died[d] != 0) {
        ++devices_died;
        continue;
      }
      agg.alloc_retries += dev_oom[d];
      const unsigned strikes = (oom_strikes[live[d]] += dev_oom[d]);
      if (strikes > options.policy.resilience.max_alloc_retries) {
        continue;  // benched: keeps OOMing even on shrinking slabs
      }
      survivors.push_back(live[d]);
    }
    live = std::move(survivors);

    for (const auto& [rb, re] : failed_ranges) {
      ++agg.shard_repartitions;
      // With survivors, spread the dead slab across them; with none, keep
      // it whole for the host-fallback path below.
      ShardPlan replan = plan_shards(
          index, std::max<unsigned>(1, static_cast<unsigned>(live.size())),
          rb, re, host_cores);
      agg.shards += static_cast<std::uint32_t>(replan.shards.size());
      for (GridShard& s : replan.shards) pending.push_back(std::move(s));
      modeled_fixed += replan.critical_seconds;
    }
  }

  if (materialize_table && !merge_parts.empty()) {
    // One parallel fan-in: exact-size allocation, then disjoint region
    // copies and disjoint key rebases run concurrently — the model
    // charges the slowest worker, the way the reference host (a core per
    // shard) would experience the merge. The collision sweep is skipped:
    // row-homogeneous slab ownership makes the translated key sets
    // disjoint by construction (bit-identity to the one-device table is
    // property-tested).
    TRACE_SPAN("build", "sharded_merge parts=%zu", merge_parts.size());
    modeled_fixed += table.absorb_shards(std::move(merge_parts), host_cores,
                                         /*check_collisions=*/false);
  }

  if (!pending.empty()) {
    if (!options.policy.resilience.host_fallback) {
      throw cudasim::DeviceLost(
          "sharded build: all devices lost with work remaining");
    }
    // Final rung: finish the unbuilt slabs on the host, through the same
    // translation/dedup path, keeping everything the devices completed.
    agg.used_host_fallback = true;
    ThreadCpuTimer host_timer;
    const std::uint32_t zero = 0;
    for (GridShard& shard : pending) {
      check_cancel(options.policy.cancel);
      NeighborTable local = build_neighbor_table_host_strided(
          shard.index, eps, 0, 1, options.policy.scan_mode,
          options.policy.quality);
      ++agg.host_fallback_batches;
      agg.halo_ghost_points += shard.num_ghosts();
      if (sink != nullptr) {
        TranslatingSink tsink(sink, &shard, ledger.get(), &cross_pairs,
                              row_of.data());
        for (std::uint32_t k = 0; k < shard.num_owned; ++k) {
          BatchDelivery d;
          d.first_key = k;
          d.key_stride = 1;
          d.scan_mode = options.policy.scan_mode;
          d.counts_delivered = false;
          d.offsets = {&zero, 1};
          d.values = local.neighbors(k);
          tsink.consume(d);
        }
      } else if (materialize_table) {
        cross_pairs.fetch_add(
            count_cross_pairs(local, shard.num_owned, row_of.data(),
                              shard.row_begin, shard.row_end),
            std::memory_order_relaxed);
      }
      if (!materialize_table) continue;
      agg.total_pairs += local.total_pairs();
      table.absorb_shard(std::move(local).translate(
          shard.to_global, shard.num_owned, index.size()));
    }
    pending.clear();
    modeled_fixed += host_timer.seconds();
  }

  if (materialize_table && options.policy.scan_mode == ScanMode::kHalf) {
    // Shard builds merged forward rows; one global transpose restores the
    // back rows, making the table identical to a single-device build.
    TRACE_SPAN("build", "sharded_expand_half");
    agg.expand_seconds = table.expand_half_table(host_cores);
    modeled_fixed += agg.expand_seconds;
  }
  if (materialize_table) agg.total_pairs = table.total_pairs();

  agg.devices_lost = devices_died;
  agg.cross_shard_pairs = cross_pairs.load(std::memory_order_relaxed);
  agg.shard_fixed_seconds = modeled_fixed;
  agg.shard_stream_seconds = modeled_stream;
  agg.modeled_table_seconds = modeled_fixed + modeled_stream;
  agg.table_seconds = total_timer.seconds();

  std::vector<cudasim::DeviceMetrics> fleet;
  fleet.reserve(devices.size());
  for (cudasim::Device* d : devices) {
    if (d == nullptr) continue;
    const cudasim::DeviceMetrics m = d->metrics();
    publish_device_metrics(d->id(), m);
    fleet.push_back(m);
  }
  publish_fleet_metrics(fleet);
  publish_build_report(agg, options.policy.metrics_labels);

  if (report != nullptr) *report = agg;
  if (!materialize_table) return NeighborTable(index.size());
  return table;
}

}  // namespace

NeighborTable build_sharded_neighbor_table(
    const std::vector<cudasim::Device*>& devices, const GridIndex& index,
    float eps, const ShardedBuildOptions& options, BuildReport* report,
    BatchSink* sink, bool materialize_table) {
  try {
    return build_sharded_impl(devices, index, eps, options, report, sink,
                              materialize_table);
  } catch (...) {
    if (report != nullptr) report->failure = classify_current_exception();
    throw;
  }
}

NeighborTable build_fleet_neighbor_table(
    const std::vector<cudasim::Device*>& devices, const GridIndex& index,
    float eps, const ShardedBuildOptions& options, BuildReport* report,
    BatchSink* sink, bool materialize_table) {
  if (devices.size() == 1 && devices.front() != nullptr &&
      options.num_shards <= 1 && options.plan == nullptr) {
    NeighborTableBuilder builder(*devices.front(), options.policy);
    return builder.build(index, eps, report, sink, materialize_table);
  }
  return build_sharded_neighbor_table(devices, index, eps, options, report,
                                      sink, materialize_table);
}

}  // namespace hdbscan
