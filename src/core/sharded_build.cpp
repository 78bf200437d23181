#include "core/sharded_build.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <exception>
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
#include "gpu/kernels.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

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
  NeighborTable translated;  ///< global-sized table
  BuildReport report;
  double timeline_seconds = 0.0;  ///< modeled device time + host translate
  std::uint64_t ghosts = 0;
  std::uint64_t cross = 0;  ///< forward pairs to another shard's points
  bool ok = false;
  std::uint32_t fail_row_begin = 0;  ///< owned range to re-partition
  std::uint32_t fail_row_end = 0;
};

NeighborTable build_sharded_impl(
    const std::vector<cudasim::Device*>& devices, const GridIndex& index,
    float eps, const ShardedBuildOptions& options, BuildReport* report) {
  if (devices.empty()) {
    throw std::invalid_argument("build_sharded_neighbor_table: no devices");
  }
  WallTimer total_timer;
  TRACE_SPAN("build", "sharded_build n=%zu", index.size());

  BuildReport agg;
  agg.scan_mode = options.policy.scan_mode;

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

  std::uint64_t cross_pairs = 0;

  // Global id -> cell row, for the O(1)-per-value cross-pair tally.
  // Bookkeeping, not pipeline work: on the reference hardware the fill
  // kernel counts ghost-valued emissions as it writes them, so neither
  // this map nor the tallies that use it sit on the modeled clock.
  std::vector<std::uint32_t> row_of(index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    row_of[i] = index.params.axis_cell(1, index.points[i].y);
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
          // recovered here (re-partition): a one-device shard build has
          // no survivor to fail over to, so it throws DeviceLost.
          sp.expand_half = false;
          sp.resilience.host_fallback = false;
          sp.metrics_labels = "shard=" + std::to_string(shard.shard_id);
          try {
            NeighborTableBuilder builder(*live[d], sp);
            NeighborTable local = builder.build(shard.index, eps, &out.report);
            out.cross = count_cross_pairs(local, shard.num_owned,
                                          row_of.data(), shard.row_begin,
                                          shard.row_end);
            ThreadCpuTimer translate_timer;
            out.translated = std::move(local).translate(
                shard.to_global, shard.num_owned, index.size());
            out.timeline_seconds =
                out.report.modeled_table_seconds + translate_timer.seconds();
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
            // re-partitioning into smaller slabs.
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
          cross_pairs += o.cross;
          successes.push_back(&o);
        } else {
          failed_ranges.emplace_back(o.fail_row_begin, o.fail_row_end);
        }
      }
      round_max = std::max(round_max, timeline);
    }
    modeled_stream += round_max;

    // Stash the round's tables; the fan-in happens once, in parallel,
    // after every shard (including repartitioned ones) has built.
    std::sort(successes.begin(), successes.end(),
              [](const ShardOutcome* a, const ShardOutcome* b) {
                return a->row_begin < b->row_begin;
              });
    for (ShardOutcome* o : successes) {
      merge_parts.push_back(std::move(o->translated));
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

  if (!pending.empty()) {
    if (!options.policy.resilience.host_fallback) {
      throw cudasim::DeviceLost(
          "sharded build: all devices lost with work remaining");
    }
    // Final rung: finish the unbuilt slabs on the host with the kernels'
    // own count and fill bodies (one batch per slab, emitting through the
    // slab's map), through the same translation, keeping everything the
    // devices completed.
    agg.used_host_fallback = true;
    ThreadCpuTimer host_timer;
    for (const GridShard& shard : pending) {
      check_cancel(options.policy.cancel);
      NeighborTable local = gpu::host_csr_batch(
          GridView::of(shard.index), eps, gpu::BatchSpec{0, 1},
          options.policy.scan_mode);
      ++agg.host_fallback_batches;
      agg.halo_ghost_points += shard.num_ghosts();
      cross_pairs += count_cross_pairs(local, shard.num_owned, row_of.data(),
                                       shard.row_begin, shard.row_end);
      merge_parts.push_back(std::move(local).translate(
          shard.to_global, shard.num_owned, index.size()));
    }
    pending.clear();
    modeled_fixed += host_timer.seconds();
  }

  {
    // One assembly of the device slabs and the host rung's slabs: the
    // row-homogeneous slab ownership makes their translated key sets
    // disjoint (bit-identity to the one-device table is property-tested),
    // and under kHalf the same pass restores the back rows globally,
    // making the table identical to a single-device build. The model
    // charges its critical path, the way the reference host (a core per
    // chunk) would experience it.
    TRACE_SPAN("build", "sharded_assemble parts=%zu", merge_parts.size());
    agg.expand_seconds = table.assemble(
        std::move(merge_parts),
        options.policy.scan_mode == ScanMode::kHalf, host_cores);
    modeled_fixed += agg.expand_seconds;
    agg.total_pairs = table.total_pairs();
  }

  agg.devices_lost = devices_died;
  agg.cross_shard_pairs = cross_pairs;
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
  return table;
}

}  // namespace

NeighborTable build_sharded_neighbor_table(
    const std::vector<cudasim::Device*>& devices, const GridIndex& index,
    float eps, const ShardedBuildOptions& options, BuildReport* report) {
  try {
    return build_sharded_impl(devices, index, eps, options, report);
  } catch (...) {
    if (report != nullptr) report->failure = classify_current_exception();
    throw;
  }
}

NeighborTable build_fleet_neighbor_table(
    const std::vector<cudasim::Device*>& devices, const GridIndex& index,
    float eps, const ShardedBuildOptions& options, BuildReport* report) {
  if (devices.size() == 1 && devices.front() != nullptr &&
      options.num_shards <= 1 && options.plan == nullptr) {
    NeighborTableBuilder builder(*devices.front(), options.policy);
    return builder.build(index, eps, report);
  }
  return build_sharded_neighbor_table(devices, index, eps, options, report);
}

}  // namespace hdbscan
