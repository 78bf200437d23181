#include "core/neighbor_table_builder.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/batch_engine.hpp"
#include "core/report_metrics.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/error.hpp"
#include "cudasim/sort.hpp"
#include "gpu/kernels.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

/// The CSR step's per-lane state beside the engine's Lane. Every device
/// buffer a batch touches is checked out here, so once the lanes are open
/// the batch path allocates no device memory at all. The stream thread
/// appends into the lane's own shard of T lock-free, and the builder
/// harvests the tallies after the streams synchronize.
struct CsrLane {
  CsrLane(cudasim::Device& device, std::uint32_t num_points,
          std::uint64_t buffer_pairs, std::uint32_t max_batch_points)
      : shard(num_points),
        counts(device, max_batch_points),
        values(device, buffer_pairs),
        offsets_staging(device, max_batch_points),
        values_staging(device, buffer_pairs) {}

  /// Pinned staging bytes that required a *fresh* page-lock this build
  /// (pool hits were locked by an earlier build and cost nothing now).
  /// Feeds the modeled page-lock charge, which is why the N-variant reuse
  /// sweep pays the pinned-allocation cost only on its first variant.
  [[nodiscard]] std::uint64_t fresh_pinned_bytes() const noexcept {
    std::uint64_t b = 0;
    if (offsets_staging.fresh()) b += offsets_staging.bytes();
    if (values_staging.fresh()) b += values_staging.bytes();
    return b;
  }

  /// Private fraction of T; merged into the final table exactly once.
  NeighborTable shard;

  // --- two-pass CSR pipeline state (pool-backed: returned to the device's
  // BufferPool on destruction, so the next build over the same device
  // checks the same memory back out instead of re-allocating) ---
  cudasim::PooledDeviceBuffer<std::uint32_t> counts;
  cudasim::PooledDeviceBuffer<PointId> values;
  cudasim::PooledPinnedBuffer<std::uint32_t> offsets_staging;
  cudasim::PooledPinnedBuffer<PointId> values_staging;

  // --- lane-private tallies (harvested after synchronize) ---
  double scan_modeled = 0.0;
  std::uint64_t max_batch_pairs = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint32_t overflow_splits = 0;
};

[[noreturn]] void throw_split_exhausted(const gpu::BatchSpec& spec,
                                        unsigned depth,
                                        unsigned max_split_depth) {
  throw std::runtime_error(
      "neighbor table build: batch " + std::to_string(spec.batch) + "/" +
      std::to_string(spec.num_batches) + " exceeds the result buffer at "
      "split depth " + std::to_string(depth) + " (max_split_depth=" +
      std::to_string(max_split_depth) +
      "); buffer too small for the data density");
}

/// (l, n_b) == (l, 2 n_b) u (l + n_b, 2 n_b): same points, half each.
/// The halves stay on the splitting lane's sub-queue.
template <typename Point>
void push_halves(BatchEngine<Point>& engine, const Lane<Point>& lane,
                 const WorkItem& item) {
  WorkItem half = item;
  half.depth = item.depth + 1;
  half.spec = {item.spec.batch, item.spec.num_batches * 2};
  engine.requeue(lane, half);
  half.spec = {item.spec.batch + item.spec.num_batches,
               item.spec.num_batches * 2};
  engine.requeue(lane, half);
}

/// The table step. Two-pass CSR pipeline: count kernel -> exclusive scan
/// (exact batch size) -> D2H offsets -> fill kernel into exact slots ->
/// D2H values -> shard append. A batch whose exact size exceeds the value
/// buffer splits *before* any fill work runs. Under ScanMode::kHalf both
/// passes walk only the forward half of the stencil (counts stay
/// atomic-free) and the CSR rows that cross PCIe are forward rows.
template <typename Point>
void process_batch_csr(BatchEngine<Point>& engine, Lane<Point>& lane,
                       CsrLane& cl, const WorkItem& item,
                       const BatchPolicy& policy, float eps) {
  const gpu::BatchSpec spec = item.spec;
  const ScanMode scan = policy.scan_mode;
  const std::uint32_t pts = spec.points_in_batch(lane.view.num_points);
  if (pts == 0) return;
  TRACE_SPAN("batch", "batch %u/%u d%u", spec.batch, spec.num_batches,
             lane.device.id());

  lane.launch([&](const auto& view) {
    return gpu::run_count_batch(lane.device, view, eps, spec,
                                cl.counts.device_data(), scan,
                                policy.block_size);
  });
  ++lane.batches_run;

  // Exact batch size; counts become exclusive CSR offsets in place.
  const std::uint64_t total = cudasim::exclusive_scan(lane.device, cl.counts,
                                                      pts);
  const double scan_s = cudasim::modeled_scan_seconds(
      lane.device.config(), pts * sizeof(std::uint32_t));
  cl.scan_modeled += scan_s;
  lane.timeline += scan_s;

  if (total > cl.values.size()) {
    if (item.depth >= policy.max_split_depth) {
      throw_split_exhausted(spec, item.depth, policy.max_split_depth);
    }
    ++cl.overflow_splits;
    TRACE_INSTANT("resilience", "overflow_split %u/%u", spec.batch,
                  spec.num_batches);
    push_halves(engine, lane, item);
    return;
  }

  // Ship the scanned offsets now: they are final before the fill pass
  // runs (the fill kernel reads them as const).
  const std::uint64_t offset_bytes = pts * sizeof(std::uint32_t);
  lane.device.blocking_transfer(cl.offsets_staging.data(),
                                cl.counts.device_data(), offset_bytes,
                                /*to_device=*/false, /*pinned_host=*/true);
  lane.timeline += cudasim::modeled_transfer_seconds(
      lane.device.config(), offset_bytes, /*pinned=*/true);
  cl.d2h_bytes += offset_bytes;

  const auto batch_total = static_cast<std::uint32_t>(total);
  lane.launch([&](const auto& view) {
    return gpu::run_fill_csr(lane.device, view, eps, spec,
                             cl.counts.device_data(), batch_total,
                             cl.values.device_data(), scan,
                             policy.block_size);
  });

  // D2H: bare values only — the per-point offsets are already host-side
  // and no keys cross the wire.
  const std::uint64_t value_bytes = total * sizeof(PointId);
  lane.device.blocking_transfer(cl.values_staging.data(),
                                cl.values.device_data(), value_bytes,
                                /*to_device=*/false, /*pinned_host=*/true);
  lane.timeline += cudasim::modeled_transfer_seconds(
      lane.device.config(), value_bytes, /*pinned=*/true);
  cl.d2h_bytes += value_bytes;

  // The append runs on this lane's own core on the reference host, so it
  // extends the lane's timeline. It is the batch's last step: any fault
  // before it re-runs the item without the shard ever having seen its rows.
  hdbscan::ThreadCpuTimer append_timer;
  cl.shard.append_csr_batch(spec.batch, spec.num_batches,
                            {cl.offsets_staging.data(), pts},
                            {cl.values_staging.data(), total});
  lane.timeline += append_timer.seconds();
  cl.max_batch_pairs = std::max(cl.max_batch_pairs, total);
}

}  // namespace

NeighborTableBuilder::NeighborTableBuilder(
    std::vector<cudasim::Device*> devices, BatchPolicy policy)
    : devices_(std::move(devices)), policy_(policy) {
  if (devices_.empty()) {
    throw std::invalid_argument("NeighborTableBuilder: no devices");
  }
  for (const cudasim::Device* d : devices_) {
    if (d == nullptr) {
      throw std::invalid_argument("NeighborTableBuilder: null device");
    }
  }
}

template <typename Point>
NeighborTable NeighborTableBuilder::build(const BasicGridIndex<Point>& index,
                                          float eps, BuildReport* report) {
  try {
    return build_impl(index, eps, report);
  } catch (...) {
    // Stamp the structured cause for callers that isolate the failure
    // (pipeline variants, the chaos CLI, the service) before they lose the
    // exception's type to a catch-all.
    if (report != nullptr) report->failure = classify_current_exception();
    throw;
  }
}

template <typename Point>
NeighborTable NeighborTableBuilder::build_impl(
    const BasicGridIndex<Point>& index, float eps, BuildReport* report) {
  TRACE_SPAN("build", "table_build n=%zu", index.size());
  check_cancel(policy_.cancel);  // cheapest point to abandon: no device work yet
  WallTimer total_timer;
  BuildReport local_report;
  local_report.scan_mode = policy_.scan_mode;
  const ResiliencePolicy& res = policy_.resilience;
  const ScanMode scan = policy_.scan_mode;

  // The grid goes up to every device. A device that cannot hold the
  // index — or dies during the upload — is dropped; the remaining devices
  // absorb its share of the batches.
  BatchEngine<Point> engine(devices_, index, policy_, "build");
  const cudasim::DeviceConfig& cfg = engine.config();

  NeighborTable table(index.size());
  double modeled_fixed = 0.0;
  std::vector<std::unique_ptr<CsrLane>> csr;  ///< by engine lane id

  // Runs estimation, planning and the batch rounds on the devices that
  // survived setup, and returns the batches no device finished: none on a
  // clean run, whatever a lost fleet left queued, or the whole index as
  // the single batch {0, 1} when no device survives setup or estimation.
  // Without the host rung each of those outcomes throws instead.
  auto run_on_devices = [&]() -> std::vector<WorkItem> {
    auto& slots = engine.slots();
    if (slots.empty()) return engine.fleet_gone(engine.setup_error());

    // Estimate the result-set size from a 1% sample (negligible cost), or
    // take the caller's figure when provided. Estimation fails over device
    // by device: transient faults retry in place, a lost or out-of-memory
    // device passes the baton to the next one. A device that died after
    // its upload (another user of a shared device can kill it) is tried
    // too: its refusal is the DeviceLost the build reports when no device
    // is left.
    if (policy_.estimated_total_override != 0) {
      local_report.estimate.estimated_total = policy_.estimated_total_override;
      local_report.estimate.sampled_pairs = policy_.estimated_total_override;
      local_report.estimate.sample_stride = 1;
    } else {
      TRACE_SPAN("build", "estimate");
      WallTimer est_timer;
      bool estimated = false;
      std::exception_ptr est_error;
      for (auto& slot : slots) {
        unsigned retries = 0;
        while (!estimated) {
          check_cancel(policy_.cancel);
          try {
            local_report.estimate = estimate_result_size(
                *slot.device, slot.grid->view(), eps,
                policy_.sample_fraction, policy_.block_size);
            estimated = true;
          } catch (const cudasim::TransientKernelFault&) {
            if (retries < res.max_transient_retries) {
              ++retries;
              ++local_report.transient_retries;
              continue;
            }
            if (!est_error) est_error = std::current_exception();
            break;
          } catch (const cudasim::DeviceLost&) {
            if (!est_error) est_error = std::current_exception();
            break;
          } catch (const cudasim::DeviceOutOfMemory&) {
            if (!est_error) est_error = std::current_exception();
            break;
          }
        }
        if (estimated) break;
      }
      if (!estimated) return engine.fleet_gone(est_error);
      local_report.estimate_seconds = est_timer.seconds();
      local_report.atomic_ops +=
          local_report.estimate.kernel_stats.work.atomic_ops;
    }

    // Plan n_b and b_b, capping the buffers so that num_streams value
    // buffers and the per-point counts never exceed any surviving device's
    // free memory. A slot is a bare PointId. `shrink_shift` halves the
    // buffer cap per out-of-memory retry of the lane setup.
    const std::uint64_t bytes_per_slot = sizeof(PointId);
    const std::uint64_t counts_reserve_bytes =
        static_cast<std::uint64_t>(index.size()) * sizeof(std::uint32_t);
    auto compute_plan = [&](unsigned shrink_shift) {
      std::uint64_t min_free_bytes =
          std::numeric_limits<std::uint64_t>::max();
      for (const auto& slot : slots) {
        min_free_bytes = std::min(min_free_bytes,
                                  slot.device->free_global_bytes());
      }
      const std::uint64_t budget_bytes =
          min_free_bytes * 9 / 10 -
          std::min(min_free_bytes * 9 / 10, counts_reserve_bytes);
      std::uint64_t max_buffer_pairs = std::max<std::uint64_t>(
          1, budget_bytes /
                 (std::max(1u, policy_.num_streams) * bytes_per_slot));
      max_buffer_pairs =
          std::max<std::uint64_t>(1, max_buffer_pairs >> shrink_shift);
      // With several devices, plan one batch per (device, stream) lane so
      // every device contributes even on the variable-buffer path.
      BatchPolicy planning_policy = policy_;
      planning_policy.num_streams = std::max(1u, policy_.num_streams) *
                                    static_cast<unsigned>(slots.size());
      return plan_batches(local_report.estimate.estimated_total,
                          planning_policy, max_buffer_pairs);
    };

    // Modeled fixed costs on the reference hardware: the index upload, the
    // estimation kernel, and page-locking the staging buffers (spread
    // across the devices' hosts in multi-device mode).
    modeled_fixed = engine.upload_seconds() +
                    local_report.estimate.kernel_stats.modeled_seconds;

    // Checking out each lane's buffers (device buffers + pinned staging)
    // allocates the big result buffers, so this is where a tight device
    // first runs out of memory: each retry halves the buffer cap (growing
    // n_b to match) — bounded by max_alloc_retries — and a device that
    // dies here is dropped and planning redone for the survivors.
    unsigned shrink = 0;
    for (;;) {
      engine.drop_lost_slots();
      if (slots.empty()) {
        return engine.fleet_gone(std::make_exception_ptr(cudasim::DeviceLost(
            "neighbor table build: every device was lost before batching "
            "started")));
      }
      local_report.plan = compute_plan(shrink);
      const std::uint32_t max_batch_points =
          (static_cast<std::uint32_t>(index.size()) +
           local_report.plan.num_batches - 1) /
          local_report.plan.num_batches;
      try {
        engine.open_lanes();
        for (const auto& lane : engine.lanes()) {
          csr.push_back(std::make_unique<CsrLane>(
              lane->device, static_cast<std::uint32_t>(index.size()),
              local_report.plan.buffer_pairs,
              std::max(1u, max_batch_points)));
          csr.back()->shard.reserve_values(
              local_report.plan.estimated_total_pairs / engine.lanes().size());
        }
        break;
      } catch (const cudasim::DeviceOutOfMemory&) {
        csr.clear();
        if (shrink >= res.max_alloc_retries) throw;
        ++shrink;
        ++local_report.alloc_retries;
      } catch (const cudasim::DeviceLost&) {
        csr.clear();  // next iteration drops the dead slot and replans
      }
    }
    for (const auto& lane : csr) {
      // Only buffers the pool had to freshly page-lock are charged; reuse
      // sweeps over N parameter variants pay this once, on the first one.
      modeled_fixed += cudasim::modeled_pinned_alloc_seconds(
                           cfg, lane->fresh_pinned_bytes()) /
                       static_cast<double>(slots.size());
    }
    return engine.run(
        local_report.plan.num_batches,
        [&](Lane<Point>& lane, WorkItem& item) {
          process_batch_csr(engine, lane, *csr[lane.id], item, policy_, eps);
        },
        local_report);
  };
  std::vector<WorkItem> host_items = run_on_devices();

  // The last rung: the host finishes those batches with the kernels' own
  // count and fill bodies under the policy's scan mode, over the index the
  // devices traversed, so its rows follow the kernels' pair-ownership rule
  // by construction. Their key sets are disjoint from everything the
  // devices completed, so the shards absorb like any other.
  std::vector<NeighborTable> host_shards;
  local_report.used_host_fallback = !host_items.empty();
  for (const WorkItem& item : host_items) {
    check_cancel(policy_.cancel);  // host batches are slow; poll each one
    TRACE_SPAN("host", "host_fallback %u/%u", item.spec.batch,
               item.spec.num_batches);
    host_shards.push_back(
        gpu::host_csr_batch(engine.host_view(), eps, item.spec, scan));
    ++local_report.host_fallback_batches;
  }

  // Assemble T from the per-lane shards and host batches exactly once:
  // one pass reads them in place and writes the final table in key order,
  // expanding a half-scan build's forward rows to full rows on the way.
  // The strided batch assignment makes their key sets disjoint (splits
  // and failover included); the assembler's row-source sweep checks it.
  // Like the lanes' appends it parallelizes on the reference host, so
  // the model charges its critical path over the reference host's cores,
  // not its CPU sum.
  {
    TRACE_SPAN("build", "assemble");
    std::vector<NeighborTable> parts;
    parts.reserve(csr.size() + host_shards.size());
    for (auto& lane : csr) {
      parts.push_back(std::move(lane->shard));
    }
    for (auto& shard : host_shards) {
      parts.push_back(std::move(shard));
    }
    local_report.expand_seconds = table.assemble(
        std::move(parts), scan == ScanMode::kHalf,
        static_cast<unsigned>(std::max(1, cfg.host_cores)));
    modeled_fixed += local_report.expand_seconds;
  }
  // The slowest lane's timeline: its device work plus its shard appends,
  // which run on its own core on the reference host.
  const double slowest_stream = engine.harvest(local_report);
  for (const auto& lane : csr) {
    local_report.max_batch_pairs =
        std::max(local_report.max_batch_pairs, lane->max_batch_pairs);
    local_report.overflow_splits += lane->overflow_splits;
    local_report.scan_modeled_seconds += lane->scan_modeled;
    local_report.d2h_bytes += lane->d2h_bytes;
  }
  local_report.total_pairs = table.total_pairs();

  local_report.fixed_seconds = modeled_fixed;
  local_report.stream_seconds = slowest_stream;
  local_report.modeled_table_seconds = modeled_fixed + slowest_stream;
  local_report.table_seconds = total_timer.seconds();
  publish_build_report(local_report, policy_.metrics_labels);
  if (report != nullptr) *report = local_report;
  return table;
}

template NeighborTable NeighborTableBuilder::build(const GridIndex&, float,
                                                   BuildReport*);
template NeighborTable NeighborTableBuilder::build(const GridIndex3&, float,
                                                   BuildReport*);

}  // namespace hdbscan
