#include "core/fused_clustering.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/timer.hpp"
#include "core/report_metrics.hpp"
#include "cudasim/error.hpp"
#include "cudasim/sort.hpp"
#include "cudasim/stream.hpp"
#include "gpu/bvh_device_index.hpp"
#include "gpu/device_index.hpp"
#include "gpu/kernels.hpp"
#include "index/bvh.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

/// One (device, stream) traversal lane. Fused contexts hold no result
/// buffers at all — the only per-context state is the stream, the device
/// index view(s) and the private tallies harvested after the drain.
struct FusedContext {
  FusedContext(cudasim::Device& device_in, unsigned timeline_id_in)
      : device(device_in), timeline_id(timeline_id_in), stream(device_in) {}

  cudasim::Device& device;
  GridView view{};     ///< kGrid traversal + batch-domain arithmetic
  BvhView bvh_view{};  ///< kBvh traversal
  IndexBackend backend = IndexBackend::kGrid;
  unsigned timeline_id;
  cudasim::Stream stream;

  double device_model = 0.0;
  double kernel_modeled = 0.0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t kernel_flops = 0;
  std::uint64_t kernel_global_bytes = 0;
  std::uint32_t batches_run = 0;
};

struct FusedWorkItem {
  gpu::BatchSpec spec;
  unsigned transient_retries = 0;
};

/// Same shape as the table builder's queue: per-context sub-queues plus an
/// orphan pool for failover. Fused batches never split (nothing can
/// overflow), so items move whole.
class FusedWorkQueue {
 public:
  explicit FusedWorkQueue(std::size_t num_contexts) : owned_(num_contexts) {}

  void push(std::size_t ctx, FusedWorkItem item) {
    std::lock_guard lock(mutex_);
    owned_[ctx].push_back(item);
  }
  void push_orphan(FusedWorkItem item) {
    std::lock_guard lock(mutex_);
    orphans_.push_back(item);
  }
  void orphan_context(std::size_t ctx) {
    std::lock_guard lock(mutex_);
    while (!owned_[ctx].empty()) {
      orphans_.push_back(owned_[ctx].front());
      owned_[ctx].pop_front();
    }
  }
  bool pop(std::size_t ctx, FusedWorkItem& out) {
    std::lock_guard lock(mutex_);
    if (!owned_[ctx].empty()) {
      out = owned_[ctx].front();
      owned_[ctx].pop_front();
      return true;
    }
    if (!orphans_.empty()) {
      out = orphans_.front();
      orphans_.pop_front();
      return true;
    }
    return false;
  }
  [[nodiscard]] bool empty() {
    std::lock_guard lock(mutex_);
    if (!orphans_.empty()) return false;
    for (const auto& q : owned_) {
      if (!q.empty()) return false;
    }
    return true;
  }
  [[nodiscard]] std::vector<FusedWorkItem> drain() {
    std::lock_guard lock(mutex_);
    std::vector<FusedWorkItem> v(orphans_.begin(), orphans_.end());
    orphans_.clear();
    for (auto& q : owned_) {
      v.insert(v.end(), q.begin(), q.end());
      q.clear();
    }
    return v;
  }

 private:
  std::mutex mutex_;
  std::vector<std::deque<FusedWorkItem>> owned_;
  std::deque<FusedWorkItem> orphans_;
};

struct FusedSharedState {
  std::mutex mutex;
  std::exception_ptr hard_error;
  std::uint32_t transient_retries = 0;
  std::uint32_t failover_batches = 0;

  void set_hard_error(std::exception_ptr e) {
    std::lock_guard lock(mutex);
    if (!hard_error) hard_error = std::move(e);
  }
  [[nodiscard]] bool has_hard_error() {
    std::lock_guard lock(mutex);
    return hard_error != nullptr;
  }
};

/// One context's pump, with the table builder's batch ladder (a fused
/// launch allocates nothing either): transient faults retry the launch —
/// injected faults fire before any block executes, so a faulted launch
/// mutated no degree, no parent and parked no edge, and the retry
/// re-traverses from a clean slate — and a lost device's items go to the
/// orphan pool for the survivors.
void fused_pump(FusedContext& fc, FusedWorkQueue& queue,
                FusedSharedState& state, float eps, ScanMode scan,
                unsigned block_size, StreamingDbscan& consumer,
                const ResiliencePolicy& res, const CancelToken* cancel) {
  const std::size_t ctx = fc.timeline_id;
  FusedWorkItem item;
  while (queue.pop(ctx, item)) {
    if (state.has_hard_error()) {
      queue.push(ctx, item);
      return;
    }
    if (cancel != nullptr && cancel->cancelled()) {
      queue.push(ctx, item);
      state.set_hard_error(
          std::make_exception_ptr(OperationCancelled(cancel->reason())));
      return;
    }
    try {
      const gpu::BatchSpec spec = item.spec;
      if (spec.points_in_batch(fc.view.query_count()) == 0) continue;
      TRACE_SPAN("fused", "fused_batch %u/%u d%u", spec.batch,
                 spec.num_batches, fc.device.id());
      const cudasim::KernelStats stats =
          fc.backend == IndexBackend::kBvh
              ? gpu::run_fused_batch(fc.device, fc.bvh_view, eps, spec,
                                     consumer, scan, block_size)
              : gpu::run_fused_batch(fc.device, fc.view, eps, spec,
                                     consumer, scan, block_size);
      ++fc.batches_run;
      fc.kernel_modeled += stats.modeled_seconds;
      fc.device_model += stats.modeled_seconds;
      fc.atomic_ops += stats.work.atomic_ops;
      fc.kernel_flops += stats.work.flops;
      fc.kernel_global_bytes += stats.work.global_bytes;
    } catch (const cudasim::TransientKernelFault&) {
      if (item.transient_retries < res.max_transient_retries) {
        ++item.transient_retries;
        TRACE_INSTANT("resilience", "fused_retry %u/%u try=%u",
                      item.spec.batch, item.spec.num_batches,
                      item.transient_retries);
        {
          std::lock_guard lock(state.mutex);
          ++state.transient_retries;
        }
        queue.push(ctx, item);
        continue;
      }
      state.set_hard_error(std::current_exception());
      return;
    } catch (const cudasim::DeviceLost&) {
      if (res.failover || res.host_fallback) {
        TRACE_INSTANT("resilience", "fused_failover %u/%u", item.spec.batch,
                      item.spec.num_batches);
        {
          std::lock_guard lock(state.mutex);
          ++state.failover_batches;
        }
        queue.push_orphan(item);
        queue.orphan_context(ctx);
        return;
      }
      state.set_hard_error(std::current_exception());
      return;
    } catch (...) {
      state.set_hard_error(std::current_exception());
      return;
    }
  }
}

}  // namespace

BuildReport fused_cluster(const std::vector<cudasim::Device*>& devices,
                          const GridIndex& index, float eps,
                          StreamingDbscan& consumer,
                          const BatchPolicy& policy) {
  TRACE_SPAN("fused", "fused_cluster n=%zu", index.size());
  if (devices.empty()) {
    throw std::invalid_argument("fused_cluster: no devices");
  }
  for (const cudasim::Device* d : devices) {
    if (d == nullptr) throw std::invalid_argument("fused_cluster: null device");
  }
  if (!index.emit_ids.empty() || index.query_count() != index.size()) {
    throw std::invalid_argument(
        "fused_cluster: whole-index builds only — the fused kernels union "
        "global ids directly, so sharded slabs must use the table pipelines");
  }
  if (consumer.num_points() != index.size()) {
    throw std::invalid_argument(
        "fused_cluster: consumer id space does not match the index");
  }
  check_cancel(policy.cancel);
  WallTimer total_timer;
  BuildReport report;
  report.fused = true;
  report.streamed = true;
  report.table_materialized = false;
  report.scan_mode = policy.scan_mode;
  report.index_backend = policy.index_backend;
  const ResiliencePolicy& res = policy.resilience;
  const bool use_bvh = policy.index_backend == IndexBackend::kBvh;
  const ScanMode scan = policy.scan_mode;

  // Upload only what the chosen backend traverses: the grid arrays for
  // kGrid, the packed BVH for kBvh. There is no estimation kernel — with
  // no result buffers there is nothing to size — which is also why the
  // BVH backend skips the grid upload entirely here, unlike the table
  // builder.
  struct FusedSlot {
    cudasim::Device* device;
    std::unique_ptr<gpu::GridDeviceIndex> grid_index;
    std::unique_ptr<gpu::BvhDeviceIndex> bvh_index;
  };
  std::optional<BvhIndex> host_bvh;
  if (use_bvh) {
    TRACE_SPAN("fused", "bvh_build n=%zu", index.size());
    host_bvh.emplace(build_bvh_index(index.points));
  }

  // The host fallback: unfinished strided batches run the fused body
  // itself on the host, over the same index the devices traversed, so the
  // pair-ownership rule is the kernels' by construction. Edges it parks
  // never crossed PCIe, so they are kept out of the transfer charge.
  std::uint64_t host_parked = 0;
  auto host_finish = [&](const FusedWorkItem& item) {
    check_cancel(policy.cancel);
    TRACE_SPAN("host", "fused_host_fallback %u/%u", item.spec.batch,
               item.spec.num_batches);
    const std::uint64_t parked_before = consumer.stats().fused_parked;
    if (use_bvh) {
      gpu::host_fused_batch(BvhView::of(*host_bvh), eps, item.spec, consumer,
                            scan);
    } else {
      gpu::host_fused_batch(GridView::of(index), eps, item.spec, consumer,
                            scan);
    }
    host_parked += consumer.stats().fused_parked - parked_before;
    ++report.host_fallback_batches;
  };
  std::vector<FusedSlot> slots;
  slots.reserve(devices.size());
  std::exception_ptr setup_error;
  std::uint64_t upload_bytes = 0;
  for (cudasim::Device* device : devices) {
    try {
      TRACE_SPAN("fused", "index_upload d%u", device->id());
      cudasim::Stream upload_stream(*device);
      FusedSlot slot{device, nullptr, nullptr};
      if (use_bvh) {
        slot.bvh_index = std::make_unique<gpu::BvhDeviceIndex>(
            *device, upload_stream, *host_bvh);
      } else {
        slot.grid_index = std::make_unique<gpu::GridDeviceIndex>(
            *device, upload_stream, index);
      }
      upload_stream.synchronize();
      if (upload_bytes == 0) {
        upload_bytes =
            use_bvh ? slot.bvh_index->upload_bytes()
                    : index.points.size() * sizeof(Point2) +
                          index.cells.size() * sizeof(CellRange) +
                          index.lookup.size() * sizeof(PointId) +
                          index.nonempty_cells.size() * sizeof(std::uint32_t);
      }
      slots.push_back(std::move(slot));
    } catch (const cudasim::DeviceOutOfMemory&) {
      ++report.devices_lost;
      if (!setup_error) setup_error = std::current_exception();
    } catch (const cudasim::DeviceLost&) {
      ++report.devices_lost;
      if (!setup_error) setup_error = std::current_exception();
    }
  }

  double modeled_fixed = 0.0;
  double slowest_stream = 0.0;
  std::vector<std::unique_ptr<FusedContext>> contexts;

  if (slots.empty()) {
    if (!res.host_fallback) std::rethrow_exception(setup_error);
    report.used_host_fallback = true;
    host_finish(FusedWorkItem{gpu::BatchSpec{0, 1}});
  } else {
    const auto& cfg = slots.front().device->config();
    modeled_fixed = cudasim::modeled_transfer_seconds(cfg, upload_bytes,
                                                      /*pinned=*/false);

    for (FusedSlot& slot : slots) {
      for (unsigned s = 0; s < std::max(1u, policy.num_streams); ++s) {
        const auto id = static_cast<unsigned>(contexts.size());
        contexts.push_back(std::make_unique<FusedContext>(*slot.device, id));
        contexts.back()->backend = policy.index_backend;
        if (use_bvh) {
          contexts.back()->bvh_view = slot.bvh_index->view();
          // The grid view is absent; only query_count() is consulted, so a
          // minimal view carries the batch domain.
          contexts.back()->view.num_points =
              static_cast<std::uint32_t>(index.size());
          contexts.back()->view.num_query =
              static_cast<std::uint32_t>(index.query_count());
        } else {
          contexts.back()->view = slot.grid_index->view();
        }
      }
    }

    // Enough strided batches that every context gets two waves — failover
    // granularity and stream overlap without per-batch buffer planning.
    const auto num_batches = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, contexts.size() * 2));
    report.plan.num_batches = num_batches;
    FusedWorkQueue queue(contexts.size());
    for (std::uint32_t l = 0; l < num_batches; ++l) {
      queue.push(l % contexts.size(),
                 FusedWorkItem{gpu::BatchSpec{l, num_batches}});
    }
    FusedSharedState state;
    while (!queue.empty()) {
      bool any_live = false;
      for (auto& fc : contexts) {
        if (fc->device.lost()) {
          queue.orphan_context(fc->timeline_id);
          continue;
        }
        any_live = true;
        FusedContext* fcp = fc.get();
        fc->stream.host_fn([fcp, &queue, &state, eps, scan,
                            block = policy.block_size, &consumer, &res,
                            cancel = policy.cancel, ctx = policy.trace] {
          RequestScope scope(ctx);
          fused_pump(*fcp, queue, state, eps, scan, block, consumer, res,
                     cancel);
        });
      }
      if (!any_live) break;
      for (auto& fc : contexts) {
        try {
          fc->stream.synchronize();
        } catch (...) {
          state.set_hard_error(std::current_exception());
        }
      }
      if (state.has_hard_error()) break;
    }
    {
      std::lock_guard lock(state.mutex);
      report.transient_retries += state.transient_retries;
      report.failover_batches += state.failover_batches;
    }
    if (state.hard_error) std::rethrow_exception(state.hard_error);

    if (!queue.empty()) {
      if (!res.host_fallback) {
        const std::size_t unfinished = queue.drain().size();
        throw cudasim::DeviceLost(
            "fused_cluster: all devices lost with " +
            std::to_string(unfinished) + " batches unfinished");
      }
      report.used_host_fallback = true;
      for (const FusedWorkItem& item : queue.drain()) host_finish(item);
    }

    for (const auto& fc : contexts) {
      report.batches_run += fc->batches_run;
      report.kernel_modeled_seconds += fc->kernel_modeled;
      report.atomic_ops += fc->atomic_ops;
      report.kernel_flops += fc->kernel_flops;
      report.kernel_global_bytes += fc->kernel_global_bytes;
      slowest_stream = std::max(slowest_stream, fc->device_model);
    }
    for (const FusedSlot& slot : slots) {
      if (slot.device->lost()) ++report.devices_lost;
    }
  }

  // The only result bytes that cross PCIe are the parked (undecided)
  // edges; they ride the pinned staging path like every other result
  // transfer and are charged to the serial share — each flush is tiny and
  // asynchronous on real hardware, so billing them once at the end is the
  // conservative bound.
  const StreamingDbscan::Stats& st = consumer.stats();
  const std::uint64_t parked_bytes =
      (st.fused_parked - host_parked) * sizeof(NeighborPair);
  report.d2h_bytes = parked_bytes;
  if (parked_bytes != 0 && !slots.empty()) {
    modeled_fixed += cudasim::modeled_transfer_seconds(
        slots.front().device->config(), parked_bytes, /*pinned=*/true);
  }
  report.total_pairs = st.edges_seen;
  report.shard_fixed_seconds = modeled_fixed;
  report.shard_stream_seconds = slowest_stream;
  report.modeled_table_seconds = modeled_fixed + slowest_stream;
  report.table_seconds = total_timer.seconds();
  publish_build_report(report, policy.metrics_labels);
  return report;
}

BuildReport fused_cluster(cudasim::Device& device, const GridIndex& index,
                          float eps, StreamingDbscan& consumer,
                          const BatchPolicy& policy) {
  return fused_cluster(std::vector<cudasim::Device*>{&device}, index, eps,
                       consumer, policy);
}

}  // namespace hdbscan
