#include "core/batch_engine.hpp"

#include <algorithm>
#include <string>

#include "common/cancel.hpp"
#include "common/request_context.hpp"
#include "cudasim/error.hpp"
#include "cudasim/sort.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

BatchEngine::BatchEngine(const std::vector<cudasim::Device*>& devices,
                         const GridIndex& index, const BatchPolicy& policy,
                         const char* category, const SubCells* sub_cells)
    : policy_(policy), category_(category), host_view_(GridView::of(index)) {
  if (sub_cells != nullptr && !sub_cells->order.empty()) {
    host_view_.sub_order = sub_cells->order.data();
    host_view_.sub_bounds = sub_cells->bounds.data();
  }
  for (cudasim::Device* device : devices) {
    try {
      TRACE_SPAN(category, "index_upload d%u", device->id());
      // Declared before the stream, so a failed upload drains its queued
      // transfers before the buffers they write go.
      Slot slot{device, nullptr};
      cudasim::Stream upload_stream(*device);
      slot.grid = std::make_unique<gpu::GridDeviceIndex>(
          *device, upload_stream, index, sub_cells);
      upload_stream.synchronize();
      if (upload_bytes_ == 0) {
        config_ = &device->config();
        upload_bytes_ = slot.grid->upload_bytes();
      }
      slots_.push_back(std::move(slot));
    } catch (const cudasim::DeviceOutOfMemory&) {
      ++devices_lost_;
      if (!setup_error_) setup_error_ = std::current_exception();
    } catch (const cudasim::DeviceLost&) {
      ++devices_lost_;
      if (!setup_error_) setup_error_ = std::current_exception();
    }
  }
  if (config_ == nullptr) config_ = &devices.front()->config();
}

double BatchEngine::upload_seconds() const {
  return upload_bytes_ == 0
             ? 0.0
             : cudasim::modeled_transfer_seconds(*config_, upload_bytes_,
                                                 /*pinned=*/false);
}

void BatchEngine::drop_lost_slots() {
  devices_lost_ += static_cast<std::uint32_t>(std::erase_if(
      slots_, [](const Slot& slot) { return slot.device->lost(); }));
}

void BatchEngine::open_lanes() {
  lanes_.clear();
  for (const Slot& slot : slots_) {
    const GridView view = slot.grid->view();
    for (unsigned s = 0; s < std::max(1u, policy_.num_streams); ++s) {
      lanes_.push_back(std::make_unique<Lane>(
          *slot.device, static_cast<unsigned>(lanes_.size()), view));
    }
  }
}

std::vector<WorkItem> BatchEngine::fleet_gone(std::exception_ptr error) const {
  if (!policy_.resilience.host_fallback) std::rethrow_exception(error);
  return {WorkItem{gpu::BatchSpec{0, 1}}};
}

std::vector<WorkItem> BatchEngine::run(std::uint32_t num_batches,
                                       const Step& step,
                                       BuildReport& report) {
  if (lanes_.empty()) return fleet_gone(setup_error_);
  // A later list (the next fused pass) starts when the last one ended on
  // every lane: timelines level to the slowest; queue and tallies reset.
  double start = 0.0;
  for (const auto& lane : lanes_) start = std::max(start, lane->timeline);
  for (const auto& lane : lanes_) lane->timeline = start;
  orphans_.clear();
  transient_retries_ = 0;
  failover_batches_ = 0;
  owned_.assign(lanes_.size(), {});
  for (std::uint32_t l = 0; l < num_batches; ++l) {
    owned_[l % lanes_.size()].push_back(
        WorkItem{gpu::BatchSpec{l, num_batches}});
  }
  // Each round arms a pump on every live lane and waits for all of them.
  // Rounds repeat until the queue is dry — this is what makes failover
  // work: an item a dying lane pushed back is picked up next round by a
  // survivor, and the strided key sets stay disjoint whoever runs it.
  while (pending()) {
    bool any_live = false;
    for (const auto& lane : lanes_) {
      if (lane->device.lost()) {
        // A sibling stream's fault may have killed this device before
        // this lane's pump ever ran — surface its share regardless.
        std::lock_guard lock(mutex_);
        orphan_locked(lane->id);
        continue;
      }
      any_live = true;
      lane->stream.host_fn(
          [this, &l = *lane, &step, ctx = policy_.trace] {
            // Stream threads outlive any one build; attribute this pump's
            // spans to the request the build serves.
            RequestScope scope(ctx);
            pump(l, step);
          });
    }
    if (!any_live) break;
    // Drain every stream — on every device — before looking at the
    // outcome: an error on one lane must never leave another lane's
    // in-flight work racing the caller's cleanup.
    for (const auto& lane : lanes_) {
      try {
        lane->stream.synchronize();
      } catch (...) {
        fail(std::current_exception());
      }
    }
    std::lock_guard lock(mutex_);
    if (hard_error_) break;
  }
  std::lock_guard lock(mutex_);
  report.transient_retries += transient_retries_;
  report.failover_batches += failover_batches_;
  if (hard_error_) std::rethrow_exception(hard_error_);
  // Whatever is still queued could not run on any device.
  std::vector<WorkItem> unfinished(orphans_.begin(), orphans_.end());
  for (const std::deque<WorkItem>& own : owned_) {
    unfinished.insert(unfinished.end(), own.begin(), own.end());
  }
  if (!unfinished.empty() && !policy_.resilience.host_fallback) {
    throw cudasim::DeviceLost(std::string(category_) +
                              ": all devices lost with " +
                              std::to_string(unfinished.size()) +
                              " batches unfinished");
  }
  return unfinished;
}

void BatchEngine::requeue(const Lane& lane, const WorkItem& item) {
  std::lock_guard lock(mutex_);
  owned_[lane.id].push_back(item);
}

double BatchEngine::harvest(BuildReport& report) const {
  double slowest = 0.0;
  for (const auto& lane : lanes_) {
    report.batches_run += lane->batches_run;
    report.kernel_modeled_seconds += lane->kernel_modeled;
    report.atomic_ops += lane->atomic_ops;
    report.kernel_flops += lane->kernel_flops;
    report.kernel_global_bytes += lane->kernel_global_bytes;
    slowest = std::max(slowest, lane->timeline);
  }
  // Devices dropped at setup or before batching, plus those that died
  // while their lanes ran.
  report.devices_lost += devices_lost_;
  for (const Slot& slot : slots_) {
    if (slot.device->lost()) ++report.devices_lost;
  }
  return slowest;
}

void BatchEngine::pump(Lane& lane, const Step& step) {
  WorkItem item;
  while (pop(lane, item)) {
    try {
      step(lane, item);
    } catch (const cudasim::TransientKernelFault&) {
      // The launch did no work (faults fire before any block runs).
      if (item.transient_retries >= policy_.resilience.max_transient_retries) {
        fail(std::current_exception());
        return;
      }
      ++item.transient_retries;
      TRACE_INSTANT("resilience", "retry %u/%u try=%u", item.spec.batch,
                    item.spec.num_batches, item.transient_retries);
      std::lock_guard lock(mutex_);
      ++transient_retries_;
      owned_[lane.id].push_back(item);
    } catch (const cudasim::DeviceLost&) {
      // The in-flight item and everything this lane still owned go to the
      // orphan pool, where a surviving lane (or the host rung) gets them.
      TRACE_INSTANT("resilience", "failover %u/%u", item.spec.batch,
                    item.spec.num_batches);
      std::lock_guard lock(mutex_);
      ++failover_batches_;
      orphans_.push_back(item);
      orphan_locked(lane.id);
      return;
    } catch (...) {
      fail(std::current_exception());
      return;
    }
  }
}

bool BatchEngine::pop(const Lane& lane, WorkItem& out) {
  std::lock_guard lock(mutex_);
  if (hard_error_) return false;
  std::deque<WorkItem>& queue =
      owned_[lane.id].empty() ? orphans_ : owned_[lane.id];
  if (queue.empty()) return false;
  // Cooperative cancellation, polled once per batch: it becomes the hard
  // error, so every pump winds down, the streams drain and the unwind
  // returns the pooled buffers. The item stays queued.
  if (policy_.cancel != nullptr && policy_.cancel->cancelled()) {
    hard_error_ = std::make_exception_ptr(
        OperationCancelled(policy_.cancel->reason()));
    return false;
  }
  out = queue.front();
  queue.pop_front();
  return true;
}

bool BatchEngine::pending() {
  std::lock_guard lock(mutex_);
  return !orphans_.empty() ||
         std::any_of(owned_.begin(), owned_.end(),
                     [](const std::deque<WorkItem>& q) { return !q.empty(); });
}

void BatchEngine::fail(std::exception_ptr error) {
  std::lock_guard lock(mutex_);
  if (!hard_error_) hard_error_ = std::move(error);
}

void BatchEngine::orphan_locked(std::size_t lane) {
  std::deque<WorkItem>& own = owned_[lane];
  orphans_.insert(orphans_.end(), own.begin(), own.end());
  own.clear();
}

}  // namespace hdbscan
