// The batch engine under the table builder and the fused path (paper §VI:
// the ε-neighborhood batches run strided across CUDA streams, on one or
// more devices). It owns what both builds share: the per-device upload of
// the index views they traverse, one lane per (device, stream), the work
// queue with its per-lane sub-queues and orphan pool, the degradation
// ladder each lane's pump applies, and the rounds loop. A caller supplies
// its step — what one batch does on a lane — and keeps its own planning,
// buffers and host rung (DESIGN.md §8). The engine is one class template
// over the point type, so it runs 2-D and 3-D grids alike.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/request_context.hpp"
#include "core/batch_planner.hpp"
#include "core/neighbor_table_builder.hpp"
#include "cudasim/device.hpp"
#include "cudasim/error.hpp"
#include "cudasim/sort.hpp"
#include "cudasim/stream.hpp"
#include "gpu/device_index.hpp"
#include "gpu/kernels.hpp"
#include "index/grid_index.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

/// One unit of batch work. Strided batches cover disjoint key sets and a
/// step makes a batch visible only after every device op for it succeeded
/// (a faulted launch did no work), so an item that faulted mid-way can
/// always be re-run in full — on the same lane, a surviving one, or the
/// host — without duplicating keys.
struct WorkItem {
  gpu::BatchSpec spec;
  unsigned depth = 0;              ///< overflow splits applied
  unsigned transient_retries = 0;  ///< TransientKernelFault retries so far
};

/// One (device, stream) lane. Its tallies are lane-private: only its
/// stream thread updates them, and the caller reads them after the
/// streams synchronize.
template <typename Point>
struct Lane {
  Lane(cudasim::Device& device_in, unsigned id_in,
       const BasicGridView<Point>& view_in)
      : device(device_in), id(id_in), view(view_in), stream(device_in) {}

  /// Launches `kernel` (a callable taking the device's grid view) and adds
  /// its stats to the lane's tallies.
  template <typename Kernel>
  cudasim::KernelStats launch(Kernel&& kernel) {
    const cudasim::KernelStats stats = kernel(view);
    kernel_modeled += stats.modeled_seconds;
    timeline += stats.modeled_seconds;
    atomic_ops += stats.work.atomic_ops;
    kernel_flops += stats.work.flops;
    kernel_global_bytes += stats.work.global_bytes;
    return stats;
  }

  cudasim::Device& device;
  const unsigned id;  ///< index into the engine's lanes and sub-queues
  const BasicGridView<Point> view;  ///< the device's copy of the grid
  cudasim::Stream stream;

  /// Modeled device seconds plus the host work a step charges to this
  /// lane's timeline (the table builder's shard appends).
  double timeline = 0.0;
  double kernel_modeled = 0.0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t kernel_flops = 0;
  std::uint64_t kernel_global_bytes = 0;
  std::uint32_t batches_run = 0;
};

template <typename Point>
class BatchEngine {
 public:
  /// A device that took the index, with the copy its lanes traverse.
  struct Slot {
    cudasim::Device* device;
    std::unique_ptr<gpu::BasicGridDeviceIndex<Point>> grid;
  };
  /// What one batch does on a lane; runs on the lane's stream thread.
  using Step = std::function<void(Lane<Point>&, WorkItem&)>;

  /// Uploads the grid once per device (pageable host memory, as in the
  /// paper; several devices each hold a replica, like a GPU-per-node
  /// deployment), with `sub_cells` when given (the fused union pass reads
  /// them; the host view carries them too). A device that runs out of
  /// memory or dies during its upload is dropped and counted in
  /// devices_lost. `category` names the trace spans and error messages.
  BatchEngine(const std::vector<cudasim::Device*>& devices,
              const BasicGridIndex<Point>& index, const BatchPolicy& policy,
              const char* category, const SubCells* sub_cells = nullptr)
      : policy_(policy),
        category_(category),
        host_view_(BasicGridView<Point>::of(index)) {
    if (sub_cells != nullptr && !sub_cells->order.empty()) {
      host_view_.sub_order = sub_cells->order.data();
      host_view_.sub_bounds = sub_cells->bounds.data();
    }
    for (cudasim::Device* device : devices) {
      try {
        TRACE_SPAN(category, "index_upload d%u", device->id());
        cudasim::Stream upload_stream(*device);
        Slot slot{device, std::make_unique<gpu::BasicGridDeviceIndex<Point>>(
                              *device, upload_stream, index, sub_cells)};
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
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  [[nodiscard]] std::vector<Slot>& slots() noexcept { return slots_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Lane<Point>>>& lanes()
      const noexcept {
    return lanes_;
  }
  /// The first error that dropped a device during the upload.
  [[nodiscard]] std::exception_ptr setup_error() const { return setup_error_; }
  /// The reference hardware modeled costs are priced on: the first device
  /// that took the index (the first device when none did).
  [[nodiscard]] const cudasim::DeviceConfig& config() const noexcept {
    return *config_;
  }
  /// Modeled upload of one index copy (the copies go up in parallel, so
  /// it is charged once); 0 when no device took the index.
  [[nodiscard]] double upload_seconds() const {
    return upload_bytes_ == 0
               ? 0.0
               : cudasim::modeled_transfer_seconds(*config_, upload_bytes_,
                                                   /*pinned=*/false);
  }
  /// The host-memory grid, for the host rung.
  [[nodiscard]] const BasicGridView<Point>& host_view() const noexcept {
    return host_view_;
  }

  /// Drops the slots whose device died since the last check, counting
  /// each in devices_lost.
  void drop_lost_slots() {
    devices_lost_ += static_cast<std::uint32_t>(std::erase_if(
        slots_, [](const Slot& slot) { return slot.device->lost(); }));
  }
  /// Opens num_streams lanes per slot, replacing any open ones. Creates
  /// streams only: no device op, so fault plans keep their ordinals.
  void open_lanes() {
    lanes_.clear();
    for (const Slot& slot : slots_) {
      const BasicGridView<Point> view = slot.grid->view();
      for (unsigned s = 0; s < std::max(1u, policy_.num_streams); ++s) {
        lanes_.push_back(std::make_unique<Lane<Point>>(
            *slot.device, static_cast<unsigned>(lanes_.size()), view));
      }
    }
  }

  /// No device is left before batching: the whole index as the single
  /// batch {0, 1} for the host rung, or, without it, rethrows `error`.
  [[nodiscard]] std::vector<WorkItem> fleet_gone(
      std::exception_ptr error) const {
    if (!policy_.resilience.host_fallback) std::rethrow_exception(error);
    return {WorkItem{gpu::BatchSpec{0, 1}}};
  }

  /// Deals batches 0..num_batches-1 round-robin onto the lanes and runs
  /// rounds of pumps until the queue is dry. Each pump pops its lane's
  /// items (then orphans) and applies the ladder:
  ///   * a cancelled policy token stops every pump (OperationCancelled);
  ///   * TransientKernelFault retries the item on its lane, up to
  ///     max_transient_retries times, then is a hard error;
  ///   * DeviceLost moves the item and the lane's queue to the orphan pool
  ///     for a survivor, and the pump exits;
  ///   * any other exception is a hard error: the first one wins, every
  ///     pump winds down, and it is rethrown after every stream drained.
  /// Adds the retry and failover tallies to `report` and returns what no
  /// lane finished (every device was lost) for the host rung; without it,
  /// throws DeviceLost. With no lane open, this is fleet_gone. A later
  /// call runs the next list on the same lanes (each fused pass after the
  /// first): it starts with an empty queue and tallies, and on every lane
  /// at the slowest lane's timeline, as after a barrier.
  std::vector<WorkItem> run(std::uint32_t num_batches, const Step& step,
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

  /// Queues `item` on `lane`'s own sub-queue (a step's split halves).
  void requeue(const Lane<Point>& lane, const WorkItem& item) {
    std::lock_guard lock(mutex_);
    owned_[lane.id].push_back(item);
  }

  /// Adds the lanes' kernel tallies and the devices lost to `report`;
  /// returns the slowest lane's timeline.
  double harvest(BuildReport& report) const {
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

 private:
  void pump(Lane<Point>& lane, const Step& step) {
    WorkItem item;
    while (pop(lane, item)) {
      try {
        step(lane, item);
      } catch (const cudasim::TransientKernelFault&) {
        // The launch did no work (faults fire before any block runs).
        if (item.transient_retries >=
            policy_.resilience.max_transient_retries) {
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
  bool pop(const Lane<Point>& lane, WorkItem& out) {
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
  [[nodiscard]] bool pending() {
    std::lock_guard lock(mutex_);
    return !orphans_.empty() ||
           std::any_of(owned_.begin(), owned_.end(),
                       [](const auto& q) { return !q.empty(); });
  }
  void fail(std::exception_ptr error) {
    std::lock_guard lock(mutex_);
    if (!hard_error_) hard_error_ = std::move(error);
  }
  void orphan_locked(std::size_t lane) {
    std::deque<WorkItem>& own = owned_[lane];
    orphans_.insert(orphans_.end(), own.begin(), own.end());
    own.clear();
  }

  const BatchPolicy& policy_;
  const char* category_;
  BasicGridView<Point> host_view_;
  std::vector<Slot> slots_;
  std::exception_ptr setup_error_;
  const cudasim::DeviceConfig* config_ = nullptr;
  std::uint64_t upload_bytes_ = 0;  ///< one copy; 0 = no device took it
  std::uint32_t devices_lost_ = 0;

  std::mutex mutex_;  ///< guards the queue, hard_error_ and the tallies
  std::vector<std::deque<WorkItem>> owned_;
  std::deque<WorkItem> orphans_;
  std::exception_ptr hard_error_;
  std::uint32_t transient_retries_ = 0;
  std::uint32_t failover_batches_ = 0;

  /// Last, so the streams drain before anything their pumps touch goes.
  std::vector<std::unique_ptr<Lane<Point>>> lanes_;
};

}  // namespace hdbscan
