// The batch engine under the table builder and the fused path (paper §VI:
// the ε-neighborhood batches run strided across CUDA streams, on one or
// more devices). It owns what both builds share: the per-device upload of
// the index views they traverse, one lane per (device, stream), the work
// queue with its per-lane sub-queues and orphan pool, the degradation
// ladder each lane's pump applies, and the rounds loop. A caller supplies
// its step — what one batch does on a lane — and keeps its own planning,
// buffers and host rung (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/neighbor_table_builder.hpp"
#include "cudasim/device.hpp"
#include "cudasim/stream.hpp"
#include "gpu/device_index.hpp"
#include "gpu/kernels.hpp"
#include "index/grid_index.hpp"

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
struct Lane {
  Lane(cudasim::Device& device_in, unsigned id_in, const GridView& view_in)
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
  const GridView view;  ///< the device's copy of the grid
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

class BatchEngine {
 public:
  /// A device that took the index, with the copy its lanes traverse.
  struct Slot {
    cudasim::Device* device;
    std::unique_ptr<gpu::GridDeviceIndex> grid;
  };
  /// What one batch does on a lane; runs on the lane's stream thread.
  using Step = std::function<void(Lane&, WorkItem&)>;

  /// Uploads the grid once per device (pageable host memory, as in the
  /// paper; several devices each hold a replica, like a GPU-per-node
  /// deployment), with `sub_cells` when given (the fused union pass reads
  /// them; the host view carries them too). A device that runs out of
  /// memory or dies during its upload is dropped and counted in
  /// devices_lost. `category` names the trace spans and error messages.
  BatchEngine(const std::vector<cudasim::Device*>& devices,
              const GridIndex& index, const BatchPolicy& policy,
              const char* category, const SubCells* sub_cells = nullptr);
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  [[nodiscard]] std::vector<Slot>& slots() noexcept { return slots_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Lane>>& lanes()
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
  [[nodiscard]] double upload_seconds() const;
  /// The host-memory grid, for the host rung.
  [[nodiscard]] const GridView& host_view() const noexcept {
    return host_view_;
  }

  /// Drops the slots whose device died since the last check, counting
  /// each in devices_lost.
  void drop_lost_slots();
  /// Opens num_streams lanes per slot, replacing any open ones. Creates
  /// streams only: no device op, so fault plans keep their ordinals.
  void open_lanes();

  /// No device is left before batching: the whole index as the single
  /// batch {0, 1} for the host rung, or, without it, rethrows `error`.
  [[nodiscard]] std::vector<WorkItem> fleet_gone(
      std::exception_ptr error) const;

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
                            BuildReport& report);

  /// Queues `item` on `lane`'s own sub-queue (a step's split halves).
  void requeue(const Lane& lane, const WorkItem& item);

  /// Adds the lanes' kernel tallies and the devices lost to `report`;
  /// returns the slowest lane's timeline.
  double harvest(BuildReport& report) const;

 private:
  void pump(Lane& lane, const Step& step);
  bool pop(const Lane& lane, WorkItem& out);
  [[nodiscard]] bool pending();
  void fail(std::exception_ptr error);
  void orphan_locked(std::size_t lane);

  const BatchPolicy& policy_;
  const char* category_;
  GridView host_view_;
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
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace hdbscan
