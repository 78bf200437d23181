// Work counters and the kernel time model.
#pragma once

#include <cstdint>

#include "cudasim/config.hpp"

namespace cudasim {

/// Work performed by one thread block; accumulated without atomics because
/// a block always executes on a single executor thread.
struct BlockCounters {
  std::uint64_t flops = 0;
  std::uint64_t global_bytes = 0;
  std::uint64_t shared_bytes = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t barriers = 0;
  /// What a body tallies for its caller's report, not priced by the cost
  /// model (the fused union pass counts its dense runs here).
  std::uint64_t events = 0;

  void merge(const BlockCounters& o) noexcept {
    flops += o.flops;
    global_bytes += o.global_bytes;
    shared_bytes += o.shared_bytes;
    atomic_ops += o.atomic_ops;
    barriers += o.barriers;
    events += o.events;
  }
};

/// Aggregated result of one kernel launch.
struct KernelStats {
  std::uint64_t blocks = 0;
  std::uint64_t threads = 0;  ///< gridDim.x * blockDim.x (paper's nGPU)
  BlockCounters work;
  double wall_seconds = 0.0;     ///< simulator execution time (host CPU)
  double modeled_seconds = 0.0;  ///< cost-model GPU time

  /// Applies the device cost model: memory and compute pipelines overlap
  /// (take the max), atomics serialize at the memory controller, and each
  /// block/barrier/launch adds fixed scheduling overhead.
  void finalize(const DeviceConfig& cfg) noexcept {
    const double mem_s =
        static_cast<double>(work.global_bytes) / (cfg.mem_bandwidth_gbps * 1e9);
    const double shared_s = static_cast<double>(work.shared_bytes) /
                            (cfg.shared_bandwidth_gbps * 1e9);
    const double compute_s = static_cast<double>(work.flops) / cfg.peak_flops();
    const double atomic_s = static_cast<double>(work.atomic_ops) *
                            cfg.atomic_ns * 1e-9;
    const double overhead_s =
        static_cast<double>(blocks) * cfg.block_launch_us * 1e-6 /
            static_cast<double>(cfg.sm_count) +
        static_cast<double>(work.barriers) * cfg.barrier_us * 1e-6 /
            static_cast<double>(cfg.sm_count) +
        cfg.kernel_launch_us * 1e-6;
    const double pipelines = mem_s > compute_s ? mem_s : compute_s;
    modeled_seconds = (pipelines > shared_s ? pipelines : shared_s) +
                      atomic_s + overhead_s;
  }
};

/// Modeled GPU time for an exclusive prefix scan over `bytes` of count
/// data: a work-efficient (Blelloch-style) scan streams the array roughly
/// twice (up-sweep read + down-sweep read/write) in two kernel launches.
/// Linear in the batch's *point* count, unlike the pair-sort it replaces,
/// which is linear in the far larger pair count.
inline double modeled_scan_seconds(const DeviceConfig& cfg,
                                   std::uint64_t bytes) {
  constexpr double kSweeps = 3.0;  // up-sweep in, down-sweep in+out
  return kSweeps * static_cast<double>(bytes) /
             (cfg.mem_bandwidth_gbps * 1e9) +
         2.0 * cfg.kernel_launch_us * 1e-6;
}

/// Device-lifetime totals, snapshot via Device::metrics().
struct DeviceMetrics {
  std::uint64_t kernel_launches = 0;
  double kernel_modeled_seconds = 0.0;
  double kernel_wall_seconds = 0.0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  double transfer_seconds = 0.0;  ///< modeled (and slept, when throttled)
  double pinned_alloc_seconds = 0.0;
  double sort_seconds = 0.0;  ///< modeled on-device sort time
  double scan_seconds = 0.0;  ///< modeled on-device prefix-scan time
  std::size_t current_mem_bytes = 0;
  std::size_t peak_mem_bytes = 0;

  // --- buffer-pool accounting (see cudasim/buffer_pool.hpp) ---
  std::uint64_t pool_device_hits = 0;    ///< device checkouts served cached
  std::uint64_t pool_device_misses = 0;  ///< device checkouts that allocated
  std::uint64_t pool_pinned_hits = 0;    ///< pinned checkouts served cached
  std::uint64_t pool_pinned_misses = 0;  ///< pinned checkouts that page-locked
  std::uint64_t pool_trim_bytes = 0;     ///< device bytes freed by OOM trims

  // --- fault-injection accounting (zero unless a FaultInjector fired) ---
  std::uint64_t injected_oom_faults = 0;       ///< scripted alloc failures
  std::uint64_t injected_transient_faults = 0; ///< scripted launch faults
  std::uint64_t degraded_transfers = 0;        ///< transfers at reduced PCIe
  std::uint64_t refused_ops = 0;               ///< ops after device loss
  bool device_lost = false;                    ///< device permanently gone
};

}  // namespace cudasim
