// Kernel execution engine.
//
// Two launch models mirror the paper's two kernels:
//
//  * Flat launch — every logical thread is independent (no __syncthreads).
//    Used by GPUCalcGlobal. Blocks execute in parallel on the executor
//    pool; threads within a block run sequentially on one executor thread.
//    The same block loop also runs on the host (run_flat_host), which is
//    how the degradation ladder's host rungs execute the device's own
//    kernel bodies.
//
//  * Cooperative launch — threads within a block may call co_await
//    ctx.sync(), the simulator's __syncthreads(). Used by GPUCalcShared.
//    Each logical thread is a C++20 coroutine; the block executor resumes
//    all live threads round-robin, so between two barriers every thread
//    runs exactly one "phase", which is precisely the barrier semantics
//    CUDA guarantees.
//
// Kernel bodies report the work they perform (FLOPs, global/shared memory
// traffic, atomics) through the context; KernelStats::finalize() turns the
// totals into a modeled Tesla-K20c execution time (see metrics.hpp).
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "cudasim/device.hpp"
#include "cudasim/error.hpp"
#include "cudasim/metrics.hpp"
#include "obs/trace.hpp"

namespace cudasim {

/// Per-thread view for flat (barrier-free) kernels.
class ThreadCtx {
 public:
  unsigned block_idx = 0;
  unsigned thread_idx = 0;
  unsigned block_dim = 0;
  unsigned grid_dim = 0;

  /// 64-bit flat thread id: blockIdx * blockDim + threadIdx. 64-bit
  /// end-to-end so large grids (> 2^32 logical threads) never silently
  /// truncate before kernels scale the id by a batch stride.
  [[nodiscard]] std::uint64_t global_id() const noexcept {
    return static_cast<std::uint64_t>(block_idx) * block_dim + thread_idx;
  }

  void count_flops(std::uint64_t n) noexcept { counters_->flops += n; }
  void count_global_bytes(std::uint64_t n) noexcept {
    counters_->global_bytes += n;
  }
  void count_shared_bytes(std::uint64_t n) noexcept {
    counters_->shared_bytes += n;
  }
  void count_atomic(std::uint64_t n = 1) noexcept {
    counters_->atomic_ops += n;
  }
  void count_event(std::uint64_t n = 1) noexcept { counters_->events += n; }

  BlockCounters* counters_ = nullptr;  // set by the launcher
};

/// Coroutine type returned by cooperative kernel bodies.
class KernelTask {
 public:
  struct promise_type {
    KernelTask get_return_object() {
      return KernelTask{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { exception = std::current_exception(); }
    std::exception_ptr exception;
  };

  using Handle = std::coroutine_handle<promise_type>;

  explicit KernelTask(Handle h) noexcept : handle_(h) {}
  KernelTask(KernelTask&& o) noexcept
      : handle_(std::exchange(o.handle_, nullptr)) {}
  KernelTask& operator=(KernelTask&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  KernelTask(const KernelTask&) = delete;
  KernelTask& operator=(const KernelTask&) = delete;
  ~KernelTask() { destroy(); }

  [[nodiscard]] Handle handle() const noexcept { return handle_; }

 private:
  void destroy() noexcept {
    if (handle_) handle_.destroy();
    handle_ = nullptr;
  }
  Handle handle_;
};

/// Awaiter returned by CoopCtx::sync(); suspension = barrier arrival.
struct BarrierAwaiter {
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

/// Per-thread view for cooperative kernels: adds sync() and block shared
/// memory (the analogue of `extern __shared__`).
class CoopCtx : public ThreadCtx {
 public:
  /// __syncthreads(): co_await ctx.sync();
  [[nodiscard]] BarrierAwaiter sync() noexcept {
    if (thread_idx == 0) ++counters_->barriers;  // one barrier per block
    return {};
  }

  /// The block's shared-memory arena; kernel code carves typed arrays out
  /// of it, exactly like CUDA dynamic shared memory.
  [[nodiscard]] std::span<std::byte> shared_mem() const noexcept {
    return shared_;
  }

  /// Carve a typed array of `count` elements at byte offset `offset`.
  template <typename T>
  [[nodiscard]] std::span<T> shared_array(std::size_t offset,
                                          std::size_t count) const {
    if (offset + count * sizeof(T) > shared_.size()) {
      throw LaunchError("shared_array: request exceeds block shared memory");
    }
    return {reinterpret_cast<T*>(shared_.data() + offset), count};
  }

  std::span<std::byte> shared_{};  // set by the launcher
};

namespace detail {

inline void validate_launch(const Device& dev, unsigned grid_dim,
                            unsigned block_dim, std::size_t shared_bytes) {
  if (grid_dim == 0 || block_dim == 0) {
    throw LaunchError("kernel launch with empty grid or block");
  }
  if (block_dim > dev.config().max_threads_per_block) {
    throw LaunchError("block size exceeds max_threads_per_block");
  }
  if (shared_bytes > dev.config().shared_mem_per_block) {
    throw LaunchError("shared memory request exceeds per-block limit");
  }
}

/// The flat block loop both executors share: blocks run in parallel on
/// `pool`, the threads of a block run in order with one ThreadCtx each,
/// and the per-block counters are merged into the returned total.
template <typename F>
BlockCounters run_flat_blocks(hdbscan::ThreadPool& pool, unsigned grid_dim,
                              unsigned block_dim, F& body) {
  BlockCounters total;
  std::mutex merge_mutex;
  pool.parallel_for(
      0, grid_dim,
      [&](std::size_t b) {
        BlockCounters block_work;
        for (unsigned t = 0; t < block_dim; ++t) {
          ThreadCtx ctx;
          ctx.block_idx = static_cast<unsigned>(b);
          ctx.thread_idx = t;
          ctx.block_dim = block_dim;
          ctx.grid_dim = grid_dim;
          ctx.counters_ = &block_work;
          body(ctx);
        }
        std::lock_guard lock(merge_mutex);
        total.merge(block_work);
      },
      /*grain=*/1);
  return total;
}

}  // namespace detail

/// Executes a flat kernel synchronously on the calling thread + executor
/// pool. `body` is invoked once per logical thread: body(ThreadCtx&).
template <typename F>
KernelStats run_flat_kernel(Device& dev, unsigned grid_dim, unsigned block_dim,
                            F&& body) {
  detail::validate_launch(dev, grid_dim, block_dim, 0);
  // Scripted fault gate: a TransientKernelFault or DeviceLost fires here,
  // before any block executes, so a failed launch never does partial work.
  dev.fault_on_kernel_launch();
  TRACE_SPAN("kernel", "flat d%u %ux%u", dev.id(), grid_dim, block_dim);
  hdbscan::WallTimer wall;

  KernelStats stats;
  stats.blocks = grid_dim;
  stats.threads = static_cast<std::uint64_t>(grid_dim) * block_dim;
  stats.work = detail::run_flat_blocks(dev.executor(), grid_dim, block_dim,
                                       body);

  stats.wall_seconds = wall.seconds();
  stats.finalize(dev.config());
  hdbscan::obs::modeled_advance(stats.modeled_seconds);
  dev.record_kernel(stats);
  return stats;
}

/// Executes a flat kernel body on the host: the device launch's block
/// loop on the process-wide pool, with no device behind it — no launch
/// validation, no fault gate, no modeled time and no kernel record. The
/// returned counters are the work the body charged.
template <typename F>
BlockCounters run_flat_host(unsigned grid_dim, unsigned block_dim, F&& body) {
  return detail::run_flat_blocks(hdbscan::global_pool(), grid_dim, block_dim,
                                 body);
}

/// Executes a cooperative kernel: `gen(ctx)` must be a coroutine returning
/// KernelTask that may `co_await ctx.sync()`. All threads of a block are
/// driven in lockstep phases between barriers.
template <typename G>
KernelStats run_coop_kernel(Device& dev, unsigned grid_dim, unsigned block_dim,
                            std::size_t shared_bytes, G&& gen) {
  detail::validate_launch(dev, grid_dim, block_dim, shared_bytes);
  dev.fault_on_kernel_launch();
  TRACE_SPAN("kernel", "coop d%u %ux%u", dev.id(), grid_dim, block_dim);
  hdbscan::WallTimer wall;

  KernelStats stats;
  stats.blocks = grid_dim;
  stats.threads = static_cast<std::uint64_t>(grid_dim) * block_dim;

  std::mutex merge_mutex;
  dev.executor().parallel_for(
      0, grid_dim,
      [&](std::size_t b) {
        BlockCounters block_work;
        std::vector<std::byte> shared(shared_bytes);
        // Contexts must have stable addresses: coroutine frames hold
        // references to them across suspensions.
        std::vector<CoopCtx> ctxs(block_dim);
        std::vector<KernelTask> threads;
        threads.reserve(block_dim);
        for (unsigned t = 0; t < block_dim; ++t) {
          CoopCtx& ctx = ctxs[t];
          ctx.block_idx = static_cast<unsigned>(b);
          ctx.thread_idx = t;
          ctx.block_dim = block_dim;
          ctx.grid_dim = grid_dim;
          ctx.counters_ = &block_work;
          ctx.shared_ = std::span<std::byte>(shared);
          threads.push_back(gen(ctx));
        }
        // Round-robin lockstep: each round resumes every live thread until
        // it either finishes or reaches the next barrier.
        bool any_alive = true;
        while (any_alive) {
          any_alive = false;
          for (auto& task : threads) {
            auto h = task.handle();
            if (!h.done()) {
              h.resume();
              if (h.promise().exception) {
                std::rethrow_exception(h.promise().exception);
              }
              if (!h.done()) any_alive = true;
            }
          }
        }
        std::lock_guard lock(merge_mutex);
        stats.work.merge(block_work);
      },
      /*grain=*/1);

  stats.wall_seconds = wall.seconds();
  stats.finalize(dev.config());
  hdbscan::obs::modeled_advance(stats.modeled_seconds);
  dev.record_kernel(stats);
  return stats;
}

}  // namespace cudasim
