// Device-resident result set with atomic append (paper Alg. 2/3 line
// "atomic: gpuResultSet <- gpuResultSet U result").
//
// The kernels write (key, value) neighbor pairs through an atomically
// incremented cursor. Contention control: instead of one fetch_add per
// pair, kernels stage pairs in a thread-local buffer (registers/shared
// memory on real hardware) and reserve k slots with a single fetch_add per
// flush — the warp-aggregated / batched buffer-reservation idiom of
// Gowanlock's hybrid KNN-join. If a batch produces more pairs than the
// buffer can hold, the overflow flag is raised instead of writing out of
// bounds — the failure mode the batching scheme's alpha over-estimation
// (paper Eq. 1) exists to prevent.
//
// Accounting terms: `produced()` is the raw cursor (how many pairs the
// kernel tried to emit; may exceed capacity after an overflowed batch),
// `stored()` clamps to capacity (how many slots actually hold data — the
// only safe read extent).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>

#include "common/types.hpp"
#include "cudasim/buffer.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/kernel.hpp"

namespace hdbscan::gpu {

/// Non-owning view handed to kernels.
struct ResultSinkView {
  NeighborPair* slots = nullptr;
  std::uint64_t capacity = 0;
  std::atomic<std::uint64_t>* cursor = nullptr;
  std::atomic<bool>* overflow = nullptr;

  /// Bulk reservation of `k` slots: one atomic op regardless of k. Returns
  /// the first reserved index; raises the overflow flag when the
  /// reservation extends past capacity (slots beyond it must not be
  /// written — store() enforces that bound).
  std::uint64_t reserve(std::uint64_t k, cudasim::ThreadCtx& ctx) const
      noexcept {
    ctx.count_atomic();
    const std::uint64_t start = cursor->fetch_add(k, std::memory_order_relaxed);
    if (start + k > capacity) {
      overflow->store(true, std::memory_order_relaxed);
    }
    return start;
  }

  /// Writes one reserved slot; out-of-capacity indexes (possible only
  /// after an overflowed reservation) are dropped.
  void store(std::uint64_t idx, const NeighborPair& pair,
             cudasim::ThreadCtx& ctx) const noexcept {
    if (idx < capacity) {
      slots[idx] = pair;
      ctx.count_global_bytes(sizeof(NeighborPair));
    }
  }

  /// Single-pair append (one atomic per pair); returns false when the pair
  /// did not fit. Kept for callers without a staging buffer — hot kernels
  /// should use StagedSink instead.
  bool push(const NeighborPair& pair, cudasim::ThreadCtx& ctx) const noexcept {
    const std::uint64_t idx = reserve(1, ctx);
    store(idx, pair, ctx);
    return idx < capacity;
  }
};

/// Thread-local staging buffer in front of a ResultSinkView: pairs
/// accumulate locally (modeled as shared-memory traffic, like a per-block
/// staging tile) and are flushed with one bulk cursor reservation — one
/// global atomic per kStageCapacity pairs instead of one per pair.
/// Callers MUST flush() before the owning thread finishes.
class StagedSink {
 public:
  static constexpr std::size_t kStageCapacity = 128;

  explicit StagedSink(const ResultSinkView& sink) noexcept : sink_(sink) {}

  void push(const NeighborPair& pair, cudasim::ThreadCtx& ctx) noexcept {
    stage_[count_++] = pair;
    ctx.count_shared_bytes(sizeof(NeighborPair));
    if (count_ == kStageCapacity) flush(ctx);
  }

  void flush(cudasim::ThreadCtx& ctx) noexcept {
    if (count_ == 0) return;
    const std::uint64_t start = sink_.reserve(count_, ctx);
    for (std::size_t i = 0; i < count_; ++i) {
      sink_.store(start + i, stage_[i], ctx);
    }
    ctx.count_shared_bytes(count_ * sizeof(NeighborPair));
    count_ = 0;
  }

  [[nodiscard]] std::size_t staged() const noexcept { return count_; }

 private:
  ResultSinkView sink_;
  std::array<NeighborPair, kStageCapacity> stage_;
  std::size_t count_ = 0;
};

/// Owning device-side result buffer for one batch / stream. The backing
/// storage is checked out of the device's buffer pool, so per-batch and
/// per-variant construction stops paying device malloc/free.
class ResultSetDevice {
 public:
  ResultSetDevice(cudasim::Device& device, std::uint64_t capacity)
      : pairs_(device, capacity) {}

  [[nodiscard]] ResultSinkView view() noexcept {
    return ResultSinkView{pairs_.device_data(), pairs_.size(), &cursor_,
                          &overflow_};
  }

  /// Number of pairs the kernel produced (raw cursor). May exceed
  /// capacity() when the buffer overflowed; never use it as a read extent
  /// — that is what stored() is for.
  [[nodiscard]] std::uint64_t produced() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }

  /// Number of pairs actually resident in the buffer:
  /// min(produced, capacity). Safe as a read extent even after overflow.
  [[nodiscard]] std::uint64_t stored() const noexcept {
    return std::min<std::uint64_t>(produced(), pairs_.size());
  }

  /// Deprecated alias for produced(); see the produced()/stored()
  /// distinction above before using the value as a read extent.
  [[nodiscard]] std::uint64_t count() const noexcept { return produced(); }

  [[nodiscard]] bool overflowed() const noexcept {
    return overflow_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t capacity() const noexcept {
    return pairs_.size();
  }

  [[nodiscard]] cudasim::PooledDeviceBuffer<NeighborPair>& pairs() noexcept {
    return pairs_;
  }

  /// Reset before reusing the buffer for the next batch.
  void reset() noexcept {
    cursor_.store(0, std::memory_order_relaxed);
    overflow_.store(false, std::memory_order_relaxed);
  }

 private:
  cudasim::PooledDeviceBuffer<NeighborPair> pairs_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<bool> overflow_{false};
};

}  // namespace hdbscan::gpu
