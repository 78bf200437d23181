// Cooperative cancellation and deadline propagation.
//
// A CancelToken is a small shared flag a request front-end hands to the
// long-running build layers (NeighborTableBuilder, fused_cluster,
// StreamingDbscan::finalize). The workers poll it at batch
// granularity — one relaxed atomic load on the happy path — and abandon
// the build by throwing OperationCancelled, which rides the existing
// hard-error unwind: streams drain, pooled buffers return to the device's
// BufferPool, and the caller sees a classified failure instead of a
// completed-but-unwanted result.
//
// Deadlines are just self-arming cancellation: set_deadline stores a
// steady_clock instant and the first poll past it latches the token into
// the kDeadline state. Latching makes the reason stable — every layer that
// observes the token afterwards reports the same cause, however the races
// between a client cancel and a deadline expiry fall.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace hdbscan {

/// Why a cancelled operation stopped. kNone means "not cancelled".
enum class CancelReason : int {
  kNone = 0,
  kCancelled = 1,  ///< explicit cancel() — client abandoned the request
  kDeadline = 2,   ///< the token's deadline passed
};

/// Thrown by workers that observe a cancelled token mid-operation.
class OperationCancelled : public std::runtime_error {
 public:
  explicit OperationCancelled(CancelReason reason)
      : std::runtime_error(reason == CancelReason::kDeadline
                               ? "operation deadline exceeded"
                               : "operation cancelled"),
        reason_(reason) {}

  [[nodiscard]] CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_;
};

/// Shared cancellation flag + optional deadline. Thread-safe; one token is
/// typically polled concurrently by every stream thread of a build.
class CancelToken {
 public:
  CancelToken() = default;

  /// Arms the token with an absolute steady_clock deadline. The token
  /// latches into the kDeadline state on the first poll at or past it.
  void set_deadline(std::chrono::steady_clock::time_point deadline) noexcept {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }

  /// Convenience: deadline `seconds` from now (<= 0 expires immediately).
  void set_deadline_after(double seconds) noexcept {
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::nanoseconds(
                     static_cast<std::int64_t>(seconds * 1e9)));
  }

  /// Client-abandoned cancellation. A deadline that already latched wins:
  /// the first observed reason is the reason.
  void cancel() noexcept {
    int expected = 0;
    state_.compare_exchange_strong(
        expected, static_cast<int>(CancelReason::kCancelled),
        std::memory_order_relaxed);
  }

  /// One relaxed load on the live path; checks (and latches) the deadline
  /// only while the token is still live.
  [[nodiscard]] bool cancelled() const noexcept {
    if (state_.load(std::memory_order_relaxed) != 0) return true;
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d != 0 &&
        std::chrono::steady_clock::now().time_since_epoch().count() >= d) {
      int expected = 0;
      state_.compare_exchange_strong(
          expected, static_cast<int>(CancelReason::kDeadline),
          std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  [[nodiscard]] CancelReason reason() const noexcept {
    return static_cast<CancelReason>(state_.load(std::memory_order_relaxed));
  }

  /// Throws OperationCancelled if the token is cancelled or past deadline.
  void check() const {
    if (cancelled()) throw OperationCancelled(reason());
  }

 private:
  mutable std::atomic<int> state_{0};        ///< latched CancelReason
  std::atomic<std::int64_t> deadline_ns_{0}; ///< steady_clock ns; 0 = none
};

/// Polls a possibly-null token (the convention every build layer uses for
/// its optional cancellation hook).
inline void check_cancel(const CancelToken* token) {
  if (token != nullptr) token->check();
}

}  // namespace hdbscan
