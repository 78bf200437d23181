// Request-scoped attribution context (DESIGN.md §14).
//
// The clustering service mints one RequestContext per admitted job and
// installs it — via the RAII RequestScope — on every thread that does
// work for that job: the service worker itself, the builder's stream
// pump threads, and anything routed through ThreadPool. The tracer
// (obs/trace.cpp) reads the calling thread's context at record time, so
// every span/instant/counter carries the request it serves without any
// call-site changes.
//
// This lives in common/ (not obs/) because ThreadPool must capture the
// context at submit time and common cannot depend on obs. The context is
// plain thread-local data: installing or reading it never locks, and a
// thread with no scope installed reports request_id 0 ("unattributed").
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace hdbscan {

/// Identity of the request the calling thread is currently serving.
struct RequestContext {
  /// 0 = no request (unattributed background work).
  std::uint64_t request_id = 0;
  /// When this request rides another request's build (coalesced member,
  /// cache hit), the id of the request whose spans did the work.
  std::uint64_t link_id = 0;
  char tenant[24] = {};

  [[nodiscard]] bool valid() const noexcept { return request_id != 0; }

  void set_tenant(const char* name) noexcept {
    std::snprintf(tenant, sizeof(tenant), "%s", name == nullptr ? "" : name);
  }
};

namespace detail {
inline thread_local RequestContext t_request_context;
}  // namespace detail

/// The calling thread's current context (request_id 0 when none).
[[nodiscard]] inline const RequestContext& current_request_context() noexcept {
  return detail::t_request_context;
}

/// Installs `ctx` as the calling thread's context for the enclosing
/// scope; restores the previous context on destruction, so nested scopes
/// (a worker serving job B inside a pool task captured under job A)
/// unwind correctly.
class RequestScope {
 public:
  explicit RequestScope(const RequestContext& ctx) noexcept
      : prev_(detail::t_request_context) {
    detail::t_request_context = ctx;
  }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
  ~RequestScope() { detail::t_request_context = prev_; }

 private:
  RequestContext prev_;
};

/// Process-unique, monotonically increasing request id (never 0).
[[nodiscard]] inline std::uint64_t mint_request_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace hdbscan
