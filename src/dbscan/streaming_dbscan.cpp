#include "dbscan/streaming_dbscan.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/timer.hpp"
#include "dbscan/dbscan_parallel.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

/// Static range split of [0, n) across `workers` threads.
template <typename F>
void run_partitioned(std::size_t n, unsigned workers, F&& body) {
  if (workers <= 1 || n < 2048) {
    body(0, n);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const std::size_t chunk = (n + workers - 1) / workers;
  for (unsigned w = 0; w < workers; ++w) {
    const std::size_t begin = static_cast<std::size_t>(w) * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back(
        [&body, begin, end, ctx = hdbscan::current_request_context()] {
          hdbscan::RequestScope scope(ctx);
          body(begin, end);
        });
  }
  for (auto& t : threads) t.join();
}

}  // namespace

StreamingDbscan::StreamingDbscan(std::size_t num_points, int minpts)
    : n_(num_points),
      required_(0),
      degree_(std::make_unique<std::atomic<std::uint32_t>[]>(num_points)),
      uf_(num_points),
      border_(std::make_unique<std::atomic<std::uint64_t>[]>(num_points)),
      flag_(std::make_unique<std::atomic<std::uint8_t>[]>(num_points)) {
  if (minpts < 1) {
    throw std::invalid_argument("StreamingDbscan: minpts must be >= 1");
  }
  required_ = static_cast<std::uint32_t>(minpts);
  for (std::size_t i = 0; i < n_; ++i) {
    degree_[i].store(0, std::memory_order_relaxed);
    border_[i].store(0, std::memory_order_relaxed);
    flag_[i].store(0, std::memory_order_relaxed);
  }
  peak_memory_bytes_ = fixed_bytes();
}

std::uint64_t StreamingDbscan::cross_pairs() const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n_; ++i) sum += degree(static_cast<PointId>(i));
  return (sum - n_) / 2;
}

void StreamingDbscan::consume_counts(const CountDelivery& d) {
  ThreadCpuTimer timer;
  const std::size_t keys = d.counts.size();
  for (std::size_t g = 0; g < keys; ++g) {
    degree_[d.key_at(g)].fetch_add(d.counts[g], std::memory_order_relaxed);
  }
  const double seconds = timer.seconds();
  std::lock_guard lock(deferred_mutex_);
  ++stats_.count_batches;
  stats_.consume_seconds += seconds;
  add_thread_seconds_locked(seconds);
}

void StreamingDbscan::add_thread_seconds_locked(double seconds) {
  const std::thread::id self = std::this_thread::get_id();
  for (auto& [id, total] : thread_consume_) {
    if (id == self) {
      total += seconds;
      stats_.max_thread_consume_seconds =
          std::max(stats_.max_thread_consume_seconds, total);
      return;
    }
  }
  thread_consume_.emplace_back(self, seconds);
  stats_.max_thread_consume_seconds =
      std::max(stats_.max_thread_consume_seconds, seconds);
}

void StreamingDbscan::consume(const BatchDelivery& d) {
  // Cancellation escapes through the builder's delivery callback: it
  // becomes the build's hard error, streams drain, buffers return.
  check_cancel(cancel_);
  ThreadCpuTimer timer;
  TRACE_SPAN("stream", "stream_consume %u/%u", d.first_key, d.key_stride);
  const std::size_t keys = d.offsets.size();
  std::vector<NeighborPair> local_deferred;
  std::uint64_t edges = 0;
  std::uint64_t streamed = 0;
  for (std::size_t g = 0; g < keys; ++g) {
    const PointId key = d.key_at(g);
    const std::size_t row_begin = d.offsets[g];
    const std::size_t row_end =
        g + 1 < keys ? d.offsets[g + 1] : d.values.size();
    if (!d.counts_delivered) {
      // No separate count delivery for these keys (host-fallback rows):
      // the row length *is* the pass-1 count (self included; forward
      // count under kHalf).
      degree_[key].fetch_add(static_cast<std::uint32_t>(row_end - row_begin),
                             std::memory_order_relaxed);
    }
    for (std::size_t idx = row_begin; idx < row_end; ++idx) {
      const PointId v = d.values[idx];
      if (v == key) continue;  // self pair: degree only, never an edge
      if (d.scan_mode == ScanMode::kHalf) {
        // Forward rows carry each cross pair once; the back direction's
        // degree contribution lands here, value by value — the streaming
        // equivalent of the table assembler's back-row histogram.
        degree_[v].fetch_add(1, std::memory_order_relaxed);
      } else if (v < key) {
        // Full rows deliver each cross pair twice; keep the (key < v)
        // copy so every edge is considered exactly once.
        continue;
      }
      ++edges;
      // Core status is monotone (degrees only grow), so a both-core edge
      // can be settled right now, on the builder's stream thread.
      if (is_core(key) && is_core(v)) {
        uf_.unite(key, v);
        ++streamed;
      } else {
        local_deferred.push_back(NeighborPair{key, v});
      }
    }
  }
  const double seconds = timer.seconds();
  std::lock_guard lock(deferred_mutex_);
  deferred_.insert(deferred_.end(), local_deferred.begin(),
                   local_deferred.end());
  if (deferred_.size() >= compact_threshold_) compact_deferred_locked();
  stats_.deferred_peak =
      std::max<std::uint64_t>(stats_.deferred_peak, deferred_.size());
  peak_memory_bytes_ = std::max(
      peak_memory_bytes_,
      fixed_bytes() + deferred_.capacity() * sizeof(NeighborPair));
  ++stats_.row_batches;
  stats_.edges_seen += edges;
  stats_.edges_streamed += streamed;
  stats_.consume_seconds += seconds;
  add_thread_seconds_locked(seconds);
}

void StreamingDbscan::compact_deferred_locked() {
  // Points keep resolving as core while batches land; edges parked early
  // often become decidable later in the stream. Settling them here keeps
  // the parked-edge high-water near the truly undecidable residue.
  std::size_t kept = 0;
  for (const NeighborPair& e : deferred_) {
    if (is_core(e.key) && is_core(e.value)) {
      uf_.unite(e.key, e.value);
      ++stats_.edges_streamed;
    } else {
      deferred_[kept++] = e;
    }
  }
  deferred_.resize(kept);
  compact_threshold_ = std::max<std::size_t>(std::size_t{1} << 15, kept * 2);
}

std::size_t StreamingDbscan::memory_bytes() const {
  std::lock_guard lock(deferred_mutex_);
  return fixed_bytes() + deferred_.capacity() * sizeof(NeighborPair);
}

ClusterResult StreamingDbscan::finalize(unsigned num_threads) {
  if (finalized_) {
    throw std::logic_error("StreamingDbscan::finalize called twice");
  }
  check_cancel(cancel_);  // a cancelled job never pays the resolution tail
  finalized_ = true;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  TRACE_SPAN("stream", "stream_finalize n=%zu", n_);
  WallTimer tail_timer;

  stats_.edges_deferred = deferred_.size();
  stats_.deferred_peak =
      std::max<std::uint64_t>(stats_.deferred_peak, deferred_.size());

  // Degrees are final now, so is_core() is final. Settle the parked
  // edges: core-core ones (resolved after parking) are unioned, each
  // core/non-core one folds into the border keys. Only both-core edges
  // ever left the buffer, so the adjacency is complete. A fused build
  // parks nothing; its union pass folded the keys, and below only core
  // status and those keys are read, which its capped degrees keep exact.
  const FusedView view = fused_view();
  run_partitioned(deferred_.size(), num_threads,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t e = begin; e < end; ++e) {
                      const NeighborPair& edge = deferred_[e];
                      const bool ck = is_core(edge.key);
                      const bool cv = is_core(edge.value);
                      if (ck && cv) {
                        uf_.unite(edge.key, edge.value);
                      } else if (ck != cv) {
                        const std::uint32_t c = ck ? edge.key : edge.value;
                        view.fold_border(ck ? edge.value : edge.key,
                                         border_target_key(degree(c), c));
                      }
                    }
                  });

  // Clusters numbered by root in one id-order scan, as dbscan_parallel
  // does: the union-find keeps every root its component's smallest core
  // id, so a root is met before the rest of its component.
  ClusterResult result;
  result.labels.assign(n_, kNoise);
  std::int32_t next_cluster = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!is_core(static_cast<std::uint32_t>(i))) continue;
    const std::uint32_t root = uf_.find(static_cast<std::uint32_t>(i));
    result.labels[i] = root == i ? next_cluster++ : result.labels[root];
  }
  result.num_clusters = next_cluster;

  // Borders — dbscan_parallel's rule: the core neighbor with the largest
  // degree, ties to the smaller id, read from the border keys. A second
  // scan, since a border's core may follow it in id order; one load per
  // point, too light to pay for worker threads.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t key = border_[i].load(std::memory_order_relaxed);
    if (key != 0 && !is_core(static_cast<std::uint32_t>(i))) {
      result.labels[i] = result.labels[border_target_id(key)];
    }
  }
  result.finalize_noise_count();

  stats_.finalize_seconds = tail_timer.seconds();
  peak_memory_bytes_ = std::max(
      peak_memory_bytes_,
      fixed_bytes() + deferred_.capacity() * sizeof(NeighborPair) +
          n_ * sizeof(std::int32_t));

  obs::Registry& reg = obs::Registry::global();
  reg.counter("stream_row_batches").add(stats_.row_batches);
  reg.counter("stream_edges_seen").add(stats_.edges_seen);
  reg.counter("stream_edges_streamed").add(stats_.edges_streamed);
  reg.counter("stream_edges_deferred").add(stats_.edges_deferred);
  reg.gauge("stream_overlap_fraction").set(stats_.overlap_fraction());
  reg.gauge("stream_streamed_fraction").set(stats_.streamed_fraction());
  reg.gauge("stream_peak_memory_bytes")
      .set(static_cast<double>(peak_memory_bytes_));
  reg.histogram("stream_finalize_seconds").observe(stats_.finalize_seconds);
  return result;
}

}  // namespace hdbscan
