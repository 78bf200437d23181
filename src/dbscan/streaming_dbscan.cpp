#include "dbscan/streaming_dbscan.hpp"

#include <stdexcept>

#include "common/timer.hpp"
#include "dbscan/dbscan_parallel.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

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
}

std::uint64_t StreamingDbscan::cross_pairs() const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n_; ++i) sum += degree(static_cast<PointId>(i));
  return (sum - n_) / 2;
}

ClusterResult StreamingDbscan::finalize(unsigned /*num_threads*/) {
  if (finalized_) {
    throw std::logic_error("StreamingDbscan::finalize called twice");
  }
  check_cancel(cancel_);  // a cancelled job never pays the resolution tail
  finalized_ = true;
  TRACE_SPAN("stream", "stream_finalize n=%zu", n_);
  WallTimer tail_timer;

  // Clusters numbered by root in one id-order scan, as dbscan_parallel
  // does: the union-find keeps every root its component's smallest core
  // id, so a root is met before the rest of its component. The union pass
  // read only core status, which the capped degrees keep exact.
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

  obs::Registry& reg = obs::Registry::global();
  reg.gauge("stream_peak_memory_bytes")
      .set(static_cast<double>(peak_memory_bytes()));
  reg.histogram("stream_finalize_seconds").observe(tail_timer.seconds());
  return result;
}

}  // namespace hdbscan
