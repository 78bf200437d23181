#include "core/pipeline.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/timer.hpp"
#include "core/cell_graph.hpp"
#include "core/fused_clustering.hpp"
#include "core/hybrid_dbscan.hpp"
#include "core/neighbor_table_builder.hpp"
#include "dbscan/dbscan.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

/// Work item flowing from the table producer to the DBSCAN consumers:
/// either a materialized table (batch mode) or an already-streamed
/// clusterer awaiting its resolution tail (streaming mode).
struct TableItem {
  std::size_t variant_index = 0;
  NeighborTable table;
  std::vector<PointId> original_ids;
  /// Streaming mode: the consumer that ingested this variant's batches
  /// during its build; the pipeline consumer only runs finalize().
  std::unique_ptr<StreamingDbscan> streaming;
  /// Host bytes this item holds in flight (table payload, or the
  /// streaming consumer's resident footprint).
  std::uint64_t payload_bytes = 0;
};

/// Minimal bounded MPMC queue (single producer here). Bounds the number
/// of in-flight items and, when `bytes_budget` is non-zero, their summed
/// payload bytes — with a one-item minimum: an empty queue admits any
/// item, so a single over-budget table stalls the producer only until the
/// consumers catch up, never forever.
class BoundedQueue {
 public:
  BoundedQueue(std::size_t capacity, std::uint64_t bytes_budget)
      : capacity_(capacity), bytes_budget_(bytes_budget) {}

  void push(TableItem item) {
    const std::uint64_t bytes = item.payload_bytes;
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] {
      if (queue_.size() >= capacity_) return false;
      if (bytes_budget_ == 0 || queue_.empty()) return true;
      return bytes_in_flight_ + bytes <= bytes_budget_;
    });
    bytes_in_flight_ += bytes;
    queue_.push_back(std::move(item));
    not_empty_.notify_one();
  }

  /// Returns nullopt once closed and drained.
  std::optional<TableItem> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    TableItem item = std::move(queue_.front());
    queue_.pop_front();
    bytes_in_flight_ -= item.payload_bytes;
    not_full_.notify_all();
    return item;
  }

  void close() {
    std::lock_guard lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
  }

 private:
  std::size_t capacity_;
  std::uint64_t bytes_budget_;
  std::uint64_t bytes_in_flight_ = 0;
  std::deque<TableItem> queue_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  bool closed_ = false;
};

[[nodiscard]] std::uint64_t table_payload_bytes(const NeighborTable& t) {
  return t.total_pairs() * sizeof(PointId) +
         t.num_points() * 2 * sizeof(std::uint32_t);
}

/// what() of the in-flight exception; call only from a catch block.
std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// Cell-graph variants never enter the producer/consumer machinery: each
/// variant is one fused host pass (bin, degree, union, label), so there is
/// no table to hand off and nothing for a consumer to overlap with. Both
/// run_multi_clustering overloads branch here when the policy selects
/// ClusterQuality::kCellGraph.
PipelineReport run_cell_graph_variants(const cudasim::DeviceConfig& config,
                                       std::span<const Point2> points,
                                       std::span<const Variant> variants,
                                       const PipelineOptions& options) {
  if (options.cluster_mode == ClusterMode::kFused) {
    throw std::invalid_argument(
        "run_multi_clustering: ClusterQuality::kCellGraph is incompatible "
        "with ClusterMode::kFused");
  }
  PipelineReport report;
  report.variants.resize(variants.size());
  if (options.keep_results) report.results.resize(variants.size());
  WallTimer total_timer;
  std::exception_ptr first_error;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    report.variants[i].variant = variants[i];
    try {
      TRACE_SPAN("pipeline", "cellgraph v%zu eps=%.3f", i,
                 static_cast<double>(variants[i].eps));
      WallTimer t;
      CellGraphReport cg;
      ClusterResult r = cell_graph_dbscan(points, variants[i].eps,
                                          variants[i].minpts, config, &cg);
      report.variants[i].dbscan_seconds = t.seconds();
      report.variants[i].modeled_table_seconds = cg.modeled_seconds;
      report.variants[i].num_clusters = r.num_clusters;
      report.variants[i].noise_count = r.noise_count();
      if (options.keep_results) report.results[i] = std::move(r);
    } catch (...) {
      report.variants[i].outcome.ok = false;
      report.variants[i].outcome.error = describe_current_exception();
      report.variants[i].outcome.failure = classify_current_exception();
      ++failed;
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (!variants.empty() && failed == variants.size()) {
    std::rethrow_exception(first_error);
  }
  report.total_seconds = total_timer.seconds();
  return report;
}

}  // namespace

PipelineReport run_multi_clustering(cudasim::Device& device,
                                    std::span<const Point2> points,
                                    std::span<const Variant> variants,
                                    const PipelineOptions& options) {
  return run_multi_clustering(std::vector<cudasim::Device*>{&device}, points,
                              variants, options);
}

PipelineReport run_multi_clustering(
    const std::vector<cudasim::Device*>& devices,
    std::span<const Point2> points, std::span<const Variant> variants,
    const PipelineOptions& options) {
  std::vector<cudasim::Device*> fleet;
  for (cudasim::Device* d : devices) {
    if (d != nullptr) fleet.push_back(d);
  }
  if (fleet.empty()) {
    throw std::invalid_argument("run_multi_clustering: no devices");
  }
  if (options.policy.quality.mode == ClusterQuality::kCellGraph) {
    return run_cell_graph_variants(fleet.front()->config(), points, variants,
                                   options);
  }
  // Subsampled variants threshold their degrees at minpts * s (the
  // kernels keep that expected fraction of each neighborhood).
  const auto run_minpts = [&](std::size_t i) {
    return options.policy.quality.scaled_minpts(variants[i].minpts);
  };

  PipelineReport report;
  report.variants.resize(variants.size());
  if (options.keep_results) report.results.resize(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    report.variants[i].variant = variants[i];
  }
  WallTimer total_timer;

  const auto live_devices = [&fleet] {
    std::vector<cudasim::Device*> live;
    for (cudasim::Device* d : fleet) {
      if (!d->lost()) live.push_back(d);
    }
    return live;
  };
  ShardedBuildOptions sopts;
  sopts.num_shards = options.num_shards;
  sopts.policy = options.policy;

  std::mutex report_mutex;
  std::exception_ptr first_error;
  std::size_t failed_variants = 0;  // guarded by report_mutex

  // A variant that fails is recorded and skipped — its siblings keep
  // flowing. Call only from a catch block.
  auto record_failure = [&](std::size_t i) {
    std::lock_guard lock(report_mutex);
    report.variants[i].outcome.ok = false;
    report.variants[i].outcome.error = describe_current_exception();
    report.variants[i].outcome.failure = classify_current_exception();
    ++failed_variants;
    if (!first_error) first_error = std::current_exception();
  };

  // Builds one variant's index and table (or streams its unions),
  // records its build times and packages it for the consumers. Once every
  // device is lost the remaining variants' tables are built host-side
  // instead.
  auto produce_item = [&](std::size_t i) -> TableItem {
    WallTimer t;
    WallTimer index_timer;
    GridIndex index = build_grid_index(points, variants[i].eps);
    const double index_s = index_timer.seconds();
    TableItem item;
    item.variant_index = i;
    const std::vector<cudasim::Device*> live = live_devices();
    const bool host = live.empty();
    double modeled_s = 0.0;
    if (host) {
      item.table = build_neighbor_table_host_parallel(
          index, variants[i].eps, /*num_threads=*/0, options.policy.quality);
      item.payload_bytes = table_payload_bytes(item.table);
    } else if (options.cluster_mode == ClusterMode::kBatchTable) {
      BuildReport build_report;
      item.table = build_fleet_neighbor_table(fleet, index, variants[i].eps,
                                              sopts, &build_report);
      modeled_s = index_s + build_report.modeled_table_seconds;
      item.payload_bytes = table_payload_bytes(item.table);
    } else {
      // Streaming and fused variants run their core-core unions during
      // their own build — intra-variant overlap on top of the
      // inter-variant producer/consumer overlap. The consumers only run
      // the resolution tail.
      auto clusterer = std::make_unique<StreamingDbscan>(index.size(),
                                                         run_minpts(i));
      clusterer->set_cancel_token(options.policy.cancel);
      BuildReport build_report;
      if (options.cluster_mode == ClusterMode::kFused) {
        // Fused variants never touch the table builder: the whole index is
        // replicated across the live devices (no slab sharding; the
        // kernels union global ids) and the traversal kernel ingests
        // straight into the clusterer.
        build_report = fused_cluster(live, index, variants[i].eps,
                                     *clusterer, options.policy);
      } else {
        build_fleet_neighbor_table(fleet, index, variants[i].eps, sopts,
                                   &build_report, clusterer.get(),
                                   /*materialize_table=*/false);
      }
      modeled_s = index_s + build_report.modeled_table_seconds;
      item.payload_bytes = clusterer->memory_bytes();
      item.streaming = std::move(clusterer);
    }
    item.original_ids = std::move(index.original_ids);
    const double wall_s = t.seconds();
    std::lock_guard lock(report_mutex);
    report.variants[i].table_seconds = wall_s;
    report.variants[i].modeled_table_seconds = host ? wall_s : modeled_s;
    report.variants[i].outcome.host_fallback = host;
    return item;
  };

  // DBSCAN over a materialized table, or a streamed clusterer's tail.
  auto consume_item = [&](TableItem& item) {
    const std::size_t i = item.variant_index;
    WallTimer t;
    ClusterResult indexed =
        item.streaming ? item.streaming->finalize()
                       : dbscan_neighbor_table(item.table, run_minpts(i));
    const double dbscan_s = t.seconds();
    ClusterResult result = options.keep_results
                               ? unmap_labels(indexed, item.original_ids)
                               : std::move(indexed);
    std::lock_guard lock(report_mutex);
    report.variants[i].dbscan_seconds = dbscan_s;
    report.variants[i].num_clusters = result.num_clusters;
    report.variants[i].noise_count = result.noise_count();
    if (item.streaming) {
      report.variants[i].streamed = true;
      report.variants[i].overlap_fraction =
          item.streaming->stats().overlap_fraction();
    }
    if (options.keep_results) report.results[i] = std::move(result);
  };

  if (!options.pipelined) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      try {
        TRACE_SPAN("pipeline", "variant v%zu eps=%.3f", i,
                   static_cast<double>(variants[i].eps));
        TableItem item = produce_item(i);
        consume_item(item);
      } catch (...) {
        record_failure(i);
      }
    }
  } else {
    // Producer: builds the grid index and T for v_{i+1} while the
    // consumers are still clustering v_i.
    BoundedQueue queue(std::max(1u, options.queue_capacity),
                       options.queue_bytes_budget);
    std::thread producer([&] {
      obs::set_thread_track(obs::kHostPid, "producer");
      for (std::size_t i = 0; i < variants.size(); ++i) {
        try {
          TRACE_SPAN("pipeline", "produce v%zu eps=%.3f", i,
                     static_cast<double>(variants[i].eps));
          queue.push(produce_item(i));
        } catch (...) {
          record_failure(i);
        }
      }
      queue.close();
    });

    std::vector<std::thread> consumers;
    consumers.reserve(std::max(1u, options.num_consumers));
    for (unsigned c = 0; c < std::max(1u, options.num_consumers); ++c) {
      consumers.emplace_back([&] {
        obs::set_thread_track(obs::kHostPid, "consumer");
        while (auto item = queue.pop()) {
          try {
            TRACE_SPAN("pipeline", "consume v%zu minpts=%u",
                       item->variant_index,
                       variants[item->variant_index].minpts);
            consume_item(*item);
          } catch (...) {
            record_failure(item->variant_index);
          }
        }
      });
    }
    producer.join();
    for (auto& c : consumers) c.join();
  }

  if (!variants.empty() && failed_variants == variants.size()) {
    std::rethrow_exception(first_error);
  }
  report.total_seconds = total_timer.seconds();
  return report;
}

}  // namespace hdbscan
