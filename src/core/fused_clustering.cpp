#include "core/fused_clustering.hpp"

#include <atomic>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/batch_engine.hpp"
#include "core/report_metrics.hpp"
#include "gpu/kernels.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

BuildReport fused_cluster(const std::vector<cudasim::Device*>& devices,
                          const GridIndex& index, float eps,
                          StreamingDbscan& consumer,
                          const BatchPolicy& policy) {
  TRACE_SPAN("fused", "fused_cluster n=%zu", index.size());
  if (devices.empty()) throw std::invalid_argument("fused_cluster: no devices");
  for (const cudasim::Device* d : devices) {
    if (d == nullptr) throw std::invalid_argument("fused_cluster: null device");
  }
  if (!index.emit_ids.empty() || index.query_count() != index.size()) {
    throw std::invalid_argument(
        "fused_cluster: whole-index builds only — the fused kernels union "
        "global ids directly, so sharded slabs must use the table pipelines");
  }
  if (consumer.num_points() != index.size()) {
    throw std::invalid_argument(
        "fused_cluster: consumer id space does not match the index");
  }
  check_cancel(policy.cancel);
  WallTimer total_timer;
  BuildReport report;
  report.fused = true;
  report.streamed = true;
  report.table_materialized = false;
  report.scan_mode = policy.scan_mode;
  report.index_backend = policy.index_backend;

  // Upload only what the backend traverses. There is no estimation kernel
  // — with no result buffers there is nothing to size — which is also why
  // the BVH backend skips the grid upload here, unlike the table builder.
  // The grid's union pass walks its sub-cell runs, which go up with it.
  SubCells sub_cells;
  if (policy.index_backend == IndexBackend::kGrid) {
    TRACE_SPAN("fused", "sub_cells n=%zu", index.size());
    sub_cells = build_sub_cells(index);
  }
  BatchEngine engine(devices, index, policy, "fused", /*upload_grid=*/false,
                     &sub_cells);
  engine.open_lanes();

  // Two waves per lane and pass — failover granularity and stream overlap
  // without buffer planning. A launch allocates no device memory and
  // cannot overflow, so no step splits and the ladder has no shrink rung.
  const auto num_batches =
      static_cast<std::uint32_t>(engine.lanes().size() * 2);
  report.plan.num_batches = num_batches;

  // One pass: its batches on the lanes under the engine's ladder, then
  // what no device finished through `host`, the pass's body on the host
  // pool over the index the devices traversed (one ownership rule). An
  // item whose degrees landed already has nothing left to do.
  auto run_pass = [&](const char* pass, auto&& launch, auto&& host) {
    std::vector<WorkItem> unfinished = engine.run(
        num_batches,
        [&](Lane& lane, WorkItem& item) {
          if (item.counts_delivered ||
              item.spec.points_in_batch(lane.views.grid.query_count()) == 0) {
            return;
          }
          TRACE_SPAN("fused", "%s_batch %u/%u d%u", pass, item.spec.batch,
                     item.spec.num_batches, lane.device.id());
          launch(lane, item);
          ++lane.batches_run;
        },
        report);
    report.used_host_fallback |= !unfinished.empty();
    for (WorkItem& item : unfinished) {
      check_cancel(policy.cancel);
      if (item.counts_delivered) continue;
      TRACE_SPAN("host", "fused_host_%s %u/%u", pass, item.spec.batch,
                 item.spec.num_batches);
      engine.host_views().visit([&](const auto& view) { host(view, item); });
      ++report.host_fallback_batches;
    }
  };

  // The core pass: exact degrees under kFull, self included — not
  // FDBSCAN's early exit at minpts, since a border joins its
  // highest-degree core neighbor. Marking the item delivered makes a
  // lineage land its degrees once, whatever the ladder does.
  auto deliver = [&](WorkItem& item, std::span<const std::uint32_t> counts) {
    consumer.consume_counts(CountDelivery{
        item.spec.batch, item.spec.num_batches, ScanMode::kFull, counts, {}});
    item.counts_delivered = true;
  };
  run_pass(
      "core",
      [&](Lane& lane, WorkItem& item) {
        std::vector<std::uint32_t> counts(
            item.spec.points_in_batch(lane.views.grid.query_count()));
        lane.launch([&](const auto& view) {
          return gpu::run_count_batch(lane.device, view, eps, item.spec,
                                      counts.data(), ScanMode::kFull,
                                      policy.block_size);
        });
        deliver(item, counts);
      },
      [&](const auto& view, WorkItem& item) {
        deliver(item, gpu::host_count_batch(view, eps, item.spec,
                                            ScanMode::kFull));
      });

  // The barrier: every degree is in, on a device or on the host, so core
  // status is final for the whole union pass. A launch either ran all its
  // blocks or none (faults fire first), so each batch adds its dense runs
  // once.
  check_cancel(policy.cancel);
  std::atomic<std::uint64_t> dense_runs{0};
  run_pass(
      "union",
      [&](Lane& lane, WorkItem& item) {
        dense_runs += lane.launch([&](const auto& view) {
                            return gpu::run_union_batch(
                                lane.device, view, eps, item.spec, consumer,
                                policy.scan_mode, policy.block_size);
                          })
                          .work.events;
      },
      [&](const auto& view, WorkItem& item) {
        dense_runs += gpu::host_union_batch(view, eps, item.spec, consumer,
                                            policy.scan_mode)
                          .events;
      });
  report.dense_runs = dense_runs;

  // Every modeled term is counted: the index upload and the lanes' kernel
  // timelines. No result byte crosses the bus (d2h_bytes stays 0).
  const double slowest_stream = engine.harvest(report);
  report.total_pairs = consumer.cross_pairs();
  report.shard_fixed_seconds = engine.upload_seconds();
  report.shard_stream_seconds = slowest_stream;
  report.modeled_table_seconds = report.shard_fixed_seconds + slowest_stream;
  report.table_seconds = total_timer.seconds();
  publish_build_report(report, policy.metrics_labels);
  return report;
}

BuildReport fused_cluster(cudasim::Device& device, const GridIndex& index,
                          float eps, StreamingDbscan& consumer,
                          const BatchPolicy& policy) {
  return fused_cluster(std::vector<cudasim::Device*>{&device}, index, eps,
                       consumer, policy);
}

void reject_sharded_fused(const char* caller, unsigned num_shards) {
  if (num_shards <= 1) return;
  throw std::invalid_argument(
      std::string(caller) +
      ": ClusterMode::kFused replicates the whole index on every device "
      "and cannot shard it (num_shards = " +
      std::to_string(num_shards) +
      "); use ClusterMode::kBatchTable for a sharded build");
}

}  // namespace hdbscan
