#include "core/fused_clustering.hpp"

#include <stdexcept>
#include <vector>

#include "common/timer.hpp"
#include "core/batch_engine.hpp"
#include "core/report_metrics.hpp"
#include "cudasim/sort.hpp"
#include "gpu/kernels.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

BuildReport fused_cluster(const std::vector<cudasim::Device*>& devices,
                          const GridIndex& index, float eps,
                          StreamingDbscan& consumer,
                          const BatchPolicy& policy) {
  TRACE_SPAN("fused", "fused_cluster n=%zu", index.size());
  if (devices.empty()) {
    throw std::invalid_argument("fused_cluster: no devices");
  }
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
  const ScanMode scan = policy.scan_mode;

  // Upload only what the backend traverses. There is no estimation kernel
  // — with no result buffers there is nothing to size — which is also why
  // the BVH backend skips the grid upload here, unlike the table builder.
  BatchEngine engine(devices, index, policy, "fused", /*upload_grid=*/false);
  engine.open_lanes();

  // Enough strided batches that every lane gets two waves — failover
  // granularity and stream overlap without per-batch buffer planning. A
  // fused launch allocates nothing and cannot overflow, so the step has
  // no split and the ladder has no shrink rung.
  const auto num_batches =
      static_cast<std::uint32_t>(engine.lanes().size() * 2);
  report.plan.num_batches = num_batches;
  const std::vector<WorkItem> unfinished = engine.run(
      num_batches,
      [&](Lane& lane, WorkItem& item) {
        const gpu::BatchSpec spec = item.spec;
        if (spec.points_in_batch(lane.views.grid.query_count()) == 0) return;
        TRACE_SPAN("fused", "fused_batch %u/%u d%u", spec.batch,
                   spec.num_batches, lane.device.id());
        lane.launch([&](const auto& view) {
          return gpu::run_fused_batch(lane.device, view, eps, spec, consumer,
                                      scan, policy.block_size);
        });
        ++lane.batches_run;
      },
      report);

  // The host rung: unfinished strided batches run the fused body itself
  // on the host, over the same index the devices traversed, so the
  // pair-ownership rule is the kernels' by construction. Edges it parks
  // never crossed PCIe, so they are kept out of the transfer charge.
  std::uint64_t host_parked = 0;
  report.used_host_fallback = !unfinished.empty();
  for (const WorkItem& item : unfinished) {
    check_cancel(policy.cancel);
    TRACE_SPAN("host", "fused_host_fallback %u/%u", item.spec.batch,
               item.spec.num_batches);
    const std::uint64_t parked_before = consumer.stats().fused_parked;
    engine.host_views().visit([&](const auto& view) {
      gpu::host_fused_batch(view, eps, item.spec, consumer, scan);
    });
    host_parked += consumer.stats().fused_parked - parked_before;
    ++report.host_fallback_batches;
  }
  const double slowest_stream = engine.harvest(report);

  // The only result bytes that cross PCIe are the parked (undecided)
  // edges; they ride the pinned staging path like every other result
  // transfer and are charged to the serial share — each flush is tiny and
  // asynchronous on real hardware, so billing them once at the end is the
  // conservative bound.
  double modeled_fixed = engine.upload_seconds();
  const StreamingDbscan::Stats& st = consumer.stats();
  const std::uint64_t parked_bytes =
      (st.fused_parked - host_parked) * sizeof(NeighborPair);
  report.d2h_bytes = parked_bytes;
  if (parked_bytes != 0 && !engine.lanes().empty()) {
    modeled_fixed += cudasim::modeled_transfer_seconds(
        engine.config(), parked_bytes, /*pinned=*/true);
  }
  report.total_pairs = st.edges_seen;
  report.shard_fixed_seconds = modeled_fixed;
  report.shard_stream_seconds = slowest_stream;
  report.modeled_table_seconds = modeled_fixed + slowest_stream;
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

}  // namespace hdbscan
