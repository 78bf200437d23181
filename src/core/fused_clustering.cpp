#include "core/fused_clustering.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/timer.hpp"
#include "core/batch_engine.hpp"
#include "core/report_metrics.hpp"
#include "gpu/kernels.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

template <typename Point>
BuildReport fused_cluster(const std::vector<cudasim::Device*>& devices,
                          const BasicGridIndex<Point>& index, float eps,
                          StreamingDbscan& consumer,
                          const BatchPolicy& policy) {
  TRACE_SPAN("fused", "fused_cluster n=%zu", index.size());
  if (devices.empty()) throw std::invalid_argument("fused_cluster: no devices");
  for (const cudasim::Device* d : devices) {
    if (d == nullptr) throw std::invalid_argument("fused_cluster: null device");
  }
  if (consumer.num_points() != index.size()) {
    throw std::invalid_argument(
        "fused_cluster: consumer id space does not match the index");
  }
  check_cancel(policy.cancel);
  WallTimer total_timer;
  BuildReport report;
  report.fused = true;
  report.table_materialized = false;
  report.scan_mode = policy.scan_mode;

  // There is no estimation kernel — with no result buffers there is
  // nothing to size. The union pass walks a 2-D grid's sub-cell runs,
  // which go up with it.
  SubCells sub_cells;
  if constexpr (std::is_same_v<Point, Point2>) {
    TRACE_SPAN("fused", "sub_cells n=%zu", index.size());
    sub_cells = build_sub_cells(index);
  }
  BatchEngine<Point> engine(devices, index, policy, "fused", &sub_cells);
  engine.open_lanes();

  // Two waves per lane and pass — failover granularity and stream overlap
  // without buffer planning. A launch allocates no device memory and
  // cannot overflow, so no step splits and the ladder has no shrink rung.
  const auto num_batches =
      static_cast<std::uint32_t>(engine.lanes().size() * 2);
  report.plan.num_batches = num_batches;

  // One pass: its batches on the lanes under the engine's ladder, then
  // what no device finished through the pass's body on the host pool over
  // the index the devices traversed (one ownership rule). A pass starts
  // once the one before it finished on every batch, on a device or on the
  // host. A launch either ran all its blocks or none (faults fire first),
  // so each batch adds its events once. Returns the pass's events.
  auto run_pass = [&](gpu::FusedPass pass) {
    static constexpr const char* kNames[] = {"core", "mark", "recount",
                                             "union"};
    const char* name = kNames[static_cast<unsigned>(pass)];
    std::atomic<std::uint64_t> events{0};
    std::vector<WorkItem> unfinished = engine.run(
        num_batches,
        [&](Lane<Point>& lane, WorkItem& item) {
          if (item.spec.points_in_batch(lane.view.num_points) == 0) {
            return;
          }
          TRACE_SPAN("fused", "%s_batch %u/%u d%u", name, item.spec.batch,
                     item.spec.num_batches, lane.device.id());
          events += lane.launch([&](const auto& view) {
                          return gpu::run_fused_batch(
                              lane.device, view, eps, item.spec, pass,
                              consumer, policy.scan_mode, policy.block_size);
                        })
                        .work.events;
          ++lane.batches_run;
        },
        report);
    report.used_host_fallback |= !unfinished.empty();
    for (WorkItem& item : unfinished) {
      check_cancel(policy.cancel);
      TRACE_SPAN("host", "fused_host_%s %u/%u", name, item.spec.batch,
                 item.spec.num_batches);
      events += gpu::host_fused_batch(engine.host_view(), eps, item.spec,
                                      pass, consumer, policy.scan_mode)
                    .events;
      ++report.host_fallback_batches;
    }
    return events.load();
  };

  // The capped core pass, then exact degrees for exactly the cores the
  // border rule reads: the mark pass has work only when some point may be
  // a border (2 <= degree < minpts, below the cap, so exact), and the
  // recount pass only when the mark pass flagged a core.
  report.capped_points = run_pass(gpu::FusedPass::kCore);
  const auto minpts = static_cast<std::uint32_t>(consumer.minpts());
  bool may_border = false;
  for (PointId i = 0; i < index.size() && !may_border; ++i) {
    const std::uint32_t degree = consumer.degree(i);
    may_border = degree >= 2 && degree < minpts;
  }
  if (may_border && run_pass(gpu::FusedPass::kMark) > 0) {
    report.recounted_points = run_pass(gpu::FusedPass::kRecount);
  }
  report.dense_runs = run_pass(gpu::FusedPass::kUnion);

  // Every modeled term is counted: the index upload and the lanes' kernel
  // timelines. No result byte crosses the bus (d2h_bytes stays 0).
  const double slowest_stream = engine.harvest(report);
  report.fixed_seconds = engine.upload_seconds();
  report.stream_seconds = slowest_stream;
  report.modeled_table_seconds = report.fixed_seconds + slowest_stream;
  report.table_seconds = total_timer.seconds();
  publish_build_report(report, policy.metrics_labels);
  return report;
}

FusedDegrees expected_fused_degrees(const NeighborTable& table,
                                    int minpts) {
  const auto required = static_cast<std::uint32_t>(minpts);
  const std::uint32_t cap = std::max(required, 2u);
  FusedDegrees out;
  out.degree.resize(table.num_points());
  for (PointId i = 0; i < table.num_points(); ++i) {
    const std::uint32_t degree = table.neighbor_count(i);
    bool flagged = false;
    if (degree >= required) {
      for (const PointId j : table.neighbors(i)) {
        flagged = flagged || table.neighbor_count(j) < required;
      }
    }
    out.degree[i] = degree < cap || flagged ? degree : cap;
    out.capped_points += degree >= cap;
    out.recounted_points += flagged;
  }
  return out;
}

template BuildReport fused_cluster(const std::vector<cudasim::Device*>&,
                                   const GridIndex&, float, StreamingDbscan&,
                                   const BatchPolicy&);
template BuildReport fused_cluster(const std::vector<cudasim::Device*>&,
                                   const GridIndex3&, float, StreamingDbscan&,
                                   const BatchPolicy&);

}  // namespace hdbscan
