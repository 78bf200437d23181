#include "core/reuse.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/timer.hpp"
#include "core/neighbor_table_builder.hpp"
#include "dbscan/dbscan_parallel.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

ReuseReport cluster_minpts_sweep(cudasim::Device& device,
                                 std::span<const Point2> points, float eps,
                                 std::span<const int> minpts_values,
                                 unsigned num_threads,
                                 const BatchPolicy& policy,
                                 std::vector<ClusterResult>* results) {
  ReuseReport report;
  report.eps = eps;
  report.variant_seconds.assign(minpts_values.size(), 0.0);
  report.variant_clusters.assign(minpts_values.size(), 0);
  report.outcomes.assign(minpts_values.size(), {});
  if (results != nullptr) results->assign(minpts_values.size(), {});

  WallTimer total_timer;

  // An invalid minpts among valid ones is recorded in its outcome and
  // left out; its siblings still run. A sweep with no valid value throws.
  std::vector<int> valid;
  std::vector<std::size_t> slot;
  for (std::size_t i = 0; i < minpts_values.size(); ++i) {
    if (minpts_values[i] < 1) {
      report.outcomes[i].ok = false;
      report.outcomes[i].error = "cluster_minpts_sweep: minpts must be >= 1";
    } else {
      valid.push_back(minpts_values[i]);
      slot.push_back(i);
    }
  }
  if (!minpts_values.empty() && valid.empty()) {
    throw std::invalid_argument(report.outcomes.front().error);
  }

  // Phase 1: one neighbor table build for this eps.
  TRACE_SPAN("reuse", "minpts_sweep eps=%.3f k=%zu",
             static_cast<double>(eps), minpts_values.size());
  WallTimer table_timer;
  WallTimer index_timer;
  const GridIndex index = build_grid_index(points, eps);
  const double index_s = index_timer.seconds();
  NeighborTableBuilder builder(device, policy);
  BuildReport build_report;
  const NeighborTable table = builder.build(index, eps, &build_report);
  report.table_seconds = table_timer.seconds();
  report.modeled_table_seconds =
      index_s + build_report.modeled_table_seconds;

  // Phase 2: every valid minpts from the one build — one banded
  // union-find pass over the shared table.
  WallTimer dbscan_timer;
  std::vector<double> seconds(valid.size(), 0.0);
  std::vector<ClusterResult> clustered =
      dbscan_parallel(table, valid, std::max(1u, num_threads),
                      index.original_ids, seconds);
  for (std::size_t j = 0; j < valid.size(); ++j) {
    report.variant_seconds[slot[j]] = seconds[j];
    report.variant_clusters[slot[j]] = clustered[j].num_clusters;
    if (results != nullptr) (*results)[slot[j]] = std::move(clustered[j]);
  }

  report.dbscan_wall_seconds = dbscan_timer.seconds();
  report.total_seconds = total_timer.seconds();
  return report;
}

}  // namespace hdbscan
