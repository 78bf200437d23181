// Data-reuse scheme (paper §VII-F / scenario S3).
//
// The neighbor table depends only on eps, so for a fixed eps and a sweep
// over minpts, T is computed once and serves every value. The paper runs
// one DBSCAN per minpts, each on its own thread; here core sets nest
// across minpts, so one banded union-find pass over T (dbscan_parallel)
// answers the whole list on the shared pool, walking each row of T once.
// (This is the opposite knob to OPTICS, which fixes minpts and sweeps
// eps.)
#pragma once

#include <span>
#include <vector>

#include "core/batch_planner.hpp"
#include "core/pipeline.hpp"
#include "cudasim/device.hpp"
#include "dbscan/cluster_result.hpp"

namespace hdbscan {

struct ReuseReport {
  float eps = 0.0f;
  double table_seconds = 0.0;   ///< index build + T construction (once)
  /// Index build + modeled T construction (reference-hardware GPU model).
  double modeled_table_seconds = 0.0;
  double dbscan_wall_seconds = 0.0;  ///< clustering phase, wall time
  double total_seconds = 0.0;
  /// Worker seconds per minpts value (indexed like the input; 0 for an
  /// invalid value): the seconds spent on the value's band of the banded
  /// pass, summed over workers, plus an even share of the pass's shared
  /// work, so sum / (threads x dbscan_wall_seconds) is the phase's
  /// parallel efficiency. The bands are steps of one pass, not
  /// independent tasks.
  std::vector<double> variant_seconds;
  std::vector<std::int32_t> variant_clusters;
  /// Per-minpts outcome: a failing variant (e.g. an invalid minpts among
  /// valid ones) is recorded here and no longer aborts its siblings; the
  /// first error is rethrown only when every variant failed.
  std::vector<VariantOutcome> outcomes;
};

/// Builds T once for `eps`, then clusters every minpts value with one
/// banded dbscan_parallel pass over it, on at most `num_threads` workers
/// of the shared pool. Labels (input order) are written to `results` when
/// non-null.
ReuseReport cluster_minpts_sweep(cudasim::Device& device,
                                 std::span<const Point2> points, float eps,
                                 std::span<const int> minpts_values,
                                 unsigned num_threads,
                                 const BatchPolicy& policy = {},
                                 std::vector<ClusterResult>* results = nullptr);

}  // namespace hdbscan
