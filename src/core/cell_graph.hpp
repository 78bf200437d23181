// Cell-graph DBSCAN (ClusterQuality::kCellGraph): re-bin the data into
// cells of side eps/sqrt(d) — small enough that any two points sharing a
// cell are within eps of each other — and exploit two consequences:
//
//   * a cell holding >= minpts points makes every resident a core point
//     for free (its same-cell degree alone clears the threshold), and one
//     union chains the whole cell into a single component: O(1) unions
//     per dense cell instead of O(pairs);
//   * only points in *sparse* cells (and the boundaries between cells)
//     ever need distance tests, so the distance work collapses from
//     O(neighbor pairs) to O(cells + boundary pairs) on clustered data.
//
// Points are counting-sorted into cell order next to a sorted array of
// occupied-cell keys, so each row of the 5^d stencil is one contiguous
// run of points, its x reach set by the cells' min-distance prune.
// Dense-dense cell adjacency resolves with an early-exit bichromatic
// "any pair within eps?" probe; sparse points count neighbors over the
// stencil until they reach minpts. Core status and core-core
// connectivity are therefore *exact*; only border assignment — which is
// visit-order dependent in DBSCAN's own definition — uses a deterministic
// smallest-core-id rule, so labels are stable across runs.
//
// The report carries a modeled execution time on the reference device
// (the same DeviceConfig cost model the traversal kernels use: global
// bytes vs FLOPs roofline + serialized atomics per union), which is what
// the quality-frontier bench compares against the exact pipelines.
#pragma once

#include <cstdint>
#include <span>

#include "cudasim/config.hpp"
#include "dbscan/cluster_result.hpp"

namespace hdbscan {

struct CellGraphReport {
  std::uint64_t num_cells = 0;        ///< occupied eps/sqrt(d) cells
  std::uint64_t dense_cells = 0;      ///< cells with >= minpts residents
  std::uint64_t dense_points = 0;     ///< points made core wholesale
  std::uint64_t distance_tests = 0;   ///< boundary + sparse-degree tests
  std::uint64_t unions = 0;           ///< union-find unites performed
  double modeled_seconds = 0.0;       ///< reference-device execution model
};

/// 2-D cell-graph DBSCAN. Labels are in input order (no index reordering
/// applies — the binning is internal). `config` prices the modeled time.
/// Throws std::invalid_argument when the extent is not finite or needs
/// more than 2^21 cells on an axis (the packed cell key's field; 2^22 on
/// the 3-D z axis).
ClusterResult cell_graph_dbscan(std::span<const Point2> points, float eps,
                                int minpts,
                                const cudasim::DeviceConfig& config,
                                CellGraphReport* report = nullptr);

/// 3-D: side eps/sqrt(3), 5x5x5 stencil; otherwise identical.
ClusterResult cell_graph_dbscan(std::span<const Point3> points, float eps,
                                int minpts,
                                const cudasim::DeviceConfig& config,
                                CellGraphReport* report = nullptr);

/// The share of `points` that cell_graph_dbscan at (eps, minpts) makes core
/// wholesale, with no distance test: those whose eps/sqrt(2) cell holds
/// minpts or more of them (its report's dense_points / n; 0 for no
/// points). The cell graph is cheap exactly when this share is high, so a
/// caller can choose it over the traversal before running either. Bins
/// the points as the clustering does, O(n + cells per axis), and throws
/// what it throws for an eps, minpts or extent it cannot bin.
[[nodiscard]] double cell_graph_dense_share(std::span<const Point2> points,
                                            float eps, int minpts);

}  // namespace hdbscan
