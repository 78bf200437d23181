// Figure 6 / Scenario S3: speedup of HYBRID-DBSCAN reusing a single
// neighbor table over the reference implementation clustering each of the
// 16 minpts variants individually.
//
// Paper shape: 27x-54x across the Table V rows with 16 threads — the
// headline result. Here the hybrid side is the modeled T build plus the
// measured clustering phase: one banded union-find pass for the whole
// list, on up to 16 workers (as many as this host has CPUs).
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "core/reuse.hpp"
#include "dbscan/dbscan.hpp"
#include "index/rtree.hpp"
#include "scenarios.hpp"

int main() {
  using namespace hdbscan;
  bench::banner("Figure 6 — reuse speedup vs reference (S3)",
                "Fig. 6 (paper: 27x-54x with 16 threads and one T per eps)");

  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
  std::printf("\n%-8s %6s | %12s %14s | %10s\n", "Dataset", "eps", "ref (s)",
              "hybrid (s)", "speedup");

  std::string cached_name;
  std::vector<Point2> points;
  double grand_ref = 0.0, grand_hybrid = 0.0;
  for (const auto& scenario : bench::scenario_s3()) {
    if (scenario.dataset != cached_name) {
      points = bench::load(scenario.dataset);
      cached_name = scenario.dataset;
    }

    // Reference: one full sequential run per minpts value (the index
    // searches repeat identically each time — exactly the waste the reuse
    // scheme removes).
    const RTree rtree(points);
    WallTimer ref_timer;
    for (const int minpts : scenario.minpts_values) {
      (void)dbscan_rtree(points, scenario.eps, minpts, rtree);
    }
    const double ref_s = ref_timer.seconds();

    // Hybrid: T once (modeled), then one banded pass for all 16 variants
    // (measured on `workers` pool workers).
    cudasim::Device device = bench::make_device();
    const ReuseReport report = cluster_minpts_sweep(
        device, points, scenario.eps, scenario.minpts_values, workers);
    const double hybrid_s =
        report.modeled_table_seconds + report.dbscan_wall_seconds;

    grand_ref += ref_s;
    grand_hybrid += hybrid_s;
    std::printf("%-8s %6.2f | %12.2f %14.3f | %9.1fx\n",
                scenario.dataset.c_str(), scenario.eps, ref_s, hybrid_s,
                ref_s / hybrid_s);
  }
  std::printf("%-8s %6s | %12.2f %14.3f | %9.1fx\n", "TOTAL", "", grand_ref,
              grand_hybrid, grand_ref / grand_hybrid);
  std::printf(
      "\n'hybrid' = one T build (modeled) + the sweep's clustering phase"
      " (measured: one\nbanded union-find pass for the whole list on %u"
      " workers). 'ref' is measured.\nExpected shape: tens-fold speedups"
      " (paper: 27x-54x), largest where the\neps-neighborhoods are big and"
      " the R-tree re-search cost high.\n",
      workers);
  return 0;
}
