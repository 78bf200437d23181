// Figure 5 / Scenario S3: response time vs number of host threads when one
// neighbor table (fixed eps) is reused for 16 minpts variants.
//
// Paper shape: strong drop from 1 to ~8 threads, flattening after;
// speedups 4.4-6.1x (SW1) and 2.9-5.1x (SDSS1) at 16 threads.
//
// Two rows of numbers per thread count:
//  * the paper's scheme (baseline): T is built once, the 16 Alg. 4 runs
//    (dbscan_neighbor_table) are timed one after another, and the k-thread
//    time is the greedy makespan of those measured durations — modeled;
//  * this repo's sweep (cluster_minpts_sweep): one banded union-find pass
//    over T for the whole list, its clustering phase measured on k
//    workers. Thread counts above this host's CPUs are not measured.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/makespan.hpp"
#include "core/neighbor_table_builder.hpp"
#include "core/reuse.hpp"
#include "dbscan/dbscan.hpp"
#include "index/grid_index.hpp"
#include "scenarios.hpp"

int main() {
  using namespace hdbscan;
  bench::banner("Figure 5 — response time vs threads, reusing T (S3)",
                "Fig. 5 (paper: 2.9-6.1x from 16 threads)");

  const unsigned thread_counts[] = {1, 2, 4, 8, 12, 16};
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());

  for (const auto& scenario : bench::scenario_s3()) {
    // Figure 5 plots SW1, SW4, SDSS1 and SDSS3 only (SDSS2 omitted there).
    if (scenario.dataset == "SDSS2") continue;
    const auto points = bench::load(scenario.dataset);
    cudasim::Device device = bench::make_device();

    // The paper's scheme: one T, then one Alg. 4 run per minpts.
    WallTimer index_timer;
    const GridIndex index = build_grid_index(points, scenario.eps);
    const double index_s = index_timer.seconds();
    BuildReport build_report;
    const NeighborTable table =
        NeighborTableBuilder(device).build(index, scenario.eps, &build_report);
    std::vector<double> alg4_seconds;
    for (const int minpts : scenario.minpts_values) {
      WallTimer timer;
      (void)dbscan_neighbor_table(table, minpts);
      alg4_seconds.push_back(timer.seconds());
    }

    std::printf("\n  [%s eps=%.2f]  T build (modeled): %.3f s, %zu variants\n",
                scenario.dataset.c_str(), scenario.eps,
                index_s + build_report.modeled_table_seconds,
                scenario.minpts_values.size());
    std::printf("  %8s | %16s %9s | %16s %9s\n", "threads",
                "paper scheme (s)", "speedup", "banded pass (s)", "speedup");
    double paper_1 = 0.0;
    double banded_1 = 0.0;
    for (const unsigned k : thread_counts) {
      const double paper_s = makespan_seconds(alg4_seconds, k);
      if (k == 1) paper_1 = paper_s;
      std::printf("  %8u | %16.4f %8.2fx | ", k, paper_s, paper_1 / paper_s);
      if (k > host_cpus) {
        std::printf("%16s %9s\n", "not measured", "-");
        continue;
      }
      const ReuseReport report = cluster_minpts_sweep(
          device, points, scenario.eps, scenario.minpts_values, k);
      if (k == 1) banded_1 = report.dbscan_wall_seconds;
      std::printf("%16.4f %8.2fx\n", report.dbscan_wall_seconds,
                  banded_1 / report.dbscan_wall_seconds);
    }
  }
  std::printf(
      "\n'paper scheme' = modeled: the k-worker makespan of 16 measured"
      " Alg. 4 runs over\none T (the paper's one-thread-per-minpts"
      " reuse). 'banded pass' = measured: the\nsweep's clustering phase"
      " (dbscan_wall_seconds), one union-find pass for the\nwhole list on"
      " k pool workers; counts above this host's %u CPUs are not\n"
      "measured. Expected shape: the paper scheme drops near-linearly to"
      " ~8 threads\nand flattens; the banded pass starts below it, since"
      " each row of T is walked\nonce for the whole list.\n",
      host_cpus);
  return 0;
}
