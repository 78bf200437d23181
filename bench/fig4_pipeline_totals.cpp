// Figure 4 + Table IV / Scenario S2: total response time of
//   (a) the reference implementation run per variant,
//   (b) non-pipelined HYBRID-DBSCAN (variants back to back),
//   (c) pipelined HYBRID-DBSCAN (T construction of v_{i+1} overlaps
//       DBSCAN of v_i),
// over each dataset's full S2 variant set.
//
// Paper shape: pipelined 1.42-1.66x over non-pipelined and 3.36-5.13x over
// the reference, growing with dataset size (largest on SDSS3).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/makespan.hpp"
#include "core/pipeline.hpp"
#include "dbscan/dbscan.hpp"
#include "index/rtree.hpp"
#include "scenarios.hpp"

int main() {
  using namespace hdbscan;
  bench::banner(
      "Figure 4 + Table IV — multi-clustering pipeline totals (S2)",
      "Fig. 4 / Table IV (paper: pipelined 1.42-1.66x vs non-pipelined, "
      "3.36-5.13x vs reference)");

  std::printf("\n%-8s %10s %14s %12s | %11s %11s\n", "Dataset", "ref (s)",
              "non-pipe (s)", "pipe (s)", "pipe/ref", "pipe/nonp");

  for (const auto& scenario : bench::scenario_s2()) {
    const auto points = bench::load(scenario.dataset);
    std::vector<Variant> variants;
    for (const float eps : scenario.eps_values) {
      variants.push_back({eps, scenario.minpts});
    }

    // (a) reference: one sequential run per variant over a shared R-tree
    // (index construction excluded, as in the paper).
    const RTree rtree(points);
    WallTimer ref_timer;
    for (const Variant& v : variants) {
      (void)dbscan_rtree(points, v.eps, v.minpts, rtree);
    }
    const double ref_s = ref_timer.seconds();

    cudasim::Device device = bench::make_device();

    // (b)+(c): run the pipelined code path once (exercises the real
    // producer/consumer machinery and collects per-variant phase times),
    // then compose the modeled totals: device-side work uses the K20c
    // cost model, host-side DBSCAN is the measured time.
    PipelineOptions pipe_opts;
    pipe_opts.pipelined = true;
    pipe_opts.cluster_mode = ClusterMode::kBatchTable;  // the paper's T
    const PipelineReport pipe =
        run_multi_clustering(device, points, variants, pipe_opts);

    std::vector<double> produce, consume;
    double nonpipe_s = 0.0;  // back-to-back: sum of both phases
    for (const VariantTiming& t : pipe.variants) {
      produce.push_back(t.modeled_table_seconds);
      consume.push_back(t.dbscan_seconds);
      nonpipe_s += t.modeled_table_seconds + t.dbscan_seconds;
    }
    const double pipe_s =
        pipeline_makespan_seconds(produce, consume, pipe_opts.num_consumers);

    std::printf("%-8s %10.2f %14.2f %12.2f | %10.2fx %10.2fx   (wall %.2f)\n",
                scenario.dataset.c_str(), ref_s, nonpipe_s, pipe_s,
                ref_s / pipe_s, nonpipe_s / pipe_s, pipe.total_seconds);
  }
  std::printf(
      "\nDevice-side work uses the K20c cost model; DBSCAN-over-T is"
      " measured host time;\n'pipe' overlaps T construction of v_{i+1} with"
      " DBSCAN of v_i (3 consumers), as in\nthe paper. 'wall' is the"
      " single-core simulator wall time. Expected shape:\npipe < non-pipe <"
      " ref (paper: 1.42-1.66x and 3.36-5.13x), gap widest on SDSS3.\n");
  return 0;
}
