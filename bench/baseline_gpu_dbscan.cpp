// Baseline comparison: HYBRID-DBSCAN vs in-GPU clustering (the
// CUDA-DClust / G-DBSCAN / Mr. Scan family the paper positions against,
// §II-B: "subclusters are formed and then are merged to form the final
// clusters").
//
// The in-GPU baseline transfers only labels (tiny D2H) but must re-run its
// whole pipeline for every parameter variant; HYBRID-DBSCAN ships the full
// neighbor list once per eps and then reuses it across minpts and pipelines
// across eps — the throughput argument of §III. Both sides use the same
// cost model for device work and measured host times elsewhere.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "core/hybrid_dbscan.hpp"
#include "core/reuse.hpp"
#include "gpu/gpu_dbscan.hpp"
#include "index/grid_index.hpp"
#include "scenarios.hpp"

int main() {
  using namespace hdbscan;
  bench::banner("Baseline — in-GPU DBSCAN vs HYBRID-DBSCAN",
                "paper §II-B/§III (throughput across variants)");

  const std::vector<int> minpts_sweep{10, 20,  30,  40,  50,   60,   70,  80,
                                      90, 100, 200, 400, 800, 1000, 2000, 3000};

  for (const char* name : {"SW1", "SDSS1", "SDSS3"}) {
    const auto points = bench::load(name);
    const float eps = name == std::string("SDSS3") ? 0.11f : 0.5f;
    const GridIndex index = build_grid_index(points, eps);

    // --- single variant ---
    cudasim::Device device_a = bench::make_device();
    gpu::GpuDbscanReport gpu_report;
    const ClusterResult in_gpu =
        gpu::gpu_dbscan(device_a, index, eps, 4, &gpu_report);

    cudasim::Device device_b = bench::make_device();
    HybridTimings hybrid_t;
    const ClusterResult hybrid =
        hybrid_dbscan(device_b, points, eps, 4, &hybrid_t);

    std::printf("\n  [%s eps=%.2f]  single variant (minpts=4):\n", name, eps);
    std::printf("    in-GPU DBSCAN:  %7.3f s modeled (%u propagation iters,"
                " D2H %s)\n",
                gpu_report.modeled_seconds, gpu_report.propagation_iterations,
                format_bytes(gpu_report.d2h_bytes).c_str());
    std::printf("    HYBRID-DBSCAN:  %7.3f s modeled (D2H %s of pairs)\n",
                hybrid_t.modeled_total_seconds,
                format_bytes(hybrid_t.build_report.total_pairs *
                             sizeof(NeighborPair))
                    .c_str());
    std::printf("    clusters: %d vs %d\n", in_gpu.num_clusters,
                hybrid.num_clusters);

    // --- 16-variant minpts sweep (scenario S3's workload) ---
    double gpu_sweep_s = 0.0;
    cudasim::Device device_c = bench::make_device();
    for (const int minpts : minpts_sweep) {
      gpu::GpuDbscanReport r;
      (void)gpu::gpu_dbscan(device_c, index, eps, minpts, &r);
      gpu_sweep_s += r.modeled_seconds;
    }

    // One T (modeled) plus the measured banded pass over it on up to 16
    // host workers.
    const unsigned workers =
        std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
    cudasim::Device device_d = bench::make_device();
    const ReuseReport reuse =
        cluster_minpts_sweep(device_d, points, eps, minpts_sweep, workers);
    const double hybrid_sweep_s =
        reuse.modeled_table_seconds + reuse.dbscan_wall_seconds;

    std::printf("  16-variant minpts sweep:\n");
    std::printf("    in-GPU DBSCAN:  %7.3f s (re-runs everything per"
                " variant)\n", gpu_sweep_s);
    std::printf("    HYBRID reuse:   %7.3f s (one T + one banded pass, %u"
                " host workers)  -> %.1fx\n",
                hybrid_sweep_s, workers, gpu_sweep_s / hybrid_sweep_s);
  }
  std::printf(
      "\nExpected shape: the in-GPU baseline wins single variants (tiny"
      " label-only\nD2H), and its edge shrinks or flips on the minpts sweep"
      " where HYBRID-DBSCAN\nreuses one T across all 16 variants — most"
      " clearly on the skewed SW- data,\nwhere label propagation needs"
      " several times more iterations. The baseline's\niteration count is"
      " data-dependent and it can reuse nothing across eps, which\nis the"
      " paper's broader throughput argument for the hybrid design.\n");
  return 0;
}
