// Table II / Scenario S1: kernel efficiency of GPUCalcGlobal vs
// GPUCalcShared — single kernel invocation per cell, no transfer overheads.
//
// Paper shape: GPUCalcGlobal wins on every dataset; GPUCalcShared launches
// far more threads (nGPU = non-empty cells x block size) and loses the
// most on uniformly distributed (SDSS-) data and small eps, where
// block-per-cell overhead dominates. We report the cost-model GPU time
// (this host has no GPU; see DESIGN.md) plus raw work counters.
#include <cstdio>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "core/estimator.hpp"
#include "gpu/device_index.hpp"
#include "gpu/kernels.hpp"
#include "gpu/result_sink.hpp"
#include "index/grid_index.hpp"
#include "scenarios.hpp"

int main() {
  using namespace hdbscan;
  bench::banner("Table II — kernel efficiency (S1)",
                "Table II (paper: global wins; shared worst on uniform data)");

  std::printf("\n%-8s %6s | %12s %14s | %12s %14s | %7s\n", "Dataset", "eps",
              "global (ms)", "global nGPU", "shared (ms)", "shared nGPU",
              "ratio");

  for (const auto& [name, eps] : bench::scenario_s1()) {
    const auto points = bench::load(name);
    const GridIndex index = build_grid_index(points, eps);

    cudasim::Device device = bench::make_device();
    cudasim::Stream stream(device);
    gpu::GridDeviceIndex device_index(device, stream, index);

    // Size the sink from an exact census so neither kernel overflows.
    const auto est =
        estimate_result_size(device, device_index.view(), eps, 1.0);
    gpu::ResultSetDevice sink(device, est.estimated_total + 1024);

    const auto global_stats = gpu::run_calc_global(
        device, device_index.view(), eps, {}, sink.view());
    sink.reset();
    const auto shared_stats = gpu::run_calc_shared(
        device, device_index.view(), device_index.schedule(),
        device_index.num_nonempty_cells(), eps, sink.view());

    std::printf("%-8s %6.2f | %12.3f %14s | %12.3f %14s | %6.1fx\n",
                name.c_str(), eps, global_stats.modeled_seconds * 1e3,
                format_count(global_stats.threads).c_str(),
                shared_stats.modeled_seconds * 1e3,
                format_count(shared_stats.threads).c_str(),
                shared_stats.modeled_seconds / global_stats.modeled_seconds);
  }
  std::printf(
      "\nExpected shape (paper): shared/global ratio > 1 everywhere;"
      " largest on the\nuniform SDSS- datasets (paper: 143%% slower on SW4,"
      " 2023%% slower on SDSS2).\nTimes are modeled Tesla-K20c seconds"
      " from counted work (no physical GPU).\n");
  return 0;
}
