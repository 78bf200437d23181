// Ablation: the paper's future-work kernel split — "combine the two
// approaches such that GPUCalcShared processes the dense regions of a
// dataset and GPUCalcGlobal processes the remainder" (§VII-C).
//
// Cells with occupancy >= threshold go to the shared (block-per-cell)
// kernel; the remaining points go to a global-memory kernel that skips
// dense-cell points. We verify the union covers exactly the full result
// and compare modeled GPU times.
#include <array>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "core/estimator.hpp"
#include "cudasim/kernel.hpp"
#include "gpu/device_index.hpp"
#include "gpu/kernels.hpp"
#include "gpu/result_sink.hpp"
#include "index/grid_index.hpp"

namespace {

using namespace hdbscan;

/// GPUCalcGlobal restricted to points whose home cell is NOT dense.
struct SparseOnlyKernelBody {
  GridView view;
  float eps2;
  const std::uint8_t* dense_cell;
  gpu::ResultSinkView sink;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i = ctx.global_id();
    if (i >= view.num_points) return;
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2));
    const std::uint32_t home = view.params.linear_cell(point);
    if (dense_cell[home] != 0) return;  // covered by the shared kernel
    std::array<std::uint32_t, 9> cells{};
    const unsigned n = get_neighbor_cells(view.params, home, cells);
    for (unsigned c = 0; c < n; ++c) {
      const CellRange range = view.cells[cells[c]];
      ctx.count_global_bytes(sizeof(CellRange) +
                             std::uint64_t(range.count()) * sizeof(Point2));
      ctx.count_flops(std::uint64_t(range.count()) * 6);
      for (PointId candidate = range.begin; candidate < range.end;
           ++candidate) {
        if (dist2(point, view.points[candidate]) <= eps2) {
          sink.push({static_cast<PointId>(i), candidate}, ctx);
        }
      }
    }
  }
};

}  // namespace

int main() {
  bench::banner("Ablation — hybrid dense/sparse kernel split",
                "paper §VII-C / §VIII future work");

  for (const char* name : {"SW1", "SDSS1"}) {
    const auto points = bench::load(name);
    const float eps = 0.5f;
    const GridIndex index = build_grid_index(points, eps);

    cudasim::Device device = bench::make_device();
    cudasim::Stream stream(device);
    gpu::GridDeviceIndex dev_index(device, stream, index);
    const GridView view = dev_index.view();

    const auto est = estimate_result_size(device, view, eps, 1.0);
    const std::uint64_t cap = est.estimated_total + 1024;

    // Baselines.
    gpu::ResultSetDevice sink(device, cap);
    const auto global_all =
        gpu::run_calc_global(device, view, eps, {}, sink.view());
    const std::uint64_t expected_pairs = sink.count();
    sink.reset();
    const auto shared_all = gpu::run_calc_shared(
        device, view, index.nonempty_cells.data(),
        static_cast<std::uint32_t>(index.nonempty_cells.size()), eps,
        sink.view());

    std::printf("\n  [%s eps=%.2f]  max cell occupancy = %u\n", name, eps,
                index.max_cell_occupancy);
    std::printf("  %-22s %12s %14s\n", "variant", "model (ms)", "pairs");
    std::printf("  %-22s %12.3f %14s\n", "global only",
                global_all.modeled_seconds * 1e3,
                format_count(expected_pairs).c_str());
    std::printf("  %-22s %12.3f %14s\n", "shared only",
                shared_all.modeled_seconds * 1e3,
                format_count(sink.count()).c_str());

    for (const std::uint32_t threshold : {16u, 32u, 64u, 128u, 256u}) {
      // Partition the schedule.
      std::vector<std::uint32_t> dense_schedule;
      std::vector<std::uint8_t> dense_mask(index.cells.size(), 0);
      for (const std::uint32_t cell : index.nonempty_cells) {
        if (index.cells[cell].count() >= threshold) {
          dense_schedule.push_back(cell);
          dense_mask[cell] = 1;
        }
      }
      sink.reset();
      double model_ms = 0.0;
      if (!dense_schedule.empty()) {
        const auto s = gpu::run_calc_shared(
            device, view, dense_schedule.data(),
            static_cast<std::uint32_t>(dense_schedule.size()), eps,
            sink.view());
        model_ms += s.modeled_seconds * 1e3;
      }
      const unsigned grid_dim = (view.num_points + 255) / 256;
      const auto g = cudasim::run_flat_kernel(
          device, grid_dim, 256,
          SparseOnlyKernelBody{view, eps * eps, dense_mask.data(),
                               sink.view()});
      model_ms += g.modeled_seconds * 1e3;
      const bool complete = !sink.overflowed() && sink.count() == expected_pairs;
      std::printf("  split @ occupancy %-4u %12.3f %14s %s (%zu dense cells)\n",
                  threshold, model_ms, format_count(sink.count()).c_str(),
                  complete ? "OK " : "MISMATCH", dense_schedule.size());
    }
  }
  std::printf(
      "\nExpected shape: on skewed SW- data a split threshold can approach"
      " or beat\nglobal-only (dense cells amortize their block well); on"
      " uniform SDSS- data\nthe split buys nothing (paper: shared kernel"
      " loses badly there).\n");
  return 0;
}
