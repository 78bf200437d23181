// google-benchmark microbenchmarks for the core primitives: index build,
// point queries (grid vs R-tree), on-device sort, kernels, DBSCAN over a
// neighbor table, the cell-graph pass and the fused passes one by one.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/cell_graph.hpp"
#include "cudasim/buffer.hpp"
#include "cudasim/device.hpp"
#include "cudasim/sort.hpp"
#include "cudasim/stream.hpp"
#include "data/datasets.hpp"
#include "data/generators.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/neighbor_table.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "dbscan/union_find.hpp"
#include "gpu/device_index.hpp"
#include "gpu/kernels.hpp"
#include "gpu/result_sink.hpp"
#include "index/grid_index.hpp"
#include "index/rtree.hpp"

namespace {

using namespace hdbscan;

cudasim::SimulationOptions fast_options() {
  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  return opt;
}

const std::vector<Point2>& bench_points() {
  static const auto points = data::generate_space_weather(
      20000, 7, {.width = 20.0f, .height = 20.0f});
  return points;
}

void BM_GridIndexBuild(benchmark::State& state) {
  const auto points = data::generate_sky_survey(
      static_cast<std::size_t>(state.range(0)), 11,
      {.width = 20.0f, .height = 20.0f});
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_grid_index(points, 0.3f));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GridIndexBuild)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_RTreeBuild(benchmark::State& state) {
  const auto points = data::generate_sky_survey(
      static_cast<std::size_t>(state.range(0)), 12,
      {.width = 20.0f, .height = 20.0f});
  for (auto _ : state) {
    benchmark::DoNotOptimize(RTree(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBuild)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_GridQuery(benchmark::State& state) {
  const auto& points = bench_points();
  const GridIndex index = build_grid_index(points, 0.3f);
  std::vector<PointId> out;
  std::size_t q = 0;
  for (auto _ : state) {
    grid_query(index, index.points[q % index.size()], 0.3f, out);
    benchmark::DoNotOptimize(out.data());
    q += 37;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridQuery);

void BM_RTreeQuery(benchmark::State& state) {
  const auto& points = bench_points();
  const RTree tree(points);
  std::vector<PointId> out;
  std::size_t q = 0;
  for (auto _ : state) {
    out.clear();
    tree.query_circle(points[q % points.size()], 0.3f, out);
    benchmark::DoNotOptimize(out.data());
    q += 37;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeQuery);

void BM_SortByKey(benchmark::State& state) {
  cudasim::Device device({}, fast_options());
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(3);
  std::vector<NeighborPair> pairs(n);
  for (auto& p : pairs) {
    p.key = static_cast<std::uint32_t>(rng());
    p.value = static_cast<std::uint32_t>(rng());
  }
  cudasim::DeviceBuffer<NeighborPair> buf(device, n);
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(pairs.begin(), pairs.end(), buf.unsafe_host_view().begin());
    state.ResumeTiming();
    cudasim::sort_by_key(device, buf, n,
                         [](const NeighborPair& p) { return p.key; });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortByKey)->Arg(100000)->Arg(1000000);

void BM_CalcGlobalKernel(benchmark::State& state) {
  const auto& points = bench_points();
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(points, eps);
  cudasim::Device device({}, fast_options());
  const NeighborTable oracle = build_neighbor_table_host(index, eps);
  gpu::ResultSetDevice sink(device, oracle.total_pairs() + 1024);
  for (auto _ : state) {
    sink.reset();
    gpu::run_calc_global(device, GridView::of(index), eps, {}, sink.view());
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_CalcGlobalKernel);

void BM_DbscanOverTable(benchmark::State& state) {
  const auto& points = bench_points();
  const float eps = 0.3f;
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable table = build_neighbor_table_host(index, eps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dbscan_neighbor_table(table, 4));
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_DbscanOverTable);

void BM_UnionFind(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Xoshiro256 rng(5);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ops(n);
  for (auto& op : ops) {
    op = {static_cast<std::uint32_t>(rng.below(n)),
          static_cast<std::uint32_t>(rng.below(n))};
  }
  for (auto _ : state) {
    UnionFind uf(n);
    for (const auto& [a, b] : ops) uf.unite(a, b);
    benchmark::DoNotOptimize(uf.find(0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UnionFind)->Arg(100000)->Arg(1000000);

/// One cell-graph call on sky-survey points at the service_mix scale
/// (SDSS2's size and domain); args are eps in hundredths and minpts.
void BM_CellGraph(benchmark::State& state) {
  static const auto points = [] {
    const data::DatasetInfo& info = data::dataset_info("SDSS2");
    return data::generate_sky_survey(
        info.default_size, 13, {.width = info.domain, .height = info.domain});
  }();
  const float eps = static_cast<float>(state.range(0)) / 100.0f;
  const int minpts = static_cast<int>(state.range(1));
  const cudasim::DeviceConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell_graph_dbscan(points, eps, minpts, config));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_CellGraph)
    ->ArgsProduct({{15, 30}, {4, 8}})
    ->Unit(benchmark::kMillisecond);

/// The fused passes of one clustering, each as the single batch {0, 1} on
/// one device over the uploaded grid and its sub-cells: the capped core,
/// mark, recount and union (kHalf) passes — each run once, whatever
/// fused_cluster would skip — and, for comparison, the exact count (the
/// count body under kFull: the core pass without the cap) and the union
/// pass over the grid without its sub-cells (`union_scan`, on a second
/// consumer). Counters are per clustering: each pass's wall milliseconds
/// and the candidates it tested (kernel flops / 6, the 2-D distance
/// test). Args: SW4 (0) or SDSS2 (1) sample at its default size, eps in
/// hundredths, minpts. Not a gate.
void BM_FusedPasses(benchmark::State& state) {
  static const auto sw = data::make_dataset("SW4");
  static const auto sdss = data::make_dataset("SDSS2");
  const std::vector<Point2>& points = state.range(0) == 0 ? sw : sdss;
  const float eps = static_cast<float>(state.range(1)) / 100.0f;
  const int minpts = static_cast<int>(state.range(2));
  const GridIndex index = build_grid_index(points, eps);
  const SubCells sub_cells = build_sub_cells(index);
  cudasim::Device device({}, fast_options());
  cudasim::Stream stream(device);
  const gpu::GridDeviceIndex device_index(device, stream, index, &sub_cells);
  const GridView view = device_index.view();
  GridView scan_view = view;
  scan_view.sub_order = nullptr;
  scan_view.sub_bounds = nullptr;

  struct Pass {
    const char* name;
    double seconds = 0.0;
    double tested = 0.0;
  };
  Pass passes[] = {{"exact"}, {"core"},  {"mark"},
                   {"recount"}, {"union"}, {"union_scan"}};
  auto add = [](Pass& pass, const WallTimer& timer,
                const cudasim::KernelStats& stats) {
    pass.seconds += timer.seconds();
    pass.tested += static_cast<double>(stats.work.flops / 6);
  };
  std::vector<std::uint32_t> counts(index.size());
  for (auto _ : state) {
    WallTimer exact_timer;
    const cudasim::KernelStats exact = gpu::run_count_batch(
        device, view, eps, {}, counts.data(), ScanMode::kFull);
    add(passes[0], exact_timer, exact);
    StreamingDbscan consumer(index.size(), minpts);
    StreamingDbscan scan_consumer(index.size(), minpts);
    for (const gpu::FusedPass pass :
         {gpu::FusedPass::kCore, gpu::FusedPass::kMark,
          gpu::FusedPass::kRecount, gpu::FusedPass::kUnion}) {
      WallTimer timer;
      const cudasim::KernelStats stats =
          gpu::run_fused_batch(device, view, eps, {}, pass, consumer);
      add(passes[1 + static_cast<unsigned>(pass)], timer, stats);
      if (pass != gpu::FusedPass::kUnion) {
        (void)gpu::run_fused_batch(device, view, eps, {}, pass,
                                   scan_consumer);
      }
    }
    WallTimer scan_timer;
    const cudasim::KernelStats scan = gpu::run_fused_batch(
        device, scan_view, eps, {}, gpu::FusedPass::kUnion, scan_consumer);
    add(passes[5], scan_timer, scan);
    benchmark::DoNotOptimize(consumer.degree(0));
  }
  const auto runs = static_cast<double>(state.iterations());
  for (const Pass& pass : passes) {
    state.counters[std::string(pass.name) + "_ms"] =
        1e3 * pass.seconds / runs;
    state.counters[std::string(pass.name) + "_tested"] = pass.tested / runs;
  }
}
BENCHMARK(BM_FusedPasses)
    ->ArgsProduct({{0, 1}, {15, 20, 30, 40, 50}, {4, 8}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
