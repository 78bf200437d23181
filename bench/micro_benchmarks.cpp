// google-benchmark microbenchmarks for the core primitives: index build,
// point queries (grid vs R-tree), on-device sort, kernels, DBSCAN over a
// neighbor table, and the cell-graph pass.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "core/cell_graph.hpp"
#include "cudasim/buffer.hpp"
#include "cudasim/device.hpp"
#include "cudasim/sort.hpp"
#include "data/datasets.hpp"
#include "data/generators.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/neighbor_table.hpp"
#include "dbscan/union_find.hpp"
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

}  // namespace

BENCHMARK_MAIN();
