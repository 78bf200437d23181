// Benchmark of the neighbor-table build at Fig. 3 scenario sizes: the
// two-pass CSR builder (count -> scan -> fill) under both scan modes (full
// pair evaluation vs the half-comparison scan that tests each candidate
// pair once and expands symmetry on the host). A four-variant reuse sweep
// on one device then shows the buffer pool paying the pinned page-lock
// cost only on the first variant.
//
// Expected shape: the half scan needs about half the distance FLOPs and
// ships about half the value bytes of the full scan; whether it also wins
// end to end depends on the host expansion it adds.
//
// A sharded-scaling sweep (schema v4) then builds the same workloads
// spatially partitioned across k = 1..4 simulated devices (a grid-row slab
// plus its eps-halo per device; see core/sharded_build.hpp) and reports
// the modeled speedup, the halo-duplication overhead, and the cross-shard
// edge count; the bench fails unless k=4 reaches >= 3.2x modeled speedup
// on at least one workload.
//
// Emits BENCH_table_build.json (schema_version 8) alongside the
// human-readable table. The JSON is self-describing: a `scenario` block
// records the scale factor, trial count, and the exact generator seed and
// size of every dataset, so a stored result can be reproduced bit-for-bit.
// The service section (schema 5) serves a Zipf workload naive /
// cache-only / cache+coalesce, plus (schema 6) the same reuse config with
// request tracing fully enabled.
//
// The fused-clustering matrix (schema 7) runs batch / streaming / fused
// end-to-end DBSCAN across the grid and BVH index backends on a skewed
// and a uniform scenario. Its gate is the fused path's reason to exist:
// on the skewed workload, fused-BVH must beat streaming-grid on modeled
// response time while materializing zero table bytes and producing labels
// bit-identical to batch DBSCAN.
//
// The quality frontier (schema 8) prices the approximate clustering modes
// at 10x the fused-matrix sizes, where the exact build's quadratic
// neighbor search is the bottleneck the quality knob exists to break:
// exact vs subsampled SNG at s = 0.1 / 0.3 vs the cell graph on a skewed,
// a uniform, and a well-separated workload. Its gates: each approximate
// mode reaches >= 5x modeled speedup over exact on at least one workload,
// every approximate mode scores rand index >= 0.99 on the separated
// workload, and subsampled labels are bit-identical across two runs with
// the same seed.
//
// The run ends with the disabled-tracing overhead guard: it counts the
// TRACE sites one build executes, microbenchmarks the disabled fast path
// (one relaxed atomic load per site) with a request context installed,
// adds the per-thread-hop context capture/install cost, and fails the
// bench if the projected total exceeds 2% of the build's wall time.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "common/request_context.hpp"
#include "core/hybrid_dbscan.hpp"
#include "core/neighbor_table_builder.hpp"
#include "core/sharded_build.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "index/grid_index.hpp"
#include "obs/trace.hpp"
#include "scenarios.hpp"
#include "service/scheduler.hpp"
#include "service/workload.hpp"

namespace {

struct ModeResult {
  std::string mode;
  std::string scan;               ///< "full" or "half"
  double wall_seconds = 0.0;
  double modeled_seconds = 0.0;
  double pairs_per_second = 0.0;  ///< total pairs / wall seconds
  double expand_seconds = 0.0;    ///< host half-table expansion (half only)
  std::uint64_t total_pairs = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t kernel_flops = 0;
  std::uint64_t kernel_global_bytes = 0;
};

ModeResult run_mode(cudasim::Device& device, const hdbscan::GridIndex& index,
                    float eps, hdbscan::ScanMode scan) {
  using namespace hdbscan;
  ModeResult r;
  r.mode = "csr_two_pass";
  r.scan = scan == ScanMode::kHalf ? "half" : "full";
  BatchPolicy policy;
  policy.scan_mode = scan;
  NeighborTableBuilder builder(device, policy);
  BuildReport report;
  // Min-of-N: the builds take tens of milliseconds at bench scale, where
  // scheduler noise swamps a mean-of-1; the minimum is the stable signal.
  // The modeled total also needs it — it folds in *measured* host append
  // time (charged to the stream timelines, as in the paper's overlap).
  const int repeats = std::max(3, hdbscan::env_trials());
  r.wall_seconds = 1e30;
  r.modeled_seconds = 1e30;
  for (int t = 0; t < repeats; ++t) {
    WallTimer timer;
    (void)builder.build(index, eps, &report);
    r.wall_seconds = std::min(r.wall_seconds, timer.seconds());
    r.modeled_seconds = std::min(r.modeled_seconds,
                                 report.modeled_table_seconds);
  }
  r.total_pairs = report.total_pairs;
  r.pairs_per_second =
      r.wall_seconds > 0.0
          ? static_cast<double>(report.total_pairs) / r.wall_seconds
          : 0.0;
  r.expand_seconds = report.expand_seconds;
  r.d2h_bytes = report.d2h_bytes;
  r.atomic_ops = report.atomic_ops;
  r.kernel_flops = report.kernel_flops;
  r.kernel_global_bytes = report.kernel_global_bytes;
  return r;
}

}  // namespace

int main() {
  using namespace hdbscan;
  bench::banner("Table build — two-pass CSR, full vs half scan",
                "Fig. 3 workload sizes");

  struct Row {
    std::string dataset;
    float eps;
    std::size_t n = 0;
    std::uint64_t seed = 0;
    std::vector<ModeResult> modes;
  };
  std::vector<Row> rows;

  // eps values from the Fig. 3 sweeps, chosen where the neighborhood
  // degree is representative (sparser settings make the fixed per-point
  // offsets array dominate both scan modes equally).
  for (const auto& [dataset, eps] :
       std::vector<std::pair<std::string, float>>{{"SW1", 0.3f},
                                                  {"SDSS1", 0.5f}}) {
    const auto points = bench::load(dataset);
    const GridIndex index = build_grid_index(points, eps);
    cudasim::Device device = bench::make_device();

    Row row{dataset, eps, points.size(), data::dataset_seed(dataset), {}};
    for (const ScanMode scan : {ScanMode::kFull, ScanMode::kHalf}) {
      row.modes.push_back(run_mode(device, index, eps, scan));
    }

    std::printf("\n  [%s]  eps = %.2f  |T| = %llu pairs\n", dataset.c_str(),
                eps,
                static_cast<unsigned long long>(row.modes[0].total_pairs));
    std::printf("  %-13s %-5s %9s %10s %12s %12s %14s\n", "mode", "scan",
                "wall (s)", "model (s)", "flops", "D2H bytes", "pairs/s");
    for (const ModeResult& r : row.modes) {
      std::printf("  %-13s %-5s %9.3f %10.4f %12llu %12llu %14.3e\n",
                  r.mode.c_str(), r.scan.c_str(), r.wall_seconds,
                  r.modeled_seconds,
                  static_cast<unsigned long long>(r.kernel_flops),
                  static_cast<unsigned long long>(r.d2h_bytes),
                  r.pairs_per_second);
    }
    const ModeResult& csr_full = row.modes[0];
    const ModeResult& csr_half = row.modes[1];
    std::printf("  half-csr vs full-csr: %.2fx wall, %.2fx modeled,"
                " %.2fx flops, %.2fx D2H (equal output: %s)\n",
                csr_full.wall_seconds / csr_half.wall_seconds,
                csr_full.modeled_seconds / csr_half.modeled_seconds,
                static_cast<double>(csr_full.kernel_flops) /
                    static_cast<double>(csr_half.kernel_flops),
                static_cast<double>(csr_full.d2h_bytes) /
                    static_cast<double>(csr_half.d2h_bytes),
                csr_full.total_pairs == csr_half.total_pairs ? "yes" : "NO");
    rows.push_back(std::move(row));
  }

  // --- N-variant reuse sweep: pinned allocation paid once ------------
  // Four same-index builds on one device (an eps-reuse sweep's shape):
  // the buffer pool page-locks staging on the first variant only, so the
  // cumulative modeled pinned-alloc time must stay flat afterwards.
  struct SweepVariant {
    double pinned_alloc_seconds = 0.0;  ///< cumulative modeled page-lock
    std::uint64_t pinned_misses = 0;    ///< cumulative pool misses
  };
  std::vector<SweepVariant> sweep;
  {
    const auto points = bench::load("SW1");
    const float eps = 0.3f;
    const GridIndex index = build_grid_index(points, eps);
    cudasim::Device device = bench::make_device();
    NeighborTableBuilder builder(device, {});
    std::printf("\n  reuse sweep (4 variants, same device):\n");
    for (int v = 0; v < 4; ++v) {
      (void)builder.build(index, eps);
      sweep.push_back({device.metrics().pinned_alloc_seconds,
                       device.metrics().pool_pinned_misses});
      std::printf("    variant %d: cumulative pinned-alloc %.6f s"
                  " (%llu pool misses)\n",
                  v, sweep.back().pinned_alloc_seconds,
                  static_cast<unsigned long long>(sweep.back().pinned_misses));
    }
  }

  // --- intra-variant streaming overlap (single variant) ---------------
  // Serial: build T, then cluster it (build + DBSCAN, back to back).
  // Streaming: a StreamingDbscan consumer unions core-core edges on the
  // builder's stream threads while the GPU is still filling later
  // batches; T is never materialized. The streamed wall time should land
  // near max(build, union) plus a short resolution tail, with the
  // consumer's peak footprint far below the table's.
  struct StreamingCompare {
    double serial_wall = 1e30;    ///< build + DBSCAN-over-T, min-of-N
    double serial_modeled = 1e30; ///< modeled build + measured DBSCAN
    double stream_wall = 1e30;
    double stream_modeled = 1e30; ///< max(modeled build, union) + tail
    double overlap_fraction = 0.0;
    double streamed_fraction = 0.0;
    std::uint64_t table_bytes = 0;        ///< serial high-water (T resident)
    std::uint64_t consumer_peak_bytes = 0;  ///< streaming high-water
  } scomp;
  {
    const auto points = bench::load("SW1");
    const float eps = 0.3f;
    const int minpts = 4;
    const GridIndex index = build_grid_index(points, eps);
    // The wall gap between the two modes is a few ms on a ~20 ms run;
    // min-of-N needs more samples here than the build-only sections.
    const int repeats = std::max(7, env_trials());

    cudasim::Device serial_dev = bench::make_device();
    NeighborTableBuilder serial_builder(serial_dev, {});
    for (int t = 0; t < repeats; ++t) {
      WallTimer timer;
      BuildReport report;
      const NeighborTable table = serial_builder.build(index, eps, &report);
      const ClusterResult r = dbscan_neighbor_table(table, minpts);
      (void)r;
      WallTimer dbscan_timer;  // re-measure clustering alone for the model
      (void)dbscan_neighbor_table(table, minpts);
      const double dbscan_s = dbscan_timer.seconds();
      scomp.serial_wall = std::min(scomp.serial_wall, timer.seconds());
      scomp.serial_modeled = std::min(
          scomp.serial_modeled, report.modeled_table_seconds + dbscan_s);
      scomp.table_bytes =
          table.total_pairs() * sizeof(PointId) +
          table.num_points() * 2 * sizeof(std::uint32_t);
    }

    cudasim::Device stream_dev = bench::make_device();
    NeighborTableBuilder stream_builder(stream_dev, {});
    for (int t = 0; t < repeats; ++t) {
      WallTimer timer;
      StreamingDbscan consumer(index.size(), minpts);
      BuildReport report;
      stream_builder.build(index, eps, &report, &consumer,
                           /*materialize_table=*/false);
      const ClusterResult r = consumer.finalize();
      (void)r;
      const StreamingDbscan::Stats& st = consumer.stats();
      const double wall = timer.seconds();
      const double modeled =
          std::max(report.modeled_table_seconds,
                   st.max_thread_consume_seconds) +
          st.finalize_seconds;
      if (wall < scomp.stream_wall) {
        scomp.stream_wall = wall;
        scomp.stream_modeled = modeled;
        scomp.overlap_fraction = st.overlap_fraction();
        scomp.streamed_fraction = st.streamed_fraction();
        scomp.consumer_peak_bytes = consumer.peak_memory_bytes();
      }
    }

    std::printf("\n  single-variant streaming overlap (SW1, eps=%.2f,"
                " minpts=%d):\n", eps, minpts);
    std::printf("    serial (build + cluster): %.3f s wall, %.4f s modeled,"
                " %llu B table\n",
                scomp.serial_wall, scomp.serial_modeled,
                static_cast<unsigned long long>(scomp.table_bytes));
    std::printf("    streaming:                %.3f s wall, %.4f s modeled,"
                " %llu B consumer peak\n",
                scomp.stream_wall, scomp.stream_modeled,
                static_cast<unsigned long long>(scomp.consumer_peak_bytes));
    std::printf("    -> %.2fx wall, %.2fx modeled; overlap %.2f,"
                " streamed %.2f, memory %.1fx smaller\n",
                scomp.serial_wall / scomp.stream_wall,
                scomp.serial_modeled / scomp.stream_modeled,
                scomp.overlap_fraction, scomp.streamed_fraction,
                static_cast<double>(scomp.table_bytes) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1,
                                                scomp.consumer_peak_bytes)));
  }

  // --- fused no-table clustering: backends x modes (schema 7) --------
  // End-to-end DBSCAN (index + neighbor search + labels) four ways on one
  // device: the batch table build (the paper's pipeline), streaming over
  // grid CSR batches, and the fused traversal on both index backends. The
  // skewed scenario is where the BVH earns its keep — overflowing hot
  // grid cells make the eps-cell stencil scan far more candidates than
  // the leaf-pruned tree descent — while the uniform scenario shows the
  // regime where the grid's O(1) cell lookup stays competitive.
  struct FusedCell {
    const char* config = "";
    double wall_seconds = 1e30;
    double modeled_seconds = 1e30;
    std::uint64_t d2h_bytes = 0;
    std::uint64_t peak_bytes = 0;  ///< resident table, or consumer peak
    bool table_materialized = true;
    bool labels_identical = true;  ///< vs the batch cell of the same row
  };
  struct FusedRow {
    std::string scenario;
    float eps = 0.0f;
    int minpts = 4;
    std::size_t n = 0;
    std::vector<FusedCell> cells;
  };
  std::vector<FusedRow> fused_rows;
  bool fused_ok = true;  // the skewed-workload gate, see below
  {
    const auto skewed_points = bench::load("SW1");
    const std::vector<Point2> uniform_points =
        data::generate_uniform(skewed_points.size(), 97, 10.0f, 10.0f);
    const int repeats = std::max(3, env_trials());
    const int minpts = 4;
    for (const auto& [scenario, pts] :
         std::vector<std::pair<std::string, const std::vector<Point2>*>>{
             {"skewed", &skewed_points}, {"uniform", &uniform_points}}) {
      const float eps = 0.3f;
      FusedRow row{scenario, eps, minpts, pts->size(), {}};

      struct Config {
        const char* name;
        ClusterMode mode;
        IndexBackend backend;
      };
      std::vector<std::int32_t> batch_labels;
      for (const Config cfg :
           {Config{"batch-grid", ClusterMode::kBatchTable, IndexBackend::kGrid},
            Config{"stream-grid", ClusterMode::kStreaming, IndexBackend::kGrid},
            Config{"fused-grid", ClusterMode::kFused, IndexBackend::kGrid},
            Config{"fused-bvh", ClusterMode::kFused, IndexBackend::kBvh}}) {
        FusedCell cell;
        cell.config = cfg.name;
        BatchPolicy policy;
        policy.index_backend = cfg.backend;
        cudasim::Device device = bench::make_device();
        for (int t = 0; t < repeats; ++t) {
          HybridTimings timings;
          WallTimer timer;
          const ClusterResult result = hybrid_dbscan(
              device, *pts, eps, minpts, &timings, policy, cfg.mode);
          cell.wall_seconds = std::min(cell.wall_seconds, timer.seconds());
          if (timings.modeled_total_seconds < cell.modeled_seconds) {
            cell.modeled_seconds = timings.modeled_total_seconds;
            cell.d2h_bytes = timings.build_report.d2h_bytes;
            cell.table_materialized =
                timings.build_report.table_materialized;
            cell.peak_bytes =
                cfg.mode == ClusterMode::kBatchTable
                    ? timings.build_report.total_pairs * sizeof(PointId) +
                          pts->size() * 2 * sizeof(std::uint32_t)
                    : timings.peak_consumer_bytes;
          }
          if (t == 0) {
            if (batch_labels.empty()) {
              batch_labels = result.labels;  // the batch cell runs first
            } else {
              cell.labels_identical = result.labels == batch_labels;
            }
          }
        }
        row.cells.push_back(cell);
      }

      std::printf("\n  fused matrix [%s, n=%zu, eps=%.2f, minpts=%d]:\n",
                  row.scenario.c_str(), row.n, eps, minpts);
      std::printf("  %-12s %9s %10s %12s %12s %6s %6s\n", "config",
                  "wall (s)", "model (s)", "D2H bytes", "peak bytes",
                  "table", "exact");
      for (const FusedCell& c : row.cells) {
        std::printf("  %-12s %9.3f %10.4f %12llu %12llu %6s %6s\n",
                    c.config, c.wall_seconds, c.modeled_seconds,
                    static_cast<unsigned long long>(c.d2h_bytes),
                    static_cast<unsigned long long>(c.peak_bytes),
                    c.table_materialized ? "yes" : "no",
                    c.labels_identical ? "yes" : "NO");
      }
      fused_rows.push_back(std::move(row));
    }

    // The gate: on the skewed workload the fused-BVH run must (a) beat
    // streaming-grid on modeled response time, (b) materialize no table,
    // and (c) label every point exactly like batch DBSCAN — on both
    // scenarios and both fused backends.
    const FusedRow& skewed = fused_rows.front();
    const FusedCell& stream_grid = skewed.cells[1];
    const FusedCell& fused_bvh = skewed.cells[3];
    for (const FusedRow& row : fused_rows) {
      for (const FusedCell& c : row.cells) {
        fused_ok = fused_ok && c.labels_identical;
        if (std::string_view(c.config).starts_with("fused")) {
          fused_ok = fused_ok && !c.table_materialized;
        }
      }
    }
    fused_ok =
        fused_ok && fused_bvh.modeled_seconds < stream_grid.modeled_seconds;
    std::printf(
        "  fused-BVH beats streaming-grid on the skewed workload with no"
        " table and exact labels: %s (%.4fs vs %.4fs, %.2fx)\n",
        fused_ok ? "PASS" : "FAIL", fused_bvh.modeled_seconds,
        stream_grid.modeled_seconds,
        stream_grid.modeled_seconds / fused_bvh.modeled_seconds);
  }

  // --- quality frontier: approximate modes at 10x n (schema 8) -------
  // Exact vs subsampled SNG (s = 0.1 / 0.3, fixed seed) vs the cell
  // graph, each end-to-end through hybrid_dbscan, at 10x the fused-matrix
  // point counts in the same areas — the density regime where the exact
  // build's quadratic neighbor search dominates and the quality knob
  // earns its keep. The skewed and uniform workloads show the throughput
  // frontier; the well-separated cluster grid (clusters of ~1500 points
  // on a 20-unit pitch, no inter-cluster edge possible at its eps) is
  // where any correct clustering recovers the exact partition, so its
  // rand-index gate is sharp rather than statistical. Each config runs
  // once: the gates read modeled seconds, which are deterministic, and
  // the subsampled determinism check needs a second run of s = 0.3 only.
  // Modeled seconds exclude the grid-index build — it is a function of
  // (dataset, eps) only, identical across every quality config, and the
  // single-device rows above exclude it as setup for the same reason.
  struct QualityCell {
    std::string config;
    float sample_rate = 1.0f;
    double wall_seconds = 0.0;
    double modeled_seconds = 0.0;
    double speedup = 1.0;          ///< exact modeled / this modeled
    double rand_vs_exact = 1.0;
    bool deterministic = true;     ///< same seed, two runs, same labels
    bool table_materialized = true;
    std::uint64_t pairs = 0;  ///< kernel pairs, or cell-graph distance tests
  };
  struct QualityRow {
    std::string scenario;
    float eps = 0.3f;
    int minpts = 4;
    std::size_t n = 0;
    std::vector<QualityCell> cells;
  };
  std::vector<QualityRow> quality_rows;
  bool quality_ok = true;
  {
    const std::size_t frontier_n = 10 * data::make_dataset("SW1").size();
    const auto skewed_points = data::make_dataset("SW1", frontier_n);
    const std::vector<Point2> uniform_points =
        data::generate_uniform(frontier_n, 97, 10.0f, 10.0f);
    // Well-separated by construction: clusters of ~1500 points jittered
    // over 2x2-unit boxes on a 20-unit grid pitch. At eps = 0.5 no pair
    // of clusters can ever share an edge.
    std::vector<Point2> separated_points;
    separated_points.reserve(frontier_n);
    {
      const std::size_t clusters =
          std::max<std::size_t>(1, frontier_n / 1500);
      const std::size_t side = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(clusters))));
      std::uint64_t s = 0x51f7eedull;
      const auto jitter = [&s] {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return 2.0f * static_cast<float>((s >> 33) & 0xffff) / 65536.0f;
      };
      for (std::size_t i = 0; i < frontier_n; ++i) {
        const std::size_t c = i % clusters;
        separated_points.push_back(
            {20.0f * static_cast<float>(c % side) + jitter(),
             20.0f * static_cast<float>(c / side) + jitter()});
      }
    }

    struct QualityWorkload {
      const char* scenario;
      const std::vector<Point2>* points;
      float eps;
      int minpts;
    };
    for (const QualityWorkload w :
         {QualityWorkload{"skewed", &skewed_points, 0.3f, 4},
          QualityWorkload{"uniform", &uniform_points, 0.3f, 4},
          QualityWorkload{"separated", &separated_points, 0.5f, 8}}) {
      QualityRow row{w.scenario, w.eps, w.minpts, w.points->size(), {}};

      const auto run_config = [&](const char* name, QualitySpec q,
                                  std::vector<std::int32_t>* labels_out) {
        QualityCell cell;
        cell.config = name;
        cell.sample_rate = q.sampled() ? q.sample_rate : 1.0f;
        BatchPolicy policy;
        policy.quality = q;
        cudasim::Device device = bench::make_device();
        HybridTimings timings;
        WallTimer timer;
        const ClusterResult result =
            hybrid_dbscan(device, *w.points, w.eps, w.minpts, &timings,
                          policy);
        cell.wall_seconds = timer.seconds();
        cell.modeled_seconds =
            timings.modeled_total_seconds - timings.index_seconds;
        cell.table_materialized = timings.build_report.table_materialized;
        cell.pairs = timings.build_report.total_pairs;
        if (labels_out != nullptr) *labels_out = result.labels;
        return cell;
      };

      std::vector<std::int32_t> exact_labels;
      row.cells.push_back(run_config("exact", {}, &exact_labels));

      const QualitySpec sub01{ClusterQuality::kSubsampled, 0.1f, 42};
      const QualitySpec sub03{ClusterQuality::kSubsampled, 0.3f, 42};
      std::vector<std::int32_t> labels;
      row.cells.push_back(run_config("subsampled-0.1", sub01, &labels));
      row.cells.back().rand_vs_exact = rand_index(labels, exact_labels);

      row.cells.push_back(run_config("subsampled-0.3", sub03, &labels));
      row.cells.back().rand_vs_exact = rand_index(labels, exact_labels);
      {
        std::vector<std::int32_t> replay;
        (void)run_config("subsampled-0.3", sub03, &replay);
        row.cells.back().deterministic = replay == labels;
      }

      row.cells.push_back(
          run_config("cellgraph", {ClusterQuality::kCellGraph}, &labels));
      row.cells.back().rand_vs_exact = rand_index(labels, exact_labels);

      const double exact_modeled = row.cells.front().modeled_seconds;
      for (QualityCell& cell : row.cells) {
        cell.speedup = exact_modeled / std::max(1e-12, cell.modeled_seconds);
      }

      std::printf(
          "\n  quality frontier [%s, n=%zu, eps=%.2f, minpts=%d]:\n",
          row.scenario.c_str(), row.n, row.eps, row.minpts);
      std::printf("  %-15s %9s %10s %8s %10s %6s %6s %14s\n", "config",
                  "wall (s)", "model (s)", "speedup", "rand idx", "det",
                  "table", "pairs");
      for (const QualityCell& c : row.cells) {
        std::printf(
            "  %-15s %9.3f %10.4f %7.2fx %10.6f %6s %6s %14llu\n",
            c.config.c_str(), c.wall_seconds, c.modeled_seconds, c.speedup,
            c.rand_vs_exact, c.deterministic ? "yes" : "NO",
            c.table_materialized ? "yes" : "no",
            static_cast<unsigned long long>(c.pairs));
      }
      quality_rows.push_back(std::move(row));
    }

    // The gates: each approximate mode must justify itself at 10x n with
    // >= 5x modeled speedup on at least one workload; on the separated
    // workload every approximate mode must stay within rand index 0.99 of
    // exact; subsampled labels must replay bit-identically per seed; and
    // the cell graph must never materialize a table.
    bool sub_5x = false;
    bool cg_5x = false;
    for (const QualityRow& row : quality_rows) {
      for (const QualityCell& c : row.cells) {
        if (c.config == "exact") continue;
        quality_ok = quality_ok && c.deterministic;
        if (std::string_view(c.config).starts_with("subsampled")) {
          sub_5x = sub_5x || c.speedup >= 5.0;
        }
        if (c.config == "cellgraph") {
          cg_5x = cg_5x || c.speedup >= 5.0;
          quality_ok = quality_ok && !c.table_materialized;
        }
        if (row.scenario == "separated") {
          quality_ok = quality_ok && c.rand_vs_exact >= 0.99;
        }
      }
    }
    quality_ok = quality_ok && sub_5x && cg_5x;
    std::printf(
        "  approximate modes reach >= 5x modeled speedup at 10x n with"
        " rand index >= 0.99 on the separated workload: %s\n",
        quality_ok ? "PASS" : "FAIL");
  }
  // Spatial slab sharding (one grid-row slab + eps-halo per device): each
  // device holds ~1/k of the index and does ~1/k of the distance tests,
  // and the modeled critical path charges the slowest shard per round —
  // never the sum — so k devices should approach k-fold modeled speedup.
  // Two modes per k: the materialized build (the merged global CSR table,
  // eroded by the serial fan-in merge and half-table expansion) and the
  // streaming labels-only build (deliveries flow to a sink with global
  // keys; no merge, no expansion — the deployment mode a multi-GPU
  // pipeline actually runs, cf. the streaming comparison above). The
  // sweep runs at 200k points rather than the 1/32-scale defaults:
  // sharding targets large workloads, and at a few-ms total build the
  // per-build fixed costs swamp the device phases being scaled.
  struct ShardPoint {
    unsigned k = 1;
    std::uint32_t shards = 0;
    double wall_seconds = 1e30;
    double modeled_seconds = 1e30;    ///< materialized build
    double streamed_seconds = 1e30;   ///< labels-only (sink) build
    double speedup = 1.0;             ///< materialized modeled, vs k=1
    double streamed_speedup = 1.0;    ///< streamed modeled, vs k=1
    double fixed_seconds = 0.0;       ///< serial host share (materialized)
    double partition_seconds = 0.0;   ///< one-time plan_shards critical path
    double halo_fraction = 0.0;       ///< ghost residents / owned points
    std::uint64_t halo_ghosts = 0;
    std::uint64_t cross_pairs = 0;  ///< forward pairs spanning two owners
  };
  struct ShardScalingRow {
    std::string dataset;
    float eps;
    std::size_t size = 0;
    std::vector<ShardPoint> points;
  };
  // Pair-count sink standing in for a label consumer: the build's cost is
  // what is measured, so the sink does the least work that still drains
  // every delivery.
  struct PairCountSink final : hdbscan::BatchSink {
    std::atomic<std::uint64_t> pairs{0};
    void consume(const hdbscan::BatchDelivery& d) override {
      pairs.fetch_add(d.values.size(), std::memory_order_relaxed);
    }
  };
  constexpr std::size_t kShardSweepSize = 200000;
  std::vector<ShardScalingRow> shard_rows;
  bool shard_ok = false;  // >= 3.2x modeled at k=4 on some workload
  for (const auto& [dataset, eps] :
       std::vector<std::pair<std::string, float>>{{"SW1", 0.3f},
                                                  {"SDSS1", 0.5f}}) {
    const auto points = data::make_dataset(dataset, kShardSweepSize);
    std::printf("  dataset %-6s |D| = %zu (sharded sweep)\n",
                dataset.c_str(), points.size());
    const GridIndex index = build_grid_index(points, eps);
    ShardScalingRow row{dataset, eps, points.size(), {}};
    const int repeats = std::max(3, env_trials());
    for (unsigned k = 1; k <= 4; ++k) {
      std::vector<std::unique_ptr<cudasim::Device>> fleet;
      std::vector<cudasim::Device*> fleet_ptrs;
      for (unsigned d = 0; d < k; ++d) {
        fleet.push_back(std::make_unique<cudasim::Device>(
            cudasim::DeviceConfig{}, cudasim::SimulationOptions{}));
        fleet_ptrs.push_back(fleet.back().get());
      }
      // Partition once per (workload, k) and reuse it across trials and
      // modes — the plan is a function of the index and eps only, so a
      // deployment computes it at setup time, exactly like the grid index
      // (whose construction the single-device numbers above exclude too).
      // Its one-time critical path is reported alongside the build times.
      const ShardPlan plan = plan_shards(
          index, k,
          static_cast<unsigned>(cudasim::DeviceConfig{}.host_cores));
      ShardedBuildOptions options;
      options.num_shards = k;
      options.plan = &plan;
      ShardPoint pt;
      pt.k = k;
      pt.partition_seconds = plan.critical_seconds;
      for (int t = 0; t < repeats; ++t) {
        WallTimer timer;
        BuildReport report;
        (void)build_sharded_neighbor_table(fleet_ptrs, index, eps, options,
                                           &report);
        pt.wall_seconds = std::min(pt.wall_seconds, timer.seconds());
        if (report.modeled_table_seconds < pt.modeled_seconds) {
          pt.modeled_seconds = report.modeled_table_seconds;
          pt.fixed_seconds = report.shard_fixed_seconds;
          pt.shards = report.shards;
          pt.halo_ghosts = report.halo_ghost_points;
          pt.cross_pairs = report.cross_shard_pairs;
        }
        PairCountSink sink;
        BuildReport streamed;
        (void)build_sharded_neighbor_table(fleet_ptrs, index, eps, options,
                                           &streamed, &sink,
                                           /*materialize_table=*/false);
        pt.streamed_seconds =
            std::min(pt.streamed_seconds, streamed.modeled_table_seconds);
      }
      pt.halo_fraction = static_cast<double>(pt.halo_ghosts) /
                         static_cast<double>(points.size());
      row.points.push_back(pt);
    }
    for (ShardPoint& pt : row.points) {
      pt.speedup = row.points.front().modeled_seconds / pt.modeled_seconds;
      pt.streamed_speedup =
          row.points.front().streamed_seconds / pt.streamed_seconds;
    }
    std::printf("\n  sharded scaling [%s, eps=%.2f, n=%zu]:\n",
                dataset.c_str(), eps, row.size);
    std::printf("  %3s %7s %10s %9s %10s %9s %8s %12s %12s\n", "k",
                "shards", "table (s)", "speedup", "stream(s)", "speedup",
                "halo", "ghosts", "cross pairs");
    for (const ShardPoint& pt : row.points) {
      std::printf(
          "  %3u %7u %10.4f %8.2fx %10.4f %8.2fx %7.1f%% %12llu %12llu\n",
          pt.k, pt.shards, pt.modeled_seconds, pt.speedup,
          pt.streamed_seconds, pt.streamed_speedup,
          100.0 * pt.halo_fraction,
          static_cast<unsigned long long>(pt.halo_ghosts),
          static_cast<unsigned long long>(pt.cross_pairs));
    }
    shard_ok = shard_ok || row.points.back().speedup >= 3.2 ||
               row.points.back().streamed_speedup >= 3.2;
    shard_rows.push_back(std::move(row));
  }
  std::printf(
      "  k=4 modeled speedup >= 3.2x on some workload (either mode): %s\n",
      shard_ok ? "PASS" : "FAIL");

  // --- service front-end: skewed workload vs naive baseline ----------
  // The same Zipf-over-eps multi-tenant workload served three ways on a
  // two-device fleet: naive (every job builds its own table), cache-only,
  // and cache+coalescing. The reuse machinery must beat the naive
  // baseline on modeled makespan — that gate is the point of schema 5.
  struct ServeResult {
    std::string config;
    bool traced = false;  ///< tracer enabled for the whole replay
    double makespan = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double throughput = 0.0;
    std::uint64_t cache_hits = 0;
    std::uint64_t coalesced_jobs = 0;
  };
  std::vector<ServeResult> serve_results;
  bool serve_ok = false;
  {
    const auto serve_points = data::make_dataset("SW1");
    service::WorkloadSpec wl;
    wl.num_jobs = 32;
    wl.seed = 4242;
    const std::vector<service::JobSpec> jobs = service::make_zipf_workload(wl);

    struct Config {
      const char* name;
      bool cache;
      bool coalesce;
      bool trace;
    };
    // The fourth row replays the best config with full request tracing on
    // (schema 6): what the stage-attribution machinery costs when it is
    // actually recording, next to the disabled-path guard below.
    for (const Config cfg : {Config{"naive", false, false, false},
                             Config{"cache", true, false, false},
                             Config{"cache+coalesce", true, true, false},
                             Config{"cache+coalesce+trace", true, true,
                                    true}}) {
      cudasim::SimulationOptions sopt;
      sopt.throttle_transfers = false;
      sopt.throttle_pinned_alloc = false;
      cudasim::Device d0({}, sopt), d1({}, sopt);
      service::ServiceOptions opt;
      opt.num_workers = 2;
      opt.cache_bytes_budget = cfg.cache ? (512ull << 20) : 0;
      opt.coalesce = cfg.coalesce;
      service::ClusterService svc({&d0, &d1}, opt);
      svc.register_dataset("default", serve_points, 0.9f);
      if (cfg.trace && obs::kTraceCompiled) obs::Tracer::global().enable();
      const std::vector<service::JobResult> results = svc.replay(jobs);
      if (cfg.trace && obs::kTraceCompiled) obs::Tracer::global().disable();
      const service::ServiceStats stats = svc.stats();

      ServeResult r;
      r.config = cfg.name;
      r.traced = cfg.trace;
      r.makespan = stats.modeled_makespan_seconds;
      std::vector<double> lat;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].state == service::JobState::kCompleted) {
          lat.push_back(
              results[i].modeled_latency_seconds(jobs[i].arrival_seconds));
        }
      }
      std::sort(lat.begin(), lat.end());
      if (!lat.empty()) {
        r.p50 = lat[lat.size() / 2];
        r.p99 = lat[std::min(lat.size() - 1,
                             static_cast<std::size_t>(
                                 static_cast<double>(lat.size() - 1) * 0.99))];
      }
      r.throughput = r.makespan > 0.0
                         ? static_cast<double>(stats.completed) / r.makespan
                         : 0.0;
      r.cache_hits = stats.cache_hits;
      r.coalesced_jobs = stats.coalesced_jobs;
      serve_results.push_back(std::move(r));
    }
    // The reuse gate compares the untraced cache+coalesce row to naive;
    // the traced row is reported alongside it.
    serve_ok = serve_results[2].makespan <= serve_results.front().makespan;
    std::printf("\n  service front-end, %u-job Zipf workload (SW1, 2"
                " devices):\n", wl.num_jobs);
    for (const ServeResult& r : serve_results) {
      std::printf("    %-21s makespan %.4fs  p50 %.4fs  p99 %.4fs  %6.1f"
                  " jobs/s  (%llu cache hits, %llu coalesced)\n",
                  r.config.c_str(), r.makespan, r.p50, r.p99, r.throughput,
                  static_cast<unsigned long long>(r.cache_hits),
                  static_cast<unsigned long long>(r.coalesced_jobs));
    }
    std::printf("  cache+coalescing beats naive on modeled makespan: %s\n",
                serve_ok ? "PASS" : "FAIL");
  }

  // --- disabled-tracing overhead guard -------------------------------
  // (a) one traced SW1 build counts the TRACE sites it executes; (b) the
  // disabled fast path is microbenchmarked *with a request context
  // installed* — the serving condition, where every record checks the
  // enabled flag and every thread hop copies + installs the submitter's
  // context; (c) assert that sites x (per-site + per-hop) cost stays
  // under 2% of the build's disabled-mode wall time. Hops <= sites
  // (every hop wraps at least one span), so billing a hop per site
  // overstates the true cost — the guard is conservative.
  std::size_t guard_sites = 0;
  double guard_per_site_ns = 0.0;
  double guard_per_hop_ns = 0.0;
  double guard_overhead_pct = 0.0;
  bool guard_ok = true;
  {
    const float eps = rows.front().eps;
    const auto points = data::make_dataset(rows.front().dataset);
    const GridIndex index = build_grid_index(points, eps);
    cudasim::Device device = bench::make_device();
    NeighborTableBuilder builder(device, {});

    obs::Tracer& tracer = obs::Tracer::global();
    if (obs::kTraceCompiled) {
      tracer.enable();
      (void)builder.build(index, eps);
      tracer.disable();
      guard_sites = tracer.snapshot().size() +
                    static_cast<std::size_t>(tracer.dropped());
    }

    double build_s = 1e30;
    for (int t = 0; t < 3; ++t) {
      WallTimer timer;
      (void)builder.build(index, eps);
      build_s = std::min(build_s, timer.seconds());
    }

    constexpr int kProbes = 1'000'000;
    RequestContext probe_ctx;
    probe_ctx.request_id = mint_request_id();
    probe_ctx.set_tenant("bench");
    RequestScope probe_scope(probe_ctx);
    WallTimer probe;
    for (int i = 0; i < kProbes; ++i) {
      TRACE_SPAN("bench", "overhead probe");
    }
    guard_per_site_ns = probe.seconds() / kProbes * 1e9;

    // Per-hop cost of the context plumbing itself: copy the calling
    // thread's context (what every submit/enqueue lambda captures) and
    // install/restore it (what the worker does).
    std::uint64_t hop_sink = 0;  // keeps the loop observable
    WallTimer hop_probe;
    for (int i = 0; i < kProbes; ++i) {
      const RequestContext captured = current_request_context();
      RequestScope hop(captured);
      hop_sink += current_request_context().request_id;
    }
    guard_per_hop_ns = hop_probe.seconds() / kProbes * 1e9;
    if (hop_sink == 0) std::printf("  (hop probe ran unattributed)\n");

    const double projected_s = static_cast<double>(guard_sites) *
                               (guard_per_site_ns + guard_per_hop_ns) * 1e-9;
    guard_overhead_pct = build_s > 0.0 ? 100.0 * projected_s / build_s : 0.0;
    guard_ok = guard_overhead_pct < 2.0;
    std::printf(
        "\n  trace-overhead guard: %zu sites/build x (%.1f ns/site +"
        " %.1f ns/hop) vs %.3f s build -> %.4f%% overhead when disabled"
        " (< 2%%: %s)\n",
        guard_sites, guard_per_site_ns, guard_per_hop_ns, build_s,
        guard_overhead_pct, guard_ok ? "PASS" : "FAIL");
  }

  std::FILE* out = std::fopen("BENCH_table_build.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_table_build.json for writing\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"benchmark\": \"table_build\",\n"
               "  \"schema_version\": 8,\n"
               "  \"scenario\": {\n"
               "    \"scale\": %.4f,\n"
               "    \"trials\": %d,\n"
               "    \"datasets\": [\n",
               env_scale(), std::max(3, env_trials()));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "      {\"name\": \"%s\", \"n\": %zu, \"seed\": %llu, "
                 "\"eps\": %.3f}%s\n",
                 row.dataset.c_str(), row.n,
                 static_cast<unsigned long long>(row.seed), row.eps,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n  },\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"dataset\": \"%s\", \"eps\": %.3f, \"modes\": [\n",
                 row.dataset.c_str(), row.eps);
    for (std::size_t m = 0; m < row.modes.size(); ++m) {
      const ModeResult& r = row.modes[m];
      std::fprintf(
          out,
          "      {\"mode\": \"%s\", \"scan\": \"%s\", "
          "\"wall_seconds\": %.6f, "
          "\"modeled_seconds\": %.6f, \"pairs_per_second\": %.3e, "
          "\"expand_seconds\": %.6f, "
          "\"total_pairs\": %llu, \"d2h_bytes\": %llu, "
          "\"atomic_ops\": %llu, \"kernel_flops\": %llu, "
          "\"kernel_global_bytes\": %llu}%s\n",
          r.mode.c_str(), r.scan.c_str(), r.wall_seconds, r.modeled_seconds,
          r.pairs_per_second, r.expand_seconds,
          static_cast<unsigned long long>(r.total_pairs),
          static_cast<unsigned long long>(r.d2h_bytes),
          static_cast<unsigned long long>(r.atomic_ops),
          static_cast<unsigned long long>(r.kernel_flops),
          static_cast<unsigned long long>(r.kernel_global_bytes),
          m + 1 < row.modes.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"reuse_sweep\": [\n");
  for (std::size_t v = 0; v < sweep.size(); ++v) {
    std::fprintf(out,
                 "    {\"variant\": %zu, "
                 "\"cumulative_pinned_alloc_seconds\": %.6f, "
                 "\"cumulative_pool_pinned_misses\": %llu}%s\n",
                 v, sweep[v].pinned_alloc_seconds,
                 static_cast<unsigned long long>(sweep[v].pinned_misses),
                 v + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(
      out,
      "  ],\n  \"streaming_single_variant\": {\"dataset\": \"SW1\", "
      "\"eps\": 0.300, \"minpts\": 4,\n"
      "    \"serial_wall_seconds\": %.6f, "
      "\"serial_modeled_seconds\": %.6f,\n"
      "    \"streaming_wall_seconds\": %.6f, "
      "\"streaming_modeled_seconds\": %.6f,\n"
      "    \"overlap_fraction\": %.4f, \"streamed_fraction\": %.4f,\n"
      "    \"serial_table_bytes\": %llu, "
      "\"streaming_peak_bytes\": %llu},\n",
      scomp.serial_wall, scomp.serial_modeled, scomp.stream_wall,
      scomp.stream_modeled, scomp.overlap_fraction, scomp.streamed_fraction,
      static_cast<unsigned long long>(scomp.table_bytes),
      static_cast<unsigned long long>(scomp.consumer_peak_bytes));
  std::fprintf(out, "  \"fused_clustering\": {\n    \"rows\": [\n");
  for (std::size_t i = 0; i < fused_rows.size(); ++i) {
    const FusedRow& row = fused_rows[i];
    std::fprintf(out,
                 "      {\"scenario\": \"%s\", \"eps\": %.3f, "
                 "\"minpts\": %d, \"n\": %zu, \"configs\": [\n",
                 row.scenario.c_str(), row.eps, row.minpts, row.n);
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      const FusedCell& cell = row.cells[c];
      std::fprintf(
          out,
          "        {\"config\": \"%s\", \"wall_seconds\": %.6f, "
          "\"modeled_seconds\": %.6f, \"d2h_bytes\": %llu, "
          "\"peak_bytes\": %llu, \"table_materialized\": %s, "
          "\"labels_identical_to_batch\": %s}%s\n",
          cell.config, cell.wall_seconds, cell.modeled_seconds,
          static_cast<unsigned long long>(cell.d2h_bytes),
          static_cast<unsigned long long>(cell.peak_bytes),
          cell.table_materialized ? "true" : "false",
          cell.labels_identical ? "true" : "false",
          c + 1 < row.cells.size() ? "," : "");
    }
    std::fprintf(out, "      ]}%s\n", i + 1 < fused_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "    ],\n    \"fused_bvh_gate\": {\"scenario\": \"skewed\", "
               "\"beats\": \"stream-grid\", \"metric\": "
               "\"modeled_seconds\", \"requires_no_table\": true, "
               "\"requires_identical_labels\": true, \"pass\": %s}},\n",
               fused_ok ? "true" : "false");
  std::fprintf(out, "  \"quality_frontier\": {\n    \"rows\": [\n");
  for (std::size_t i = 0; i < quality_rows.size(); ++i) {
    const QualityRow& row = quality_rows[i];
    std::fprintf(out,
                 "      {\"scenario\": \"%s\", \"eps\": %.3f, "
                 "\"minpts\": %d, \"n\": %zu, \"configs\": [\n",
                 row.scenario.c_str(), row.eps, row.minpts, row.n);
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      const QualityCell& cell = row.cells[c];
      std::fprintf(
          out,
          "        {\"config\": \"%s\", \"sample_rate\": %.2f, "
          "\"wall_seconds\": %.6f, \"modeled_seconds\": %.6f, "
          "\"modeled_speedup_vs_exact\": %.4f, "
          "\"rand_index_vs_exact\": %.6f, \"deterministic\": %s, "
          "\"table_materialized\": %s, \"pairs\": %llu}%s\n",
          cell.config.c_str(), cell.sample_rate, cell.wall_seconds,
          cell.modeled_seconds, cell.speedup, cell.rand_vs_exact,
          cell.deterministic ? "true" : "false",
          cell.table_materialized ? "true" : "false",
          static_cast<unsigned long long>(cell.pairs),
          c + 1 < row.cells.size() ? "," : "");
    }
    std::fprintf(out, "      ]}%s\n", i + 1 < quality_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "    ],\n    \"gates\": {\"n_multiple\": 10, "
               "\"min_modeled_speedup\": 5.0, "
               "\"min_rand_index\": 0.99, "
               "\"rand_index_scenario\": \"separated\", "
               "\"requires_deterministic_replay\": true, \"pass\": %s}},\n",
               quality_ok ? "true" : "false");
  std::fprintf(out, "  \"sharded_scaling\": [\n");
  for (std::size_t i = 0; i < shard_rows.size(); ++i) {
    const ShardScalingRow& row = shard_rows[i];
    std::fprintf(out,
                 "    {\"dataset\": \"%s\", \"eps\": %.3f, \"size\": %zu, "
                 "\"points\": [\n",
                 row.dataset.c_str(), row.eps, row.size);
    for (std::size_t p = 0; p < row.points.size(); ++p) {
      const ShardPoint& pt = row.points[p];
      std::fprintf(
          out,
          "      {\"k\": %u, \"shards\": %u, \"wall_seconds\": %.6f, "
          "\"modeled_seconds\": %.6f, \"modeled_speedup\": %.4f, "
          "\"modeled_streamed_seconds\": %.6f, \"streamed_speedup\": %.4f, "
          "\"fixed_seconds\": %.6f, \"partition_seconds\": %.6f, "
          "\"halo_ghost_points\": %llu, \"halo_overhead_fraction\": %.4f, "
          "\"cross_shard_pairs\": %llu}%s\n",
          pt.k, pt.shards, pt.wall_seconds, pt.modeled_seconds, pt.speedup,
          pt.streamed_seconds, pt.streamed_speedup, pt.fixed_seconds,
          pt.partition_seconds,
          static_cast<unsigned long long>(pt.halo_ghosts), pt.halo_fraction,
          static_cast<unsigned long long>(pt.cross_pairs),
          p + 1 < row.points.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 < shard_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"sharded_speedup_gate\": {\"k\": 4, "
               "\"min_modeled_speedup\": 3.2, "
               "\"modes\": [\"materialized\", \"streamed\"], "
               "\"pass\": %s},\n",
               shard_ok ? "true" : "false");
  std::fprintf(out,
               "  \"service\": {\"dataset\": \"SW1\", \"jobs\": 32, "
               "\"tenants\": 4, \"zipf_s\": 1.2, \"devices\": 2,\n"
               "    \"configs\": [\n");
  for (std::size_t i = 0; i < serve_results.size(); ++i) {
    const ServeResult& r = serve_results[i];
    std::fprintf(out,
                 "      {\"config\": \"%s\", \"traced\": %s, "
                 "\"modeled_makespan_seconds\": %.6f, "
                 "\"modeled_p50_seconds\": %.6f, "
                 "\"modeled_p99_seconds\": %.6f, "
                 "\"modeled_jobs_per_second\": %.3f, "
                 "\"cache_hits\": %llu, \"coalesced_jobs\": %llu}%s\n",
                 r.config.c_str(), r.traced ? "true" : "false", r.makespan,
                 r.p50, r.p99, r.throughput,
                 static_cast<unsigned long long>(r.cache_hits),
                 static_cast<unsigned long long>(r.coalesced_jobs),
                 i + 1 < serve_results.size() ? "," : "");
  }
  std::fprintf(out,
               "    ],\n    \"reuse_beats_naive_gate\": {\"metric\": "
               "\"modeled_makespan_seconds\", \"pass\": %s}},\n",
               serve_ok ? "true" : "false");
  std::fprintf(out,
               "  \"trace_overhead_guard\": {\"sites\": %zu, "
               "\"per_site_ns\": %.2f, \"per_hop_ns\": %.2f, "
               "\"overhead_percent\": %.4f, "
               "\"limit_percent\": 2.0, \"pass\": %s}\n}\n",
               guard_sites, guard_per_site_ns, guard_per_hop_ns,
               guard_overhead_pct, guard_ok ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote BENCH_table_build.json\n");
  return guard_ok && shard_ok && serve_ok && fused_ok && quality_ok ? 0 : 1;
}
