// hdbscan_cli — command-line front end for the whole library.
//
//   hdbscan_cli gen <SW1|SW4|SDSS1|SDSS2|SDSS3|uniform> <n> <out.{csv,bin}>
//   hdbscan_cli cluster <in.{csv,bin}> <eps> <minpts> [labels_out] [--map]
//                       [--streaming] [--shards k]
//   hdbscan_cli sweep <in> <eps_lo> <eps_hi> <step> <minpts>
//   hdbscan_cli reuse <in> <eps> <minpts,minpts,...> [threads]
//   hdbscan_cli table <in> <eps> <table_out.bin>
//   hdbscan_cli optics <in> <eps> <minpts> <eps',eps',...>
//   hdbscan_cli chaos <SW1|...|uniform> <n> <seed> [devices]
//   hdbscan_cli stream-smoke [n]
//   hdbscan_cli shard-smoke [n]
//   hdbscan_cli profile <SW1|...|uniform> <n> <variants> [--faults=SEED]
//                       [--selftest]
//
// Global flags (any subcommand, stripped before dispatch):
//   --trace-out=FILE     enable tracing; write Chrome/Perfetto trace JSON
//   --metrics-out=FILE   write the metrics registry as JSON
//
// `chaos` attaches a seeded randomized fault plan to every simulated
// device, runs a resilient multi-device build plus clustering, and exits
// nonzero if any invariant breaks (wrong table, leaked device memory,
// wrong clustering) — the degradation ladder may bend but results may not.
// Fault plans and firings are emitted as tracer events, not printouts.
//
// `profile` runs a Figure-4-style pipelined multi-variant clustering with
// tracing always on and prints a per-phase makespan table plus the
// busy/coverage overlap ratio; --faults arms a deterministic transient
// fault plan (absorbed by the retry ladder) so fault instants appear in
// the trace, and --selftest re-parses the written trace file and checks
// its structural invariants (the trace_smoke CTest target).
//
// Files ending in .bin use the library's binary point format; anything
// else is parsed as "x,y" CSV.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cluster_analysis.hpp"
#include "common/timer.hpp"
#include "core/cell_graph.hpp"
#include "core/hybrid_dbscan.hpp"
#include "core/pipeline.hpp"
#include "core/report_metrics.hpp"
#include "core/reuse.hpp"
#include "core/sharded_build.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/device.hpp"
#include "cudasim/fault.hpp"
#include "data/datasets.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/dbscan_parallel.hpp"
#include "dbscan/optics.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "dbscan/table_io.hpp"
#include "index/grid_index.hpp"
#include "obs/analyzer.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "service/scheduler.hpp"
#include "service/workload.hpp"

namespace {

using namespace hdbscan;

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::vector<Point2> load_points(const std::string& path) {
  return ends_with(path, ".bin") ? data::load_binary(path)
                                 : data::load_csv(path);
}

void save_points(const std::string& path, const std::vector<Point2>& points) {
  if (ends_with(path, ".bin")) {
    data::save_binary(path, points);
  } else {
    data::save_csv(path, points);
  }
}

std::vector<int> parse_int_list(const std::string& csv) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    out.push_back(std::atoi(csv.c_str() + pos));
    const std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<float> parse_float_list(const std::string& csv) {
  std::vector<float> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    out.push_back(std::strtof(csv.c_str() + pos, nullptr));
    const std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  hdbscan_cli gen <SW1|SW4|SDSS1|SDSS2|SDSS3|uniform> <n> <out>\n"
      "  hdbscan_cli cluster <in> <eps> <minpts> [labels_out] [--map]"
      " [--streaming] [--fused] [--index=grid|bvh] [--shards k]\n"
      "               [--quality=exact|subsampled|cellgraph]"
      " [--sample-rate=S] [--quality-seed=SEED]\n"
      "  hdbscan_cli sweep <in> <eps_lo> <eps_hi> <step> <minpts>\n"
      "  hdbscan_cli reuse <in> <eps> <minpts,minpts,...> [threads]\n"
      "  hdbscan_cli table <in> <eps> <table_out.bin>\n"
      "  hdbscan_cli optics <in> <eps> <minpts> <eps',eps',...>\n"
      "  hdbscan_cli chaos <SW1|SW4|SDSS1|SDSS2|SDSS3|uniform> <n> <seed>"
      " [devices]\n"
      "  hdbscan_cli perf-smoke [n]\n"
      "  hdbscan_cli fused-smoke [n]\n"
      "  hdbscan_cli approx-smoke [n]\n"
      "  hdbscan_cli stream-smoke [n]\n"
      "  hdbscan_cli shard-smoke [n]\n"
      "  hdbscan_cli profile <SW1|SW4|SDSS1|SDSS2|SDSS3|uniform> <n>"
      " <variants> [--faults=SEED] [--selftest]\n"
      "  hdbscan_cli serve <SW1|...|uniform> <n> <jobs> [devices]"
      " [--workers=W] [--no-cache] [--no-coalesce] [--depth=D]"
      " [--budget-mb=M] [--seed=S]\n"
      "  hdbscan_cli replay <jobs_file> <name>=<points_file> [...]"
      " [--eps-ref=E] [serve flags]\n"
      "  hdbscan_cli serve-smoke [n]\n"
      "  hdbscan_cli overload-smoke [n]\n"
      "  hdbscan_cli explain <trace.json> [--top=K]\n"
      "  hdbscan_cli explain-smoke [n]\n"
      "serve/replay flags:\n"
      "  --slo-p99=SECONDS    per-tenant p99 latency target for the SLO"
      " report\n"
      "global flags (any subcommand):\n"
      "  --trace-out=FILE     enable tracing, write Perfetto trace JSON\n"
      "  --metrics-out=FILE   write the metrics registry as JSON\n"
      "  --postmortem-dir=DIR arm the flight recorder: job failures,"
      " breaker\n"
      "                       opens and device losses dump post-mortem"
      " JSON there\n");
  return 2;
}

/// Global observability flags, stripped from argv before dispatch.
struct ObsOptions {
  std::string trace_out;
  std::string metrics_out;
  std::string postmortem_dir;
};

int cmd_gen(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string kind = argv[2];
  const auto n = static_cast<std::size_t>(std::atoll(argv[3]));
  std::vector<Point2> points;
  if (kind == "uniform") {
    points = data::generate_uniform(n, 1, 35.0f, 35.0f);
  } else {
    points = data::make_dataset(kind, n);
  }
  save_points(argv[4], points);
  std::printf("wrote %zu points to %s\n", points.size(), argv[4]);
  return 0;
}

int cmd_cluster(int argc, char** argv) {
  // Strip --streaming/--fused/--index/--shards wherever they appear so the
  // positional args keep their places.
  bool streaming = false;
  bool fused = false;
  IndexBackend backend = IndexBackend::kGrid;
  unsigned shards = 0;
  QualitySpec quality;
  bool sample_rate_set = false;
  for (int i = 2; i < argc;) {
    int consumed = 0;
    if (std::strcmp(argv[i], "--streaming") == 0) {
      streaming = true;
      consumed = 1;
    } else if (std::strcmp(argv[i], "--fused") == 0) {
      fused = true;
      consumed = 1;
    } else if (std::strncmp(argv[i], "--quality=", 10) == 0) {
      const auto parsed = parse_cluster_quality(argv[i] + 10);
      if (!parsed) {
        std::fprintf(stderr, "cluster: unknown quality '%s'"
                     " (exact|subsampled|cellgraph)\n", argv[i] + 10);
        return 2;
      }
      quality.mode = *parsed;
      consumed = 1;
    } else if (std::strncmp(argv[i], "--sample-rate=", 14) == 0) {
      quality.sample_rate = std::strtof(argv[i] + 14, nullptr);
      sample_rate_set = true;
      consumed = 1;
    } else if (std::strncmp(argv[i], "--quality-seed=", 15) == 0) {
      quality.seed = std::strtoull(argv[i] + 15, nullptr, 10);
      consumed = 1;
    } else if (std::strncmp(argv[i], "--index=", 8) == 0) {
      const auto parsed = parse_index_backend(argv[i] + 8);
      if (!parsed) {
        std::fprintf(stderr, "cluster: unknown index backend '%s'"
                     " (grid|bvh)\n", argv[i] + 8);
        return 2;
      }
      backend = *parsed;
      consumed = 1;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<unsigned>(std::max(1, std::atoi(argv[i + 1])));
      consumed = 2;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<unsigned>(std::max(1, std::atoi(argv[i] + 9)));
      consumed = 1;
    }
    if (consumed == 0) {
      ++i;
      continue;
    }
    for (int j = i; j + consumed < argc; ++j) argv[j] = argv[j + consumed];
    argc -= consumed;
  }
  if (argc < 5) return usage();
  if (quality.mode == ClusterQuality::kCellGraph && fused) {
    std::fprintf(stderr,
                 "cluster: --quality=cellgraph is incompatible with --fused:"
                 " the cell graph replaces the traversal kernel the fused"
                 " path would fuse into\n");
    return 2;
  }
  if (sample_rate_set && quality.mode != ClusterQuality::kSubsampled) {
    std::fprintf(stderr,
                 "cluster: --sample-rate requires --quality=subsampled\n");
    return 2;
  }
  if (quality.mode == ClusterQuality::kSubsampled &&
      !(quality.sample_rate > 0.0f && quality.sample_rate <= 1.0f)) {
    std::fprintf(stderr, "cluster: --sample-rate must be in (0, 1], got %g\n",
                 static_cast<double>(quality.sample_rate));
    return 2;
  }
  const auto points = load_points(argv[2]);
  const float eps = std::strtof(argv[3], nullptr);
  const int minpts = std::atoi(argv[4]);
  const bool want_map = argc > 5 && std::string(argv[argc - 1]) == "--map";
  const ClusterMode mode = fused       ? ClusterMode::kFused
                           : streaming ? ClusterMode::kStreaming
                                       : ClusterMode::kBatchTable;
  // One simulated device per shard; without --shards a fleet of one builds
  // the whole index unsharded.
  const unsigned num_devices = std::max(1u, shards);
  std::vector<std::unique_ptr<cudasim::Device>> fleet;
  std::vector<cudasim::Device*> fleet_ptrs;
  for (unsigned d = 0; d < num_devices; ++d) {
    fleet.push_back(std::make_unique<cudasim::Device>());
    fleet_ptrs.push_back(fleet.back().get());
  }
  ShardedBuildOptions options;
  options.num_shards = shards;
  options.policy.index_backend = backend;
  options.policy.quality = quality;

  HybridTimings timings;
  const ClusterResult result = hybrid_dbscan(fleet_ptrs, points, eps, minpts,
                                             &timings, options, mode);
  const BuildReport& br = timings.build_report;
  if (br.shards != 0) {
    std::printf("sharded build: %u shards on %u devices, %llu halo ghosts"
                " (%.1f%% of points), %llu cross-shard pairs\n",
                br.shards, num_devices,
                static_cast<unsigned long long>(br.halo_ghost_points),
                100.0 * static_cast<double>(br.halo_ghost_points) /
                    static_cast<double>(std::max<std::size_t>(1,
                                                              points.size())),
                static_cast<unsigned long long>(br.cross_shard_pairs));
  }
  std::printf("%zu points, eps=%g minpts=%d -> %d clusters, %zu noise"
              " (%.3f s, modeled %.3f s)\n",
              points.size(), eps, minpts, result.num_clusters,
              result.noise_count(), timings.total_seconds,
              timings.modeled_total_seconds);
  if (quality.mode == ClusterQuality::kSubsampled) {
    std::printf("quality=subsampled rate=%g seed=%llu: core threshold"
                " rescaled %d -> %d (SNG), labels seed-deterministic\n",
                static_cast<double>(quality.sample_rate),
                static_cast<unsigned long long>(quality.seed), minpts,
                quality.scaled_minpts(minpts));
  } else if (quality.mode == ClusterQuality::kCellGraph) {
    std::printf("quality=cellgraph: no table materialized, %llu boundary"
                " distance tests\n",
                static_cast<unsigned long long>(
                    timings.build_report.total_pairs));
  }
  if (timings.fused) {
    // The unions run inside the traversal kernel, so there is no separate
    // union phase to overlap; report how many edges the kernel settled.
    std::printf("fused [%s index]: no table materialized, %llu pairs"
                " traversed, %.0f%% of edges settled inside the kernel"
                " (%.3f s tail), %llu parked-edge bytes D2H, consumer peak"
                " %zu bytes\n",
                std::string(to_string(br.index_backend)).c_str(),
                static_cast<unsigned long long>(br.total_pairs),
                100.0 * timings.streamed_edge_fraction,
                timings.finalize_seconds,
                static_cast<unsigned long long>(br.d2h_bytes),
                timings.peak_consumer_bytes);
  } else if (timings.streamed) {
    std::printf("streaming: %.0f%% of the union work overlapped the build"
                " (%.3f s hidden, %.3f s tail), consumer peak %zu bytes\n",
                100.0 * timings.overlap_fraction, timings.consume_seconds,
                timings.finalize_seconds, timings.peak_consumer_bytes);
  }

  const auto stats = analysis::compute_cluster_stats(points, result);
  for (std::size_t i = 0; i < stats.size() && i < 10; ++i) {
    std::printf("  cluster %2d: %7zu pts  centroid (%.2f, %.2f)\n",
                stats[i].cluster, stats[i].size, stats[i].centroid.x,
                stats[i].centroid.y);
  }
  if (want_map) {
    std::printf("%s", analysis::ascii_cluster_map(points, result, 72, 24).c_str());
  }
  if (argc > 5 && std::string(argv[5]) != "--map") {
    std::FILE* out = std::fopen(argv[5], "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[5]);
      return 1;
    }
    for (const std::int32_t l : result.labels) std::fprintf(out, "%d\n", l);
    std::fclose(out);
    std::printf("labels written to %s\n", argv[5]);
  }
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 7) return usage();
  const auto points = load_points(argv[2]);
  const float lo = std::strtof(argv[3], nullptr);
  const float hi = std::strtof(argv[4], nullptr);
  const float step = std::strtof(argv[5], nullptr);
  const int minpts = std::atoi(argv[6]);
  if (!(step > 0.0f) || hi < lo) {
    std::fprintf(stderr, "bad sweep range\n");
    return 2;
  }
  std::vector<Variant> variants;
  for (float e = lo; e <= hi + 1e-6f; e += step) variants.push_back({e, minpts});

  cudasim::Device device;
  const PipelineReport report =
      run_multi_clustering(device, points, variants, {});
  std::printf("%6s %10s %10s %12s %12s\n", "eps", "clusters", "noise",
              "T (s)", "DBSCAN (s)");
  for (const VariantTiming& t : report.variants) {
    std::printf("%6.3f %10d %10zu %12.3f %12.3f\n", t.variant.eps,
                t.num_clusters, t.noise_count, t.table_seconds,
                t.dbscan_seconds);
  }
  std::printf("pipelined total: %.3f s for %zu variants\n",
              report.total_seconds, variants.size());
  return 0;
}

int cmd_reuse(int argc, char** argv) {
  if (argc < 5) return usage();
  const auto points = load_points(argv[2]);
  const float eps = std::strtof(argv[3], nullptr);
  const std::vector<int> minpts = parse_int_list(argv[4]);
  const unsigned threads =
      argc > 5 ? static_cast<unsigned>(std::atoi(argv[5])) : 4u;
  if (minpts.empty()) return usage();

  cudasim::Device device;
  std::vector<ClusterResult> results;
  const ReuseReport report =
      cluster_minpts_sweep(device, points, eps, minpts, threads, {}, &results);
  std::printf("T built once (%.3f s); %zu minpts variants on %u threads"
              " (%.3f s):\n",
              report.table_seconds, minpts.size(), threads,
              report.dbscan_wall_seconds);
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    std::printf("  minpts %5d -> %6d clusters, %8zu noise\n", minpts[i],
                results[i].num_clusters, results[i].noise_count());
  }
  return 0;
}

int cmd_table(int argc, char** argv) {
  if (argc < 5) return usage();
  const auto points = load_points(argv[2]);
  const float eps = std::strtof(argv[3], nullptr);
  cudasim::Device device;
  const GridIndex index = build_grid_index(points, eps);
  NeighborTableBuilder builder(device);
  BuildReport report;
  const NeighborTable table = builder.build(index, eps, &report);
  save_neighbor_table(argv[4], table, eps);
  std::printf("neighbor table: %llu pairs in %u batches (%.3f s) -> %s\n",
              static_cast<unsigned long long>(report.total_pairs),
              report.batches_run, report.table_seconds, argv[4]);
  std::printf("note: the table indexes the grid ordering; pair it with the"
              " same eps when loading.\n");
  return 0;
}

int cmd_optics(int argc, char** argv) {
  if (argc < 6) return usage();
  const auto points = load_points(argv[2]);
  const float eps = std::strtof(argv[3], nullptr);
  const int minpts = std::atoi(argv[4]);
  const std::vector<float> eps_primes = parse_float_list(argv[5]);

  cudasim::Device device;
  const GridIndex index = build_grid_index(points, eps);
  NeighborTableBuilder builder(device);
  const NeighborTable table = builder.build(index, eps);
  const OpticsResult ordering = optics(index.points, table, eps, minpts);
  std::printf("%8s %10s %10s\n", "eps'", "clusters", "noise");
  for (const float ep : eps_primes) {
    if (ep > eps) {
      std::printf("%8.3f   (skipped: exceeds table eps %g)\n", ep, eps);
      continue;
    }
    const ClusterResult r = extract_dbscan_clustering(ordering, ep);
    std::printf("%8.3f %10d %10zu\n", ep, r.num_clusters, r.noise_count());
  }
  return 0;
}

int cmd_chaos(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string kind = argv[2];
  const auto n = static_cast<std::size_t>(std::atoll(argv[3]));
  const auto seed = static_cast<std::uint64_t>(std::atoll(argv[4]));
  const unsigned num_devices =
      argc > 5 ? std::max(1, std::atoi(argv[5])) : 2u;
  const float eps = 0.5f;
  const int minpts = 4;

  // Fault plans and firings flow through the tracer (instants in the
  // "chaos" / "fault" categories) instead of per-device printouts, so a
  // --trace-out run shows exactly where each fault landed on the timeline.
  if (obs::kTraceCompiled && !obs::tracing_enabled()) {
    obs::Tracer::global().enable();
  }
  obs::set_thread_track(obs::kHostPid, "chaos");

  const std::vector<Point2> points =
      kind == "uniform" ? data::generate_uniform(n, seed, 35.0f, 35.0f)
                        : data::make_dataset(kind, n);
  const GridIndex index = build_grid_index(points, eps);
  NeighborTable oracle = build_neighbor_table_host_parallel(index, eps);
  oracle.canonicalize();

  cudasim::SimulationOptions sim;
  sim.throttle_transfers = false;
  sim.throttle_pinned_alloc = false;
  std::vector<std::unique_ptr<cudasim::Device>> devices;
  std::vector<cudasim::Device*> device_ptrs;
  for (unsigned d = 0; d < num_devices; ++d) {
    const auto plan = cudasim::FaultPlan::randomized(seed + 17 * d);
    TRACE_INSTANT("chaos", "plan d%u: %s", d, plan.describe().c_str());
    if (!obs::kTraceCompiled) {
      // Tracing compiled out: fall back to the legacy printout so the
      // plans stay observable.
      std::printf("device %u plan: %s\n", d, plan.describe().c_str());
    }
    cudasim::SimulationOptions opt = sim;
    opt.fault = std::make_shared<cudasim::FaultInjector>(plan);
    devices.push_back(
        std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, opt));
    device_ptrs.push_back(devices.back().get());
  }

  // Many small batches so the scripted faults land mid-build; every rung
  // of the ladder is armed, down to the host fallback.
  BatchPolicy policy;
  policy.estimated_total_override = std::max<std::uint64_t>(
      1, oracle.total_pairs());
  policy.static_threshold_pairs = 1;
  policy.static_buffer_pairs =
      std::max<std::uint64_t>(1, oracle.total_pairs() / 24);
  policy.resilience.host_fallback = true;

  NeighborTableBuilder builder(device_ptrs, policy);
  BuildReport report;
  NeighborTable table;
  try {
    table = builder.build(index, eps, &report);
  } catch (const std::exception& e) {
    // The wrapper classified the escape into the structured taxonomy
    // before rethrowing — print it so a dead chaos run is diagnosable
    // from the one-line summary alone.
    std::fprintf(stderr, "chaos: build failed [%s]: %s\n",
                 failure_reason_name(report.failure), e.what());
    return 1;
  }
  std::printf(
      "build survived: %u batches, %llu pairs | retries: %u transient,"
      " %u alloc | %u devices lost, %u batches failed over, %u finished"
      " on host%s | failure=%s\n",
      report.batches_run,
      static_cast<unsigned long long>(report.total_pairs),
      report.transient_retries, report.alloc_retries, report.devices_lost,
      report.failover_batches, report.host_fallback_batches,
      report.used_host_fallback ? " (host fallback)" : "",
      failure_reason_name(report.failure));

  // Roll the per-device end state into the metrics registry (exported via
  // --metrics-out) and summarize what the tracer saw of the fault storm.
  for (unsigned d = 0; d < num_devices; ++d) {
    publish_device_metrics(devices[d]->id(), devices[d]->metrics());
  }
  if (obs::kTraceCompiled) {
    std::size_t fault_events = 0;
    for (const obs::TraceEvent& e : obs::Tracer::global().snapshot()) {
      if (e.type == obs::EventType::kInstant &&
          std::strcmp(e.category, "fault") == 0) {
        ++fault_events;
      }
    }
    std::printf("chaos: %zu fault events traced across %u devices\n",
                fault_events, num_devices);
  }

  int violations = 0;
  table.canonicalize();
  if (!table.identical_to(oracle)) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATED: degraded table differs from the host"
                 " oracle (%zu vs %zu pairs)\n",
                 table.total_pairs(), oracle.total_pairs());
    ++violations;
  }
  for (unsigned d = 0; d < num_devices; ++d) {
    devices[d]->pool().trim();  // cached pool scratch is not a leak
    if (devices[d]->used_global_bytes() != 0) {
      std::fprintf(stderr,
                   "INVARIANT VIOLATED: device %u leaks %zu bytes after the"
                   " build\n",
                   d, devices[d]->used_global_bytes());
      ++violations;
    }
  }
  const ClusterResult got = dbscan_neighbor_table(table, minpts);
  const ClusterResult want = dbscan_neighbor_table(oracle, minpts);
  if (got.num_clusters != want.num_clusters ||
      got.noise_count() != want.noise_count()) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATED: clustering differs (%d/%zu vs"
                 " %d/%zu clusters/noise)\n",
                 got.num_clusters, got.noise_count(), want.num_clusters,
                 want.noise_count());
    ++violations;
  }
  if (violations != 0) return 1;
  std::printf("chaos: all invariants held (%zu points, %u devices,"
              " seed %llu)\n",
              points.size(), num_devices,
              static_cast<unsigned long long>(seed));
  return 0;
}

// Streaming overlap gate (the stream_smoke CTest target): builds one
// variant in ClusterMode::kStreaming and checks (1) per-point degrees
// match the host oracle — any dropped or doubled batch delivery on the
// retry/split/failover ladder skews one — (2) the streamed labels are
// DBSCAN-equivalent to batch DBSCAN over the oracle table, and (3) a
// nonzero share of the union work actually overlapped the build. Also run
// under the thread-sanitizer config: consume() executes concurrently on
// the builder's stream threads.
int cmd_stream_smoke(int argc, char** argv) {
  const std::size_t n =
      argc >= 3 ? static_cast<std::size_t>(std::atoll(argv[2])) : 8000;
  const float eps = 0.35f;
  const int minpts = 4;
  const auto points = data::generate_space_weather(
      n, 9, {.width = 10.0f, .height = 10.0f});
  const GridIndex index = build_grid_index(points, eps);
  const NeighborTable oracle = build_neighbor_table_host_parallel(index, eps);

  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;

  // Many small batches so deliveries genuinely interleave with the fill.
  BatchPolicy policy;
  policy.estimated_total_override =
      std::max<std::uint64_t>(1, oracle.total_pairs());
  policy.static_threshold_pairs = 1;
  policy.static_buffer_pairs =
      std::max<std::uint64_t>(1, oracle.total_pairs() / 16);

  cudasim::Device device({}, opt);
  StreamingDbscan consumer(index.size(), minpts);
  NeighborTableBuilder builder(device, policy);
  BuildReport report;
  builder.build(index, eps, &report, &consumer,
                /*materialize_table=*/false);

  int violations = 0;
  for (PointId i = 0; i < index.size(); ++i) {
    if (consumer.degree(i) != oracle.neighbor_count(i)) {
      std::fprintf(stderr,
                   "stream_smoke FAILED: degree mismatch at point %u"
                   " (%u vs oracle %u) — batch delivered twice or lost\n",
                   i, consumer.degree(i), oracle.neighbor_count(i));
      ++violations;
      break;
    }
  }

  const ClusterResult streamed = consumer.finalize();
  const ClusterResult batch = dbscan_parallel(oracle, minpts);
  const auto outcome = compare_clusterings(streamed, batch, oracle, minpts);
  if (!outcome.equivalent) {
    std::fprintf(stderr, "stream_smoke FAILED: %s\n",
                 outcome.diagnostic.c_str());
    ++violations;
  }

  const StreamingDbscan::Stats& st = consumer.stats();
  const std::uint64_t table_bytes =
      oracle.total_pairs() * sizeof(PointId) +
      oracle.num_points() * 2 * sizeof(std::uint32_t);
  std::printf("stream_smoke: n=%zu batches=%llu edges=%llu streamed=%.3f"
              " overlap=%.3f consume=%.6fs tail=%.6fs peak=%zuB"
              " (table would be %lluB)\n",
              points.size(),
              static_cast<unsigned long long>(report.sink_batches),
              static_cast<unsigned long long>(st.edges_seen),
              st.streamed_fraction(), st.overlap_fraction(),
              st.consume_seconds, st.finalize_seconds,
              consumer.peak_memory_bytes(),
              static_cast<unsigned long long>(table_bytes));
  if (report.sink_batches == 0) {
    std::fprintf(stderr, "stream_smoke FAILED: no batch was delivered\n");
    ++violations;
  }
  if (!(st.overlap_fraction() > 0.0)) {
    std::fprintf(stderr,
                 "stream_smoke FAILED: no union work overlapped the build"
                 " (overlap fraction %.3f)\n",
                 st.overlap_fraction());
    ++violations;
  }
  if (report.table_materialized) {
    std::fprintf(stderr,
                 "stream_smoke FAILED: the table was materialized anyway\n");
    ++violations;
  }
  return violations == 0 ? 0 : 1;
}

// Sharded-build gate (the shard_smoke CTest target): k=3 spatial shards on
// three devices, one of which is scripted to die mid-build, with a
// streaming consumer attached AND the table materialized. Checks that the
// re-partition rung put every slab somewhere (exact table vs the host
// oracle, exact per-point degrees through the dedup ledger), that the
// report accounts the loss, and that no survivor leaks device memory.
// Also run under the thread-sanitizer config: shard builds run
// concurrently on their own host threads and share the ledger and the
// downstream consumer.
int cmd_shard_smoke(int argc, char** argv) {
  const std::size_t n =
      argc >= 3 ? static_cast<std::size_t>(std::atoll(argv[2])) : 6000;
  const float eps = 0.35f;
  const int minpts = 4;
  const auto points = data::generate_space_weather(
      n, 13, {.width = 10.0f, .height = 10.0f});
  const GridIndex index = build_grid_index(points, eps);
  NeighborTable oracle = build_neighbor_table_host_parallel(index, eps);

  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  std::vector<std::unique_ptr<cudasim::Device>> devices;
  std::vector<cudasim::Device*> device_ptrs;
  for (unsigned d = 0; d < 3; ++d) {
    cudasim::SimulationOptions dev_opt = opt;
    if (d == 1) {
      cudasim::FaultPlan lost;
      lost.lost_at_op = 40;  // dies with its shard mid-build
      dev_opt.fault = std::make_shared<cudasim::FaultInjector>(lost);
    }
    devices.push_back(
        std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, dev_opt));
    device_ptrs.push_back(devices.back().get());
  }

  ShardedBuildOptions options;
  options.num_shards = 3;
  options.policy.estimated_total_override =
      std::max<std::uint64_t>(1, oracle.total_pairs());
  options.policy.static_threshold_pairs = 1;
  options.policy.static_buffer_pairs =
      std::max<std::uint64_t>(1, oracle.total_pairs() / 24);

  StreamingDbscan consumer(index.size(), minpts);
  BuildReport report;
  NeighborTable table = build_sharded_neighbor_table(
      device_ptrs, index, eps, options, &report, &consumer,
      /*materialize_table=*/true);

  std::printf("shard_smoke: n=%zu shards=%u repartitions=%u lost=%u"
              " ghosts=%llu cross=%llu modeled=%.6fs\n",
              points.size(), report.shards, report.shard_repartitions,
              report.devices_lost,
              static_cast<unsigned long long>(report.halo_ghost_points),
              static_cast<unsigned long long>(report.cross_shard_pairs),
              report.modeled_table_seconds);

  int violations = 0;
  table.canonicalize();
  oracle.canonicalize();
  if (!table.identical_to(oracle)) {
    std::fprintf(stderr,
                 "shard_smoke FAILED: merged table differs from the host"
                 " oracle (%zu vs %zu pairs)\n",
                 table.total_pairs(), oracle.total_pairs());
    ++violations;
  }
  for (PointId i = 0; i < index.size(); ++i) {
    if (consumer.degree(i) != oracle.neighbor_count(i)) {
      std::fprintf(stderr,
                   "shard_smoke FAILED: degree mismatch at point %u"
                   " (%u vs oracle %u) — cross-shard edge delivered twice"
                   " or lost\n",
                   i, consumer.degree(i), oracle.neighbor_count(i));
      ++violations;
      break;
    }
  }
  const ClusterResult streamed = consumer.finalize();
  const ClusterResult batch = dbscan_parallel(oracle, minpts);
  const auto outcome = compare_clusterings(streamed, batch, oracle, minpts);
  if (!outcome.equivalent) {
    std::fprintf(stderr, "shard_smoke FAILED: %s\n",
                 outcome.diagnostic.c_str());
    ++violations;
  }
  if (report.devices_lost != 1) {
    std::fprintf(stderr,
                 "shard_smoke FAILED: expected exactly one device loss,"
                 " report says %u\n",
                 report.devices_lost);
    ++violations;
  }
  if (report.shard_repartitions == 0) {
    std::fprintf(stderr,
                 "shard_smoke FAILED: the dead shard was never"
                 " re-partitioned\n");
    ++violations;
  }
  for (unsigned d = 0; d < devices.size(); ++d) {
    if (devices[d]->lost()) continue;
    devices[d]->pool().trim();  // cached pool scratch is not a leak
    if (devices[d]->used_global_bytes() != 0) {
      std::fprintf(stderr,
                   "shard_smoke FAILED: device %u leaks %zu bytes\n", d,
                   devices[d]->used_global_bytes());
      ++violations;
    }
  }
  if (violations == 0) {
    std::printf("shard_smoke: all invariants held (1 device lost, labels"
                " and table exact)\n");
  }
  return violations == 0 ? 0 : 1;
}

// Perf regression gate (the perf_smoke CTest target): a tiny A/B build of
// the same index under ScanMode::kFull and ScanMode::kHalf. The half scan
// must produce the same table while spending at most 0.6x the distance-test
// FLOPs — if pair pruning ever regresses, this exits nonzero.
int cmd_perf_smoke(int argc, char** argv) {
  const std::size_t n =
      argc >= 3 ? static_cast<std::size_t>(std::atoll(argv[2])) : 6000;
  const float eps = 0.3f;
  const auto points = data::generate_uniform(n, 5, 8.0f, 8.0f);
  const GridIndex index = build_grid_index(points, eps);

  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;

  BatchPolicy policy;
  BuildReport full_report, half_report;
  policy.scan_mode = ScanMode::kFull;
  cudasim::Device full_dev({}, opt);
  NeighborTable full =
      NeighborTableBuilder(full_dev, policy)
          .build(index, eps, &full_report);
  policy.scan_mode = ScanMode::kHalf;
  cudasim::Device half_dev({}, opt);
  NeighborTable half =
      NeighborTableBuilder(half_dev, policy)
          .build(index, eps, &half_report);

  const double ratio =
      full_report.kernel_flops == 0
          ? 1.0
          : static_cast<double>(half_report.kernel_flops) /
                static_cast<double>(full_report.kernel_flops);
  std::printf("perf_smoke: n=%zu flops full=%llu half=%llu ratio=%.3f"
              " modeled full=%.6fs half=%.6fs d2h full=%llu half=%llu\n",
              points.size(),
              static_cast<unsigned long long>(full_report.kernel_flops),
              static_cast<unsigned long long>(half_report.kernel_flops),
              ratio, full_report.modeled_table_seconds,
              half_report.modeled_table_seconds,
              static_cast<unsigned long long>(full_report.d2h_bytes),
              static_cast<unsigned long long>(half_report.d2h_bytes));

  int violations = 0;
  if (ratio > 0.6) {
    std::fprintf(stderr,
                 "perf_smoke FAILED: half/full flop ratio %.3f > 0.6\n",
                 ratio);
    ++violations;
  }
  full.canonicalize();
  half.canonicalize();
  if (!half.identical_to(full)) {
    std::fprintf(stderr,
                 "perf_smoke FAILED: half table differs from full"
                 " (%zu vs %zu pairs)\n",
                 half.total_pairs(), full.total_pairs());
    ++violations;
  }
  if (half_report.d2h_bytes >= full_report.d2h_bytes) {
    std::fprintf(stderr,
                 "perf_smoke FAILED: half scan did not reduce D2H traffic\n");
    ++violations;
  }
  return violations == 0 ? 0 : 1;
}

// Fused no-table gate (the fused_smoke CTest target): clusters a skewed
// dataset four ways — batch table (the oracle), streaming-grid, fused on
// the grid backend, and fused on the BVH backend (the latter across two
// devices, so the fused pump threads and the shared union-find run
// concurrently — the thread-sanitizer surface). Exits nonzero unless both
// fused label vectors are bit-identical to batch DBSCAN, no table was
// materialized, fused D2H traffic (parked edges only) undercuts the batch
// build's, fused-BVH beats streaming-grid on modeled time, and no device
// leaks.
int cmd_fused_smoke(int argc, char** argv) {
  const std::size_t n =
      argc >= 3 ? static_cast<std::size_t>(std::atoll(argv[2])) : 6000;
  const float eps = 0.35f;
  const int minpts = 4;
  // Skewed density: the workload where leaf-pruned BVH traversal beats
  // eps-cell stenciling (overflowing hot cells).
  const auto points = data::generate_space_weather(
      n, 21, {.width = 10.0f, .height = 10.0f});

  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;

  // Batch-table oracle.
  HybridTimings batch_t;
  cudasim::Device batch_dev({}, opt);
  const ClusterResult batch =
      hybrid_dbscan(batch_dev, points, eps, minpts, &batch_t);

  // Streaming-grid: the fastest pre-existing mode, the bar to beat.
  HybridTimings stream_t;
  cudasim::Device stream_dev({}, opt);
  const ClusterResult streamed =
      hybrid_dbscan(stream_dev, points, eps, minpts, &stream_t, {},
                    ClusterMode::kStreaming);

  // Fused on the grid backend, single device.
  BatchPolicy grid_policy;
  HybridTimings fg_t;
  cudasim::Device fused_grid_dev({}, opt);
  const ClusterResult fused_grid =
      hybrid_dbscan(fused_grid_dev, points, eps, minpts, &fg_t, grid_policy,
                    ClusterMode::kFused);

  // Fused on the BVH backend, single device (the modeled-time contender).
  BatchPolicy bvh_policy;
  bvh_policy.index_backend = IndexBackend::kBvh;
  HybridTimings fb_t;
  cudasim::Device fused_bvh_dev({}, opt);
  const ClusterResult fused_bvh =
      hybrid_dbscan(fused_bvh_dev, points, eps, minpts, &fb_t, bvh_policy,
                    ClusterMode::kFused);

  // Fused BVH across two devices: interleaved batches union into one
  // shared AtomicUnionFind from concurrent pump threads.
  std::vector<std::unique_ptr<cudasim::Device>> fleet;
  std::vector<cudasim::Device*> fleet_ptrs;
  for (unsigned d = 0; d < 2; ++d) {
    fleet.push_back(
        std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, opt));
    fleet_ptrs.push_back(fleet.back().get());
  }
  ShardedBuildOptions fleet_opt;
  fleet_opt.policy = bvh_policy;
  HybridTimings fleet_t;
  const ClusterResult fused_fleet = hybrid_dbscan(
      fleet_ptrs, points, eps, minpts, &fleet_t, fleet_opt,
      ClusterMode::kFused);

  std::printf(
      "fused_smoke: n=%zu modeled batch=%.6fs stream-grid=%.6fs"
      " fused-grid=%.6fs fused-bvh=%.6fs fused-bvh-x2=%.6fs\n",
      points.size(), batch_t.modeled_total_seconds,
      stream_t.modeled_total_seconds, fg_t.modeled_total_seconds,
      fb_t.modeled_total_seconds, fleet_t.modeled_total_seconds);
  std::printf(
      "fused_smoke: d2h batch=%llu fused-bvh=%llu (parked edges only),"
      " pairs traversed=%llu\n",
      static_cast<unsigned long long>(batch_t.build_report.d2h_bytes),
      static_cast<unsigned long long>(fb_t.build_report.d2h_bytes),
      static_cast<unsigned long long>(fb_t.build_report.total_pairs));

  int violations = 0;
  auto expect_identical = [&](const ClusterResult& got, const char* what) {
    if (got.labels != batch.labels) {
      std::fprintf(stderr,
                   "fused_smoke FAILED: %s labels are not bit-identical to"
                   " batch DBSCAN (%d vs %d clusters, %zu vs %zu noise)\n",
                   what, got.num_clusters, batch.num_clusters,
                   got.noise_count(), batch.noise_count());
      ++violations;
    }
  };
  expect_identical(streamed, "streaming-grid");
  expect_identical(fused_grid, "fused-grid");
  expect_identical(fused_bvh, "fused-bvh");
  expect_identical(fused_fleet, "fused-bvh two-device");

  for (const HybridTimings* t : {&fg_t, &fb_t, &fleet_t}) {
    if (!t->fused || t->build_report.table_materialized) {
      std::fprintf(stderr,
                   "fused_smoke FAILED: a fused run materialized the"
                   " table\n");
      ++violations;
    }
  }
  if (fb_t.build_report.d2h_bytes >= batch_t.build_report.d2h_bytes) {
    std::fprintf(stderr,
                 "fused_smoke FAILED: fused D2H (%llu B) does not undercut"
                 " the batch build (%llu B)\n",
                 static_cast<unsigned long long>(
                     fb_t.build_report.d2h_bytes),
                 static_cast<unsigned long long>(
                     batch_t.build_report.d2h_bytes));
    ++violations;
  }
  if (!(fb_t.modeled_total_seconds < stream_t.modeled_total_seconds)) {
    std::fprintf(stderr,
                 "fused_smoke FAILED: fused-BVH modeled %.6fs does not beat"
                 " streaming-grid %.6fs on the skewed workload\n",
                 fb_t.modeled_total_seconds, stream_t.modeled_total_seconds);
    ++violations;
  }
  auto expect_leak_free = [&](cudasim::Device& d, const char* what) {
    d.pool().trim();
    if (d.used_global_bytes() != 0) {
      std::fprintf(stderr, "fused_smoke FAILED: %s leaks %zu bytes\n", what,
                   d.used_global_bytes());
      ++violations;
    }
  };
  expect_leak_free(fused_grid_dev, "fused-grid device");
  expect_leak_free(fused_bvh_dev, "fused-bvh device");
  for (auto& d : fleet) expect_leak_free(*d, "fleet device");

  if (violations == 0) {
    std::printf("fused_smoke: all invariants held (labels bit-identical,"
                " no table, fused-BVH %.2fx faster than streaming-grid"
                " modeled)\n",
                stream_t.modeled_total_seconds /
                    std::max(1e-12, fb_t.modeled_total_seconds));
  }
  return violations == 0 ? 0 : 1;
}

/// approx-smoke: the quality-knob gate. On a well-separated scenario the
/// approximate modes must agree with exact DBSCAN (rand index >= 0.99),
/// subsampled labels must be bit-identical across runs for a fixed seed,
/// the cell graph must materialize no table and test far fewer pairs than
/// the exact build, and cellgraph + fused must be rejected.
int cmd_approx_smoke(int argc, char** argv) {
  const std::size_t n =
      argc >= 3 ? static_cast<std::size_t>(std::atoll(argv[2])) : 8000;
  const float eps = 0.5f;
  const int minpts = 8;

  // Well-separated by construction: six dense 2x2-unit clusters on a
  // 20-unit pitch. Any correct clustering recovers exactly this 6-way
  // partition, so the rand-index gate is sharp rather than statistical.
  std::vector<Point2> points;
  points.reserve(n);
  std::uint64_t s = 0xdecafbadu;
  const auto jitter = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return 2.0f * static_cast<float>((s >> 33) & 0xffff) / 65536.0f;
  };
  const float cx[6] = {5.0f, 25.0f, 45.0f, 5.0f, 25.0f, 45.0f};
  const float cy[6] = {5.0f, 5.0f, 5.0f, 25.0f, 25.0f, 25.0f};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % 6;
    points.push_back({cx[c] + jitter(), cy[c] + jitter()});
  }

  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;

  HybridTimings exact_t;
  cudasim::Device exact_dev({}, opt);
  const ClusterResult exact =
      hybrid_dbscan(exact_dev, points, eps, minpts, &exact_t);

  BatchPolicy sub_policy;
  sub_policy.quality = {ClusterQuality::kSubsampled, 0.3f, 1234};
  HybridTimings sub_t;
  cudasim::Device sub_dev({}, opt);
  const ClusterResult sub1 =
      hybrid_dbscan(sub_dev, points, eps, minpts, &sub_t, sub_policy);
  const ClusterResult sub2 =
      hybrid_dbscan(sub_dev, points, eps, minpts, nullptr, sub_policy);

  BatchPolicy cg_policy;
  cg_policy.quality.mode = ClusterQuality::kCellGraph;
  HybridTimings cg_t;
  cudasim::Device cg_dev({}, opt);
  const ClusterResult cg =
      hybrid_dbscan(cg_dev, points, eps, minpts, &cg_t, cg_policy);
  CellGraphReport cg_report;
  const ClusterResult cg_direct =
      cell_graph_dbscan(points, eps, minpts, cg_dev.config(), &cg_report);

  const double sub_ri = rand_index(sub1.labels, exact.labels);
  const double cg_ri = rand_index(cg.labels, exact.labels);
  std::printf(
      "approx_smoke: n=%zu exact modeled=%.6fs subsampled(0.3) modeled=%.6fs"
      " cellgraph modeled=%.6fs\n",
      points.size(), exact_t.modeled_total_seconds,
      sub_t.modeled_total_seconds, cg_t.modeled_total_seconds);
  std::printf(
      "approx_smoke: rand index subsampled=%.6f cellgraph=%.6f;"
      " cell graph ran %llu distance tests vs %llu exact pairs\n",
      sub_ri, cg_ri,
      static_cast<unsigned long long>(cg_report.distance_tests),
      static_cast<unsigned long long>(exact_t.build_report.total_pairs));

  int violations = 0;
  if (sub1.labels != sub2.labels) {
    std::fprintf(stderr,
                 "approx_smoke FAILED: subsampled labels differ across two"
                 " runs with the same seed\n");
    ++violations;
  }
  if (sub_ri < 0.99) {
    std::fprintf(stderr,
                 "approx_smoke FAILED: subsampled rand index %.6f < 0.99 on"
                 " the separated scenario\n",
                 sub_ri);
    ++violations;
  }
  if (cg_ri < 0.99) {
    std::fprintf(stderr,
                 "approx_smoke FAILED: cellgraph rand index %.6f < 0.99 on"
                 " the separated scenario\n",
                 cg_ri);
    ++violations;
  }
  if (cg.labels != cg_direct.labels) {
    std::fprintf(stderr,
                 "approx_smoke FAILED: hybrid_dbscan cellgraph routing"
                 " diverges from cell_graph_dbscan\n");
    ++violations;
  }
  if (cg_t.build_report.table_materialized) {
    std::fprintf(stderr,
                 "approx_smoke FAILED: the cell-graph run materialized a"
                 " neighbor table\n");
    ++violations;
  }
  if (cg_report.distance_tests >= exact_t.build_report.total_pairs) {
    std::fprintf(stderr,
                 "approx_smoke FAILED: cell graph tested %llu pairs, not"
                 " under the exact build's %llu\n",
                 static_cast<unsigned long long>(cg_report.distance_tests),
                 static_cast<unsigned long long>(
                     exact_t.build_report.total_pairs));
    ++violations;
  }
  bool threw = false;
  try {
    (void)hybrid_dbscan(cg_dev, points, eps, minpts, nullptr, cg_policy,
                        ClusterMode::kFused);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  if (!threw) {
    std::fprintf(stderr,
                 "approx_smoke FAILED: cellgraph + fused was not rejected\n");
    ++violations;
  }

  if (violations == 0) {
    std::printf(
        "approx_smoke: all invariants held (seed-deterministic labels, rand"
        " index >= 0.99 both modes, no table, cellgraph %.1fx fewer"
        " distance tests)\n",
        static_cast<double>(exact_t.build_report.total_pairs) /
            std::max<double>(1.0,
                             static_cast<double>(cg_report.distance_tests)));
  }
  return violations == 0 ? 0 : 1;
}

int cmd_profile(int argc, char** argv, const ObsOptions& obs_opts) {
  if (argc < 5) return usage();
  const std::string kind = argv[2];
  const auto n = static_cast<std::size_t>(std::atoll(argv[3]));
  const int num_variants = std::max(1, std::atoi(argv[4]));
  bool selftest = false;
  bool with_faults = false;
  std::uint64_t fault_seed = 0;
  for (int i = 5; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg.rfind("--faults=", 0) == 0) {
      with_faults = true;
      fault_seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 9));
    } else {
      return usage();
    }
  }

  const std::vector<Point2> points =
      kind == "uniform" ? data::generate_uniform(n, 1, 35.0f, 35.0f)
                        : data::make_dataset(kind, n);

  // Figure-4-style variant set: an eps sweep at fixed minpts, clustered
  // through the pipelined producer/consumer path.
  std::vector<Variant> variants;
  variants.reserve(static_cast<std::size_t>(num_variants));
  for (int i = 0; i < num_variants; ++i) {
    variants.push_back({0.4f + 0.1f * static_cast<float>(i), 4});
  }

  cudasim::SimulationOptions sim;
  if (with_faults) {
    // Deterministic transient plan: launches 3 and 9 fail once each, which
    // the default retry ladder (max_transient_retries = 2) absorbs, so the
    // run succeeds while fault instants land in the trace.
    cudasim::FaultPlan plan;
    plan.seed = fault_seed;
    plan.transient_launches = {3, 9};
    sim.fault = std::make_shared<cudasim::FaultInjector>(plan);
  }
  cudasim::Device device(cudasim::DeviceConfig{}, sim);

  // Profiling is pointless without the tracer: always on here, regardless
  // of --trace-out (which only adds the file export).
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) tracer.enable();
  obs::set_thread_track(obs::kHostPid, "main");

  PipelineOptions options;
  options.pipelined = true;
  const PipelineReport report =
      run_multi_clustering(device, points, variants, options);
  publish_device_metrics(device.id(), device.metrics());

  std::printf("%zu points, %d variants (eps %.2f..%.2f, minpts 4),"
              " pipelined: %.3f s\n",
              points.size(), num_variants, variants.front().eps,
              variants.back().eps, report.total_seconds);

  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  const obs::TraceProfile profile = obs::profile_trace(events);
  std::printf("%-12s %8s %12s %14s\n", "phase", "spans", "busy (s)",
              "modeled (s)");
  for (const obs::PhaseStat& p : profile.phases) {
    std::printf("%-12s %8zu %12.4f %14.4f\n", p.category.c_str(), p.spans,
                p.busy_seconds, p.modeled_seconds);
  }
  std::printf("overlap ratio: %.2f (busy %.3f s / coverage %.3f s over"
              " %.3f s wall)\n",
              profile.overlap_ratio, profile.busy_seconds,
              profile.coverage_seconds, profile.wall_span_seconds);
  if (tracer.dropped() > 0) {
    std::printf("note: %llu events dropped (ring overflow; raise the"
                " per-thread capacity)\n",
                static_cast<unsigned long long>(tracer.dropped()));
  }

  // profile owns its exports (main skips the generic writer for this
  // subcommand): selftest has to re-read the file after it is written.
  const std::string trace_path = !obs_opts.trace_out.empty()
                                     ? obs_opts.trace_out
                                     : std::string("hdbscan_profile.json");
  std::string err;
  if (!obs::write_chrome_trace(trace_path, &err)) {
    std::fprintf(stderr, "trace export failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("trace written to %s\n", trace_path.c_str());
  if (!obs_opts.metrics_out.empty()) {
    if (!obs::write_metrics_json(obs_opts.metrics_out, &err)) {
      std::fprintf(stderr, "metrics export failed: %s\n", err.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", obs_opts.metrics_out.c_str());
  }

  if (selftest) {
    if (!obs::kTraceCompiled) {
      std::printf("selftest skipped: tracing compiled out"
                  " (HDBSCAN_TRACE_DISABLED)\n");
      return 0;
    }
    const obs::TraceValidation v = obs::validate_trace_file(trace_path);
    int failures = 0;
    auto check = [&](bool ok, const char* what) {
      if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
      }
    };
    check(v.ok, v.ok ? "" : v.error.c_str());
    check(v.complete_spans > 0, "no complete spans");
    check(!v.device_pids.empty(), "no device processes in trace");
    check(v.device_span_tracks >= v.device_pids.size(),
          "a device process has no span-carrying track");
    check(v.modeled_span_events > 0, "no modeled-time mirror spans");
    check(v.host_spans >= 1, "no host spans");
    if (with_faults) check(v.has_fault_instant, "no fault instants");
    if (failures != 0) return 1;
    std::printf("selftest passed: %zu events (%zu spans, %zu instants),"
                " %zu device processes, %zu modeled spans\n",
                v.events, v.complete_spans, v.instants,
                v.device_pids.size(), v.modeled_span_events);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Service front-end: serve / replay / serve-smoke / overload-smoke
// ---------------------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

/// Shared serve/replay flags, parsed (and stripped) from argv.
struct ServeFlags {
  service::ServiceOptions options;
  std::uint64_t seed = 42;
  float eps_ref = 0.9f;

  static ServeFlags parse(int& argc, char** argv) {
    ServeFlags f;
    f.options.cache_bytes_budget = 256ull << 20;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--no-cache") {
        f.options.cache_bytes_budget = 0;
      } else if (arg == "--no-coalesce") {
        f.options.coalesce = false;
      } else if (arg.rfind("--workers=", 0) == 0) {
        f.options.num_workers =
            static_cast<unsigned>(std::max(1, std::atoi(arg.c_str() + 10)));
      } else if (arg.rfind("--depth=", 0) == 0) {
        f.options.queue_depth_limit =
            static_cast<std::size_t>(std::max(1, std::atoi(arg.c_str() + 8)));
      } else if (arg.rfind("--budget-mb=", 0) == 0) {
        f.options.queue_bytes_budget =
            static_cast<std::uint64_t>(std::atoll(arg.c_str() + 12)) << 20;
      } else if (arg.rfind("--seed=", 0) == 0) {
        f.seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 7));
      } else if (arg.rfind("--eps-ref=", 0) == 0) {
        f.eps_ref = std::strtof(arg.c_str() + 10, nullptr);
      } else if (arg.rfind("--slo-p99=", 0) == 0) {
        f.options.slo_p99_target_seconds =
            std::strtod(arg.c_str() + 10, nullptr);
      } else {
        argv[w++] = argv[i];
        continue;
      }
    }
    argc = w;
    return f;
  }
};

void print_service_summary(const service::ClusterService& svc,
                           const std::vector<service::JobSpec>& jobs,
                           const std::vector<service::JobResult>& results) {
  const service::ServiceStats s = svc.stats();
  std::printf(
      "served %llu jobs: %llu completed, %llu rejected, %llu shed,"
      " %llu cancelled, %llu deadline-exceeded, %llu failed\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.deadline_exceeded),
      static_cast<unsigned long long>(s.failed));
  std::printf(
      "cache: %llu hits, %llu misses, %llu evictions | coalesced: %llu jobs"
      " across %llu shared builds | retries %llu, breaker opens %llu, host"
      " fallback jobs %llu\n",
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses),
      static_cast<unsigned long long>(s.cache_evictions),
      static_cast<unsigned long long>(s.coalesced_jobs),
      static_cast<unsigned long long>(s.coalesced_builds),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.breaker_opens),
      static_cast<unsigned long long>(s.host_fallback_jobs));
  std::vector<double> latencies;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].state == service::JobState::kCompleted) {
      latencies.push_back(
          results[i].modeled_latency_seconds(jobs[i].arrival_seconds));
    }
  }
  if (!latencies.empty()) {
    std::printf(
        "modeled latency: p50 %.4fs, p99 %.4fs | modeled makespan %.4fs |"
        " throughput %.1f jobs/s\n",
        percentile(latencies, 0.5), percentile(latencies, 0.99),
        s.modeled_makespan_seconds,
        s.modeled_makespan_seconds > 0.0
            ? static_cast<double>(s.completed) / s.modeled_makespan_seconds
            : 0.0);
  }

  // Per-tenant SLO report: wall-latency quantiles from the registry
  // histograms plus the outcome mix, one row per tenant.
  const std::vector<service::TenantSlo> slo = svc.slo_report();
  if (!slo.empty()) {
    std::printf("%-12s %6s %6s %5s %5s %6s %8s %8s %6s %6s %s\n", "tenant",
                "submit", "done", "rej", "shed", "fail", "p50(s)", "p99(s)",
                "err%", "shed%", "slo");
    for (const service::TenantSlo& row : slo) {
      std::printf(
          "%-12s %6llu %6llu %5llu %5llu %6llu %8.4f %8.4f %5.1f%% %5.1f%%"
          " %s\n",
          row.tenant.c_str(), static_cast<unsigned long long>(row.submitted),
          static_cast<unsigned long long>(row.completed),
          static_cast<unsigned long long>(row.rejected),
          static_cast<unsigned long long>(row.shed),
          static_cast<unsigned long long>(row.failed), row.p50_seconds,
          row.p99_seconds, 100.0 * row.error_fraction(),
          100.0 * row.shed_fraction(),
          row.target_p99_seconds <= 0.0 ? "-"
          : row.target_met              ? "met"
                                        : "MISSED");
    }
  }
}

std::vector<std::unique_ptr<cudasim::Device>> make_clean_devices(unsigned k) {
  cudasim::SimulationOptions sim;
  sim.throttle_transfers = false;
  sim.throttle_pinned_alloc = false;
  std::vector<std::unique_ptr<cudasim::Device>> devices;
  for (unsigned d = 0; d < k; ++d) {
    devices.push_back(
        std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, sim));
  }
  return devices;
}

int cmd_serve(int argc, char** argv) {
  ServeFlags flags = ServeFlags::parse(argc, argv);
  if (argc < 5) return usage();
  const std::string kind = argv[2];
  const auto n = static_cast<std::size_t>(std::atoll(argv[3]));
  const auto num_jobs = static_cast<unsigned>(std::max(1, std::atoi(argv[4])));
  const unsigned num_devices =
      argc > 5 ? static_cast<unsigned>(std::max(1, std::atoi(argv[5]))) : 2u;

  std::vector<Point2> points =
      kind == "uniform" ? data::generate_uniform(n, flags.seed, 35.0f, 35.0f)
                        : data::make_dataset(kind, n);

  auto devices = make_clean_devices(num_devices);
  std::vector<cudasim::Device*> device_ptrs;
  for (auto& d : devices) device_ptrs.push_back(d.get());

  service::WorkloadSpec wl;
  wl.num_jobs = num_jobs;
  wl.seed = flags.seed;
  wl.abandoned_fraction = 0.05;
  wl.deadline_fraction = 0.1;
  const std::vector<service::JobSpec> jobs = service::make_zipf_workload(wl);

  service::ClusterService svc(device_ptrs, flags.options);
  svc.register_dataset("default", std::move(points), flags.eps_ref);
  const std::vector<service::JobResult> results = svc.replay(jobs);
  print_service_summary(svc, jobs, results);
  return 0;
}

int cmd_replay(int argc, char** argv) {
  ServeFlags flags = ServeFlags::parse(argc, argv);
  if (argc < 4) return usage();
  const std::vector<service::JobSpec> jobs = service::load_jobs_file(argv[2]);

  auto devices = make_clean_devices(2);
  std::vector<cudasim::Device*> device_ptrs;
  for (auto& d : devices) device_ptrs.push_back(d.get());

  service::ClusterService svc(device_ptrs, flags.options);
  for (int i = 3; i < argc; ++i) {
    const std::string binding = argv[i];
    const auto eq = binding.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "replay: expected <name>=<points_file>, got %s\n",
                   binding.c_str());
      return 2;
    }
    svc.register_dataset(binding.substr(0, eq),
                         load_points(binding.substr(eq + 1)), flags.eps_ref);
  }
  const std::vector<service::JobResult> results = svc.replay(jobs);
  print_service_summary(svc, jobs, results);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const service::JobResult& r = results[i];
    std::printf("job %zu [%s %s eps=%.3g minpts=%d]: %s%s%s%s\n", i,
                jobs[i].tenant.c_str(), jobs[i].dataset.c_str(),
                static_cast<double>(jobs[i].eps), jobs[i].minpts,
                service::job_state_name(r.state),
                r.cache_hit ? " (cache hit)" : "",
                r.coalesced ? " (coalesced)" : "",
                r.reject_reason.empty() ? ""
                                        : (": " + r.reject_reason).c_str());
  }
  return 0;
}

/// serve_smoke CTest target: a Zipf multi-tenant workload on clean
/// devices with cache + coalescing on. Exits nonzero unless every job is
/// terminal, reuse actually happened, every same-(eps, minpts) label
/// vector is bit-identical (the cache-hit == fresh-build invariant), and
/// the devices end leak-free.
int cmd_serve_smoke(int argc, char** argv) {
  const std::size_t n =
      argc >= 3 ? static_cast<std::size_t>(std::atoll(argv[2])) : 4000;
  const std::vector<Point2> points =
      data::generate_uniform(n, 7, 35.0f, 35.0f);

  auto devices = make_clean_devices(2);
  std::vector<cudasim::Device*> device_ptrs;
  for (auto& d : devices) device_ptrs.push_back(d.get());

  service::ServiceOptions opt;
  opt.num_workers = 3;
  opt.cache_bytes_budget = 256ull << 20;
  opt.keep_labels = true;
  service::WorkloadSpec wl;
  wl.num_jobs = 24;
  wl.abandoned_fraction = 0.1;
  wl.deadline_fraction = 0.15;
  wl.seed = 99;
  const std::vector<service::JobSpec> jobs = service::make_zipf_workload(wl);

  service::ClusterService svc(device_ptrs, opt);
  svc.register_dataset("default", points, 0.9f);
  const std::vector<service::JobResult> results = svc.replay(jobs);
  print_service_summary(svc, jobs, results);

  int violations = 0;
  const service::ServiceStats s = svc.stats();
  if (results.size() != jobs.size()) {
    std::fprintf(stderr, "SMOKE FAIL: %zu results for %zu jobs\n",
                 results.size(), jobs.size());
    ++violations;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!service::is_terminal(results[i].state)) {
      std::fprintf(stderr, "SMOKE FAIL: job %zu not terminal (%s)\n", i,
                   service::job_state_name(results[i].state));
      ++violations;
    }
  }
  if (s.terminal_total() != s.submitted) {
    std::fprintf(stderr,
                 "SMOKE FAIL: %llu terminal outcomes for %llu submitted\n",
                 static_cast<unsigned long long>(s.terminal_total()),
                 static_cast<unsigned long long>(s.submitted));
    ++violations;
  }
  if (s.cache_hits + s.coalesced_jobs == 0) {
    std::fprintf(stderr,
                 "SMOKE FAIL: a 24-job Zipf workload over 4 eps values"
                 " produced no reuse at all\n");
    ++violations;
  }
  // Bit-identity: all completed jobs with the same (eps, minpts) must
  // carry byte-identical label vectors, however they were served (fresh
  // build, coalesced member, cache hit).
  std::map<std::pair<float, int>, const std::vector<std::int32_t>*> canon;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].state != service::JobState::kCompleted) continue;
    const auto key = std::make_pair(jobs[i].eps, jobs[i].minpts);
    const auto it = canon.find(key);
    if (it == canon.end()) {
      canon.emplace(key, &results[i].labels);
    } else if (*it->second != results[i].labels) {
      std::fprintf(stderr,
                   "SMOKE FAIL: labels for eps=%.3g minpts=%d diverge"
                   " between servings of the same request\n",
                   static_cast<double>(jobs[i].eps), jobs[i].minpts);
      ++violations;
    }
  }
  for (unsigned d = 0; d < devices.size(); ++d) {
    devices[d]->pool().trim();
    if (devices[d]->used_global_bytes() != 0) {
      std::fprintf(stderr, "SMOKE FAIL: device %u leaks %zu bytes\n", d,
                   devices[d]->used_global_bytes());
      ++violations;
    }
  }
  if (violations != 0) return 1;
  std::printf("serve-smoke: all invariants held (%zu jobs, cache %llu hits,"
              " %llu coalesced)\n",
              jobs.size(), static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.coalesced_jobs));
  return 0;
}

/// overload_smoke CTest target: 4x the admission byte budget plus one
/// device scripted to die mid-serve. Exits nonzero unless the service
/// drains without deadlock, every job lands in exactly one terminal
/// state, rejected/shed/abandoned jobs consumed zero device time, a
/// wall-deadline job cancelled mid-build returned its pooled buffers, and
/// the surviving device ends leak-free.
int cmd_overload_smoke(int argc, char** argv) {
  const std::size_t n =
      argc >= 3 ? static_cast<std::size_t>(std::atoll(argv[2])) : 4000;
  const std::vector<Point2> points =
      data::generate_uniform(n, 11, 35.0f, 35.0f);

  cudasim::SimulationOptions sim;
  sim.throttle_transfers = false;
  sim.throttle_pinned_alloc = false;
  std::vector<std::unique_ptr<cudasim::Device>> devices;
  devices.push_back(
      std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, sim));
  {
    // Device 1 dies mid-serve: after 25 global ops it refuses everything,
    // so the first build dispatched to it dies mid-flight and must be
    // re-dispatched (retry budget) while the breaker opens.
    cudasim::FaultPlan plan;
    plan.lost_at_op = 25;
    cudasim::SimulationOptions faulty = sim;
    faulty.fault = std::make_shared<cudasim::FaultInjector>(plan);
    devices.push_back(
        std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, faulty));
  }
  std::vector<cudasim::Device*> device_ptrs;
  for (auto& d : devices) device_ptrs.push_back(d.get());

  service::WorkloadSpec wl;
  wl.num_jobs = 48;
  wl.abandoned_fraction = 0.15;
  wl.seed = 1234;
  std::vector<service::JobSpec> jobs = service::make_zipf_workload(wl);
  // One guaranteed-singleton job (unique eps) with an already-expired
  // wall deadline: its build must be cancelled cooperatively at dispatch
  // and release every pooled buffer it touched.
  jobs[5].eps = 1.1f;
  jobs[5].wall_deadline_seconds = 1e-9;
  jobs[5].abandoned = false;
  // Top class: admission may reject it outright but never sheds it once
  // queued, so it deterministically reaches dispatch.
  jobs[5].priority = service::Priority::kInteractive;
  // One guaranteed client hang-up that survives admission: must end
  // cancelled, with zero device time billed.
  jobs[7].abandoned = true;
  jobs[7].priority = service::Priority::kInteractive;

  service::ServiceOptions opt;
  opt.num_workers = 3;
  opt.cache_bytes_budget = 64ull << 20;
  opt.queue_depth_limit = 256;

  // Price the workload, then admit only a quarter of it: a 4x overload.
  std::uint64_t total_priced = 0;
  {
    service::ClusterService pricer({device_ptrs[0]}, opt);
    pricer.register_dataset("default", points, 0.9f);
    for (const service::JobSpec& j : jobs) {
      total_priced += pricer.price("default", j.eps).second;
    }
  }
  opt.queue_bytes_budget = std::max<std::uint64_t>(1, total_priced / 4);

  service::ClusterService svc(device_ptrs, opt);
  svc.register_dataset("default", points, 0.9f);
  const std::vector<service::JobResult> results = svc.replay(jobs);
  print_service_summary(svc, jobs, results);

  int violations = 0;
  const service::ServiceStats s = svc.stats();
  if (s.terminal_total() != s.submitted ||
      results.size() != jobs.size()) {
    std::fprintf(stderr,
                 "SMOKE FAIL: %llu terminal outcomes for %llu submitted\n",
                 static_cast<unsigned long long>(s.terminal_total()),
                 static_cast<unsigned long long>(s.submitted));
    ++violations;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const service::JobResult& r = results[i];
    if (!service::is_terminal(r.state)) {
      std::fprintf(stderr, "SMOKE FAIL: job %zu not terminal (%s)\n", i,
                   service::job_state_name(r.state));
      ++violations;
    }
    const bool never_ran = r.state == service::JobState::kRejected ||
                           r.state == service::JobState::kShed ||
                           r.state == service::JobState::kCancelled;
    if (never_ran &&
        (r.modeled_device_seconds != 0.0 || r.device_id != -1)) {
      std::fprintf(stderr,
                   "SMOKE FAIL: %s job %zu consumed device time\n",
                   service::job_state_name(r.state), i);
      ++violations;
    }
  }
  if (s.rejected + s.shed == 0) {
    std::fprintf(stderr,
                 "SMOKE FAIL: a 4x-overloaded queue rejected nothing\n");
    ++violations;
  }
  if (results[5].state != service::JobState::kDeadlineExceeded) {
    std::fprintf(stderr,
                 "SMOKE FAIL: expired wall-deadline job ended %s, expected"
                 " deadline-exceeded\n",
                 service::job_state_name(results[5].state));
    ++violations;
  }
  if (results[7].state != service::JobState::kCancelled) {
    std::fprintf(stderr,
                 "SMOKE FAIL: abandoned job ended %s, expected cancelled\n",
                 service::job_state_name(results[7].state));
    ++violations;
  }
  // The scripted device death must be visible as resilience activity:
  // either a whole-build re-dispatch or an opened breaker.
  if (s.retries + s.breaker_opens == 0) {
    std::fprintf(stderr,
                 "SMOKE FAIL: device died mid-serve but no retry or"
                 " breaker open was recorded\n");
    ++violations;
  }
  // Buffer-accounting balance: whatever mix of completions, failovers,
  // and cancellations ran, no live device may hold builder memory.
  for (unsigned d = 0; d < devices.size(); ++d) {
    if (devices[d]->lost()) continue;
    devices[d]->pool().trim();
    if (devices[d]->used_global_bytes() != 0) {
      std::fprintf(stderr, "SMOKE FAIL: device %u leaks %zu bytes\n", d,
                   devices[d]->used_global_bytes());
      ++violations;
    }
  }
  if (violations != 0) return 1;
  std::printf(
      "overload-smoke: all invariants held (%llu rejected+shed, %llu"
      " cancelled, %llu deadline-exceeded, %llu retries, breaker opened"
      " %llu times)\n",
      static_cast<unsigned long long>(s.rejected + s.shed),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.deadline_exceeded),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.breaker_opens));
  return 0;
}

// ---------------------------------------------------------------------------
// Latency attribution: explain / explain-smoke
// ---------------------------------------------------------------------------

void print_request_analysis(const obs::RequestAnalysis& analysis,
                            std::size_t top_k) {
  std::printf(
      "%zu requests attributed (%zu spans without a request id), wall p50"
      " %.4fs p99 %.4fs",
      analysis.requests.size(), analysis.unattributed_spans,
      analysis.p50_seconds, analysis.p99_seconds);
  if (!analysis.p99_dominant_stage.empty()) {
    std::printf(" — the tail is dominated by the '%s' stage",
                analysis.p99_dominant_stage.c_str());
  }
  std::printf("\n");
  const std::size_t shown = std::min(top_k, analysis.requests.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const obs::RequestProfile& r = analysis.requests[i];
    std::printf("#%zu request %llu [%s]: %.4fs wall, %.4fs modeled, %zu"
                " spans",
                i + 1, static_cast<unsigned long long>(r.request_id),
                r.tenant.empty() ? "?" : r.tenant.c_str(), r.latency_seconds,
                r.modeled_seconds, r.span_count);
    if (!r.linked_to.empty()) {
      std::printf(", served by request");
      for (const std::uint64_t l : r.linked_to) {
        std::printf(" %llu", static_cast<unsigned long long>(l));
      }
    }
    std::printf("\n");
    for (const obs::StageAttribution& st : r.stages) {
      std::printf("    stage %-12s %9.4fs wall", st.name.c_str(),
                  st.wall_seconds);
      if (st.modeled_seconds > 0.0) {
        std::printf("  %9.4fs modeled", st.modeled_seconds);
      }
      std::printf("\n");
    }
    for (std::size_t c = 0; c < r.categories.size() && c < 4; ++c) {
      const obs::StageAttribution& cat = r.categories[c];
      std::printf("    in %-15s %9.4fs wall across %zu spans\n",
                  cat.name.c_str(), cat.wall_seconds, cat.spans);
    }
  }
}

/// `explain <trace.json> [--top=K]`: re-loads a request-attributed trace
/// file and prints the top-k slowest requests with per-stage latency
/// attribution — "why was this request slow".
int cmd_explain(int argc, char** argv) {
  if (argc < 3) return usage();
  std::size_t top_k = 5;
  std::string path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--top=", 0) == 0) {
      top_k = static_cast<std::size_t>(std::max(1, std::atoi(arg.c_str() + 6)));
    } else {
      path = arg;
    }
  }
  if (path.empty()) return usage();
  std::vector<obs::TraceEvent> events;
  std::string err;
  if (!obs::read_trace_file(path, &events, &err)) {
    std::fprintf(stderr, "explain: cannot load %s: %s\n", path.c_str(),
                 err.c_str());
    return 1;
  }
  const obs::RequestAnalysis analysis = obs::analyze_request_trace(events);
  if (analysis.requests.empty()) {
    std::fprintf(stderr,
                 "explain: %s holds no request-attributed spans (was the"
                 " trace taken from a serve/replay run?)\n",
                 path.c_str());
    return 1;
  }
  print_request_analysis(analysis, top_k);
  return 0;
}

/// explain_smoke CTest target: a traced multi-tenant replay with one
/// device scripted to die mid-serve, post-mortem dumping armed. Exits
/// nonzero unless (1) every span in the written trace carries a request
/// id, (2) reuse produced span links, (3) the analyzer attributes every
/// completed request's latency to stages, and (4) the device death left a
/// post-mortem file on disk.
int cmd_explain_smoke(int argc, char** argv) {
  const std::size_t n =
      argc >= 3 ? static_cast<std::size_t>(std::atoll(argv[2])) : 4000;
  const std::vector<Point2> points =
      data::generate_uniform(n, 7, 35.0f, 35.0f);

  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) tracer.enable();
  obs::set_thread_track(obs::kHostPid, "explain_smoke");

  const std::string pm_dir = "explain_smoke_postmortem";
  std::error_code ec;
  std::filesystem::create_directories(pm_dir, ec);
  obs::FlightRecorder& frec = obs::FlightRecorder::global();
  frec.reset();
  frec.arm(pm_dir);

  cudasim::SimulationOptions sim;
  sim.throttle_transfers = false;
  sim.throttle_pinned_alloc = false;
  std::vector<std::unique_ptr<cudasim::Device>> devices;
  devices.push_back(
      std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, sim));
  {
    // The second device dies mid-serve — the flight recorder must catch
    // it and dump a post-mortem.
    cudasim::FaultPlan plan;
    plan.lost_at_op = 25;
    cudasim::SimulationOptions faulty = sim;
    faulty.fault = std::make_shared<cudasim::FaultInjector>(plan);
    devices.push_back(
        std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, faulty));
  }
  std::vector<cudasim::Device*> device_ptrs;
  for (auto& d : devices) device_ptrs.push_back(d.get());

  service::ServiceOptions opt;
  opt.num_workers = 3;
  opt.cache_bytes_budget = 64ull << 20;
  opt.slo_p99_target_seconds = 60.0;
  service::WorkloadSpec wl;
  wl.num_jobs = 24;
  wl.seed = 99;
  const std::vector<service::JobSpec> jobs = service::make_zipf_workload(wl);

  service::ClusterService svc(device_ptrs, opt);
  svc.register_dataset("default", points, 0.9f);
  const std::vector<service::JobResult> results = svc.replay(jobs);
  print_service_summary(svc, jobs, results);

  const std::string trace_path = "explain_smoke_trace.json";
  std::string err;
  if (!obs::write_chrome_trace(trace_path, &err)) {
    std::fprintf(stderr, "explain-smoke FAILED: trace export: %s\n",
                 err.c_str());
    return 1;
  }

  int violations = 0;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "explain-smoke FAILED: %s\n", what);
      ++violations;
    }
  };

  // (1) Full request attribution in the written trace.
  const obs::TraceValidation v = obs::validate_trace_file(trace_path);
  check(v.ok, v.ok ? "" : v.error.c_str());
  check(v.spans_with_request > 0, "no request-attributed spans");
  check(v.spans_without_request == 0,
        "spans without a request id (attribution gap)");
  check(v.link_events > 0,
        "no span links (coalesced jobs / cache hits should link)");
  const service::ServiceStats s = svc.stats();
  check(v.distinct_request_ids >= s.submitted,
        "fewer distinct request ids than submitted jobs");

  // (2) Every terminal job carries its request id and a stage breakdown
  // whose wall sum is its latency ledger.
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].request_id == 0) {
      std::fprintf(stderr,
                   "explain-smoke FAILED: job %zu has no request id\n", i);
      ++violations;
      break;
    }
    if (results[i].state == service::JobState::kCompleted &&
        !(results[i].stages.total_wall_seconds() > 0.0)) {
      std::fprintf(stderr,
                   "explain-smoke FAILED: completed job %zu has an empty"
                   " stage breakdown\n",
                   i);
      ++violations;
      break;
    }
  }

  // (3) The analyzer round-trips the file into per-stage attribution.
  std::vector<obs::TraceEvent> events;
  check(obs::read_trace_file(trace_path, &events, &err),
        "re-reading the trace file failed");
  const obs::RequestAnalysis analysis = obs::analyze_request_trace(events);
  check(!analysis.requests.empty(), "analyzer found no requests");
  check(analysis.unattributed_spans == 0,
        "analyzer saw unattributed spans");
  if (!analysis.requests.empty()) {
    const obs::RequestProfile& slowest = analysis.requests.front();
    check(!slowest.stages.empty(),
          "slowest request has no stage attribution");
    check(!slowest.dominant_stage.empty(),
          "slowest request has no dominant stage");
    check(analysis.p99_seconds >= analysis.p50_seconds, "p99 < p50");
    print_request_analysis(analysis, 3);
  }

  // (4) The scripted device death produced a post-mortem file.
  check(frec.triggers() > 0, "no flight-recorder triggers fired");
  check(frec.dumps() > 0, "no post-mortem was dumped");
  bool postmortem_on_disk = false;
  for (const std::string& p : frec.dump_paths()) {
    if (std::filesystem::exists(p)) postmortem_on_disk = true;
  }
  check(postmortem_on_disk, "post-mortem file missing on disk");

  // (5) The SLO report covers every tenant that submitted.
  const std::vector<service::TenantSlo> slo = svc.slo_report();
  check(!slo.empty(), "empty SLO report");
  std::uint64_t slo_submitted = 0;
  for (const service::TenantSlo& row : slo) slo_submitted += row.submitted;
  check(slo_submitted == s.submitted,
        "SLO report does not cover every submitted job");

  if (violations != 0) return 1;
  std::printf(
      "explain-smoke: all invariants held (%zu jobs, %zu spans attributed,"
      " %zu links, %llu post-mortem files)\n",
      jobs.size(), v.spans_with_request, v.link_events,
      static_cast<unsigned long long>(frec.dumps()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global observability flags so every subcommand sees its
  // positional arguments unchanged.
  ObsOptions obs_opts;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      obs_opts.trace_out = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      obs_opts.metrics_out = arg.substr(14);
    } else if (arg.rfind("--postmortem-dir=", 0) == 0) {
      obs_opts.postmortem_dir = arg.substr(17);
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (!obs_opts.trace_out.empty()) hdbscan::obs::Tracer::global().enable();
  if (!obs_opts.postmortem_dir.empty()) {
    // Arm the always-on flight recorder: any job-failed / breaker-open /
    // device-lost trigger during this run dumps a post-mortem JSON here.
    std::error_code ec;
    std::filesystem::create_directories(obs_opts.postmortem_dir, ec);
    hdbscan::obs::FlightRecorder::global().arm(obs_opts.postmortem_dir);
  }

  int rc = -1;
  try {
    if (cmd == "gen") rc = cmd_gen(argc, argv);
    else if (cmd == "cluster") rc = cmd_cluster(argc, argv);
    else if (cmd == "sweep") rc = cmd_sweep(argc, argv);
    else if (cmd == "reuse") rc = cmd_reuse(argc, argv);
    else if (cmd == "table") rc = cmd_table(argc, argv);
    else if (cmd == "optics") rc = cmd_optics(argc, argv);
    else if (cmd == "chaos") rc = cmd_chaos(argc, argv);
    else if (cmd == "perf-smoke") rc = cmd_perf_smoke(argc, argv);
    else if (cmd == "fused-smoke") rc = cmd_fused_smoke(argc, argv);
    else if (cmd == "approx-smoke") rc = cmd_approx_smoke(argc, argv);
    else if (cmd == "stream-smoke") rc = cmd_stream_smoke(argc, argv);
    else if (cmd == "shard-smoke") rc = cmd_shard_smoke(argc, argv);
    else if (cmd == "serve") rc = cmd_serve(argc, argv);
    else if (cmd == "replay") rc = cmd_replay(argc, argv);
    else if (cmd == "serve-smoke") rc = cmd_serve_smoke(argc, argv);
    else if (cmd == "overload-smoke") rc = cmd_overload_smoke(argc, argv);
    else if (cmd == "explain") rc = cmd_explain(argc, argv);
    else if (cmd == "explain-smoke") rc = cmd_explain_smoke(argc, argv);
    else if (cmd == "profile") return cmd_profile(argc, argv, obs_opts);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }

  // Generic exports for every subcommand except profile (which writes and
  // validates its own files before returning). Exported even when the
  // command failed — a trace of a failing run is the useful one.
  std::string err;
  if (!obs_opts.trace_out.empty()) {
    if (hdbscan::obs::write_chrome_trace(obs_opts.trace_out, &err)) {
      std::printf("trace written to %s\n", obs_opts.trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n", err.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!obs_opts.metrics_out.empty()) {
    if (hdbscan::obs::write_metrics_json(obs_opts.metrics_out, &err)) {
      std::printf("metrics written to %s\n", obs_opts.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "metrics export failed: %s\n", err.c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}
