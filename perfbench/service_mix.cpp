// service_mix — ClusterService::replay bursts of Zipf-over-eps jobs from 4
// tenants (minpts {4, 8}, mixed priorities, no abandoned or deadline jobs)
// on SDSS2-family near-uniform points; 2 devices, 2 workers, coalescing
// on, and a cache byte budget holding about half the menu's tables, so
// hits sit next to inserts and evictions. About 1/8 of the jobs take the
// fused path and 1/8 the cell graph. Each burst admits all its jobs and
// then drains them (there is no open-loop arrival API), so job latencies
// are burst latencies. The only workload through admission, the fair
// queues and coalescing, and the only one on the fused and cell-graph paths.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cell_graph.hpp"
#include "core/fused_clustering.hpp"
#include "core/neighbor_table_builder.hpp"
#include "data/datasets.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/streaming_dbscan.hpp"
#include "gate.hpp"
#include "index/grid_index.hpp"
#include "index/rtree.hpp"
#include "service/scheduler.hpp"
#include "service/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hdbscan;

namespace {

/// The eps menu, hottest first (Zipf rank order).
const std::vector<float> kMenu = {0.30f, 0.20f, 0.40f, 0.25f, 0.35f, 0.15f};
const std::vector<int> kMinptsChoices = {4, 8};
constexpr unsigned kTenants = 4;
constexpr unsigned kDevices = 2;
constexpr unsigned kJobsPerBurst = 128;
constexpr unsigned kTinyJobsPerBurst = 24;
constexpr std::size_t kTinyPoints = 6000;
constexpr double kFusedShare = 0.125;
constexpr double kCellGraphShare = 0.125;
const std::string kDataset = "sdss2";

struct ServiceState {
  // Declared before the service so they outlive it.
  std::vector<std::unique_ptr<cudasim::Device>> devices;
  std::unique_ptr<service::ClusterService> svc;
};

std::vector<service::JobSpec> burst_jobs(std::uint64_t seed, unsigned burst,
                                         unsigned num_jobs) {
  service::WorkloadSpec wl;
  wl.num_jobs = num_jobs;
  wl.num_tenants = kTenants;
  wl.dataset = kDataset;
  wl.eps_choices = kMenu;
  wl.minpts_choices = kMinptsChoices;
  wl.abandoned_fraction = 0.0;
  wl.deadline_fraction = 0.0;
  const std::string b = std::to_string(burst);
  wl.seed = derive_seed(seed, "service_mix/jobs/" + b);
  std::vector<service::JobSpec> jobs = service::make_zipf_workload(wl);
  Xoshiro256 rng(derive_seed(seed, "service_mix/modes/" + b));
  for (service::JobSpec& job : jobs) {
    const double u = rng.uniform();
    if (u < kFusedShare) {
      job.fused = true;
    } else if (u < kFusedShare + kCellGraphShare) {
      job.quality.mode = ClusterQuality::kCellGraph;
    }
  }
  return jobs;
}

/// Cache byte budget holding about half of the menu's table bytes: the
/// midpoint of the widest gap between the byte totals of subsets of the
/// menu's tables that lies within 40-60% of all of them. Which sets of
/// tables fit then does not change with the small differences in table
/// size between seeds; a budget on a subset total would flip between
/// holding and evicting a pair of hot tables from one seed to the next.
std::uint64_t cache_budget(const std::vector<std::uint64_t>& table_bytes) {
  std::vector<std::uint64_t> totals;
  const std::size_t k = table_bytes.size();
  for (std::uint64_t mask = 0; mask < (1ull << k); ++mask) {
    std::uint64_t t = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if ((mask >> i) & 1u) t += table_bytes[i];
    }
    totals.push_back(t);
  }
  std::sort(totals.begin(), totals.end());
  const double all = static_cast<double>(totals.back());
  std::uint64_t best_lo = totals.back() / 2;
  std::uint64_t best_gap = 0;
  for (std::size_t i = 0; i + 1 < totals.size(); ++i) {
    const double mid = 0.5 * static_cast<double>(totals[i] + totals[i + 1]);
    if (mid < 0.4 * all || mid > 0.6 * all) continue;
    if (totals[i + 1] - totals[i] > best_gap) {
      best_gap = totals[i + 1] - totals[i];
      best_lo = totals[i];
    }
  }
  return best_lo + best_gap / 2;
}

std::string job_mix(const std::vector<service::JobSpec>& jobs) {
  unsigned fused = 0;
  unsigned cell = 0;
  unsigned interactive = 0;
  unsigned batch = 0;
  for (const service::JobSpec& j : jobs) {
    fused += j.fused ? 1 : 0;
    cell += j.quality.mode == ClusterQuality::kCellGraph ? 1 : 0;
    interactive += j.priority == service::Priority::kInteractive ? 1 : 0;
    batch += j.priority == service::Priority::kBatch ? 1 : 0;
  }
  return "{\"jobs\": " + std::to_string(jobs.size()) +
         ", \"fused\": " + std::to_string(fused) +
         ", \"cellgraph\": " + std::to_string(cell) +
         ", \"interactive\": " + std::to_string(interactive) +
         ", \"batch\": " + std::to_string(batch) + "}";
}

}  // namespace

Outcome run_service_mix(const BenchArgs& args) {
  const Knobs knobs = Knobs::for_this_host();
  const std::size_t n =
      args.tiny ? kTinyPoints : data::dataset_info("SDSS2").default_size;
  const unsigned jobs_per_burst =
      args.tiny ? kTinyJobsPerBurst : kJobsPerBurst;
  const std::vector<Point2> points = sample_dataset(
      "SDSS2", n, derive_seed(args.seed, "service_mix/points"));
  const float hot_eps = kMenu.front();
  constexpr int kLayerMinpts = 4;

  service::ServiceOptions opt;
  opt.num_workers = knobs.service_workers;
  opt.queue_depth_limit = jobs_per_burst;  // admit every job of a burst
  opt.coalesce = true;
  opt.keep_labels = true;  // labels for the correctness gate
  opt.dbscan_threads = knobs.dbscan_threads;

  // Exact table sizes of the menu (input preparation, not set-up).
  std::vector<std::uint64_t> table_bytes;
  {
    const RTree rtree(points);
    for (const float eps : kMenu) {
      table_bytes.push_back(reference_pair_count(rtree, points, eps) *
                                sizeof(PointId) +
                            points.size() * 2 * sizeof(std::uint32_t));
    }
  }
  opt.cache_bytes_budget = cache_budget(table_bytes);

  // Set-up: devices and their buffer pools, the service with its
  // register_dataset calibration, and one warm-up burst that fills the
  // table cache.
  double setup_s = 0.0;
  unsigned burst = 0;
  const std::unique_ptr<ServiceState> state =
      timed_setup(setup_reps(args), &setup_s, [&] {
        auto s = std::make_unique<ServiceState>();
        std::vector<cudasim::Device*> ptrs;
        for (unsigned d = 0; d < kDevices; ++d) {
          s->devices.push_back(make_device(knobs));
          ptrs.push_back(s->devices.back().get());
        }
        // Pool warm-up: one table build per menu eps on every device, so each
        // device's buffer pool holds the buckets any of its builds will ask
        // for and resident memory does not depend on which device happened
        // to build which eps first.
        for (cudasim::Device* d : ptrs) {
          for (const float eps : kMenu) {
            NeighborTableBuilder builder(*d, opt.policy);
            (void)builder.build(build_grid_index(points, eps), eps);
          }
        }
        s->svc = std::make_unique<service::ClusterService>(ptrs, opt);
        s->svc->register_dataset(kDataset, points, hot_eps);
        (void)s->svc->replay(burst_jobs(args.seed, 0, jobs_per_burst));
        return s;
      });
  service::ClusterService& svc = *state->svc;

  Outcome out;
  const std::vector<service::JobSpec> first =
      burst_jobs(args.seed, 1, jobs_per_burst);
  out.info("inputs",
           "{\"dataset\": \"SDSS2\", \"seed\": " + std::to_string(args.seed) +
               ", \"n\": " + std::to_string(n) +
               ", \"eps_menu\": " + json_list(kMenu) +
               ", \"minpts\": " + json_list(kMinptsChoices) +
               ", \"tenants\": " + std::to_string(kTenants) +
               ", \"devices\": " + std::to_string(kDevices) +
               ", \"workers\": " + std::to_string(opt.num_workers) +
               ", \"cache_budget_bytes\": " +
               std::to_string(opt.cache_bytes_budget) +
               ", \"table_bytes\": " + json_list(table_bytes) +
               ", \"first_burst_mix\": " + job_mix(first) +
               ", \"executor_threads\": " +
               std::to_string(knobs.executor_threads) +
               ", \"cpus\": " + std::to_string(knobs.cpus) + "}");

  Gate gate(args.corrupt);
  std::vector<double> latencies;
  struct Burst {
    std::vector<service::JobResult> results;
    service::ServiceStats before;
    service::ServiceStats after;
  };
  const auto record = [&](const std::vector<service::JobSpec>& jobs,
                          const std::vector<service::JobResult>& results) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const service::JobResult& r = results[i];
      latencies.push_back(r.stages.total_wall_seconds());
      if (r.state == service::JobState::kCompleted) {
        gate.record(jobs[i].eps, jobs[i].minpts, r.labels);
      } else {
        gate.record_failure();
      }
    }
  };

  if (!args.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    do {
      const std::vector<service::JobSpec> jobs =
          burst_jobs(args.seed, ++burst, jobs_per_burst);
      std::vector<service::JobResult> results;
      e2e.calls.time([&] { results = svc.replay(jobs); });
      record(jobs, results);
    } while (e2e.calls.total() < args.seconds);
    e2e.job_latency_s = latencies;
    e2e.completed = gate.completed();
    gate.check(points);
    out.attempted = gate.attempted();
    out.failed = gate.failed();
    set_end_to_end(out, e2e);
  } else {
    SpanRecorder rec("service_mix");
    std::vector<Burst> bursts;
    paired_calls(rec, args, out, [&] {
      const std::vector<service::JobSpec> jobs =
          burst_jobs(args.seed, ++burst, jobs_per_burst);
      Burst b;
      b.before = svc.stats();
      b.results = svc.replay(jobs);
      b.after = svc.stats();
      record(jobs, b.results);
      for (service::JobResult& r : b.results) r.labels = {};
      bursts.push_back(std::move(b));
    });
    using service::Stage;
    std::vector<double> queue_wait;
    std::vector<double> admission;
    std::vector<double> cache_stage;
    std::vector<double> build_stage;
    std::vector<double> stream_union;
    double hits = 0.0;
    double lookups = 0.0;
    double evictions = 0.0;
    double coalesced = 0.0;
    double jobs = 0.0;
    double fused_jobs = 0.0;
    double cell_jobs = 0.0;
    for (const Burst& b : bursts) {
      double adm = 0.0;
      double cache = 0.0;
      double build = 0.0;
      double stream = 0.0;
      for (const service::JobResult& r : b.results) {
        queue_wait.push_back(r.stages.wall(Stage::kQueueWait));
        adm += r.stages.wall(Stage::kAdmission);
        cache += r.stages.wall(Stage::kCache);
        build += r.stages.wall(Stage::kBuild);
        stream += r.stages.wall(Stage::kStreamUnion);
      }
      admission.push_back(adm);
      cache_stage.push_back(cache);
      build_stage.push_back(build);
      stream_union.push_back(stream);
      const auto delta = [&](std::uint64_t service::ServiceStats::*f) {
        return static_cast<double>(b.after.*f - b.before.*f);
      };
      hits += delta(&service::ServiceStats::cache_hits);
      lookups += delta(&service::ServiceStats::cache_hits) +
                 delta(&service::ServiceStats::cache_misses);
      evictions += delta(&service::ServiceStats::cache_evictions);
      coalesced += delta(&service::ServiceStats::coalesced_jobs);
      fused_jobs += delta(&service::ServiceStats::fused_jobs);
      cell_jobs += delta(&service::ServiceStats::cell_graph_jobs);
      jobs += static_cast<double>(b.results.size());
    }
    const double nb = static_cast<double>(bursts.size());
    out.set("service.queue_wait_p50_s", median(queue_wait));
    out.set("service.admission_s", median(admission));
    out.set("service.cache_stage_s", median(cache_stage));
    out.set("service.build_stage_s", median(build_stage));
    out.set("service.stream_union_s", median(stream_union));
    out.set("service.cache_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0);
    out.set("service.cache_evictions", evictions / nb);
    out.set("service.coalesced_share", jobs > 0.0 ? coalesced / jobs : 0.0);
    out.set("service.fused_jobs", fused_jobs / nb);
    out.set("service.cell_graph_jobs", cell_jobs / nb);
    bursts.clear();

    // The hottest menu eps one public call at a time on device 0: the
    // table path, the fused path and the cell graph.
    cudasim::Device& device = *state->devices.front();
    device.reset_metrics();
    std::vector<LayerPass> passes;
    BuildTotals totals;
    double cells = 0.0;
    std::uint64_t edges = 0;
    std::uint64_t parked_bytes = 0;
    std::uint64_t distance_tests = 0;
    for (int p = 0; p < layer_passes(args); ++p) {
      totals = {};
      passes.push_back(layer_pass(rec, [&] {
        GridIndex index;
        {
          const SpanRecorder::Scope s(rec, "index");
          index = build_grid_index(points, hot_eps);
        }
        NeighborTable table;
        BuildReport report;
        {
          const SpanRecorder::Scope s(rec, "builder");
          NeighborTableBuilder builder(device, opt.policy);
          table = builder.build(index, hot_eps, &report);
        }
        ClusterResult labels;
        {
          const SpanRecorder::Scope s(rec, "dbscan");
          labels = dbscan_neighbor_table(table, kLayerMinpts);
        }
        gate.record(hot_eps, kLayerMinpts,
                    to_input_order(labels, index.original_ids));
        totals.add(report);
        edges = table.total_pairs();
        cells = static_cast<double>(index.params.num_cells());
        table = NeighborTable();
        {
          const SpanRecorder::Scope s(rec, "fused");
          StreamingDbscan consumer(index.size(), kLayerMinpts);
          const BuildReport fr =
              fused_cluster(device, index, hot_eps, consumer, opt.policy);
          labels = consumer.finalize(knobs.dbscan_threads);
          parked_bytes = fr.d2h_bytes;
        }
        gate.record(hot_eps, kLayerMinpts,
                    to_input_order(labels, index.original_ids));
        CellGraphReport cg;
        {
          const SpanRecorder::Scope s(rec, "cell_graph");
          labels = cell_graph_dbscan(points, hot_eps, kLayerMinpts,
                                     device.config(), &cg);
        }
        distance_tests = cg.distance_tests;
        gate.record(hot_eps, kLayerMinpts, labels.labels);
      }));
    }
    const double dbscan_s = median_self(passes, "dbscan");
    out.set("index.grid_build_s", median_self(passes, "index"));
    out.set("index.cells", cells);
    set_builder_metrics(out, totals, median_self(passes, "builder"));
    set_cudasim_metrics(out, device.metrics(), layer_passes(args));
    out.set("dbscan.table_cluster_s", dbscan_s);
    out.set("dbscan.edges_per_s",
            dbscan_s > 0.0 ? static_cast<double>(edges) / dbscan_s : 0.0);
    out.set("fused.cluster_s", median_self(passes, "fused"));
    out.set("fused.parked_bytes", static_cast<double>(parked_bytes));
    out.set("cell_graph.cluster_s", median_self(passes, "cell_graph"));
    out.set("cell_graph.distance_tests", static_cast<double>(distance_tests));
    set_coverage(out, passes,
                 {"index", "builder", "dbscan", "fused", "cell_graph"});

    const RTree rtree(points);
    std::size_t baseline_id = 0;
    ClusterResult baseline;
    {
      const SpanRecorder::Scope s(rec, "baseline");
      baseline_id = s.id();
      baseline = dbscan_rtree(points, hot_eps, kLayerMinpts, rtree);
    }
    gate.record(hot_eps, kLayerMinpts, baseline.labels);
    out.set("baseline.rtree_dbscan_s", rec.spans()[baseline_id].duration());

    gate.check(points);
    out.attempted = gate.attempted();
    out.failed = gate.failed();
    out.mark_absent({"index", "builder", "cudasim", "dbscan", "service",
                     "fused", "cell_graph", "baseline", "bench"},
                    "service_mix");
    finish_trace(rec, args, out);
  }
  out.info("distinct_label_vectors", std::to_string(gate.distinct_vectors()));
  if (!gate.first_error().empty()) {
    out.info("first_error", json_string(gate.first_error()));
  }
  return out;
}

}  // namespace perfbench
