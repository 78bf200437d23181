// eps_sweep — the paper's scenario S2 / Figure 4: run_multi_clustering
// (pipelined, default batch policy) over the SW4 eps sweep at minpts 4, on
// SW4-family skewed points, one client in a closed loop. The index is
// rebuilt for every eps and the table grows about 4x across the sweep, so
// index, builder, kernel and pipeline-overlap changes show here.
#include <memory>
#include <vector>

#include "core/neighbor_table_builder.hpp"
#include "core/pipeline.hpp"
#include "data/datasets.hpp"
#include "dbscan/dbscan.hpp"
#include "gate.hpp"
#include "index/grid_index.hpp"
#include "index/rtree.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hdbscan;

namespace {

constexpr int kMinpts = 4;
const std::vector<float> kSweepEps = {0.10f, 0.15f, 0.20f, 0.25f, 0.30f,
                                      0.35f, 0.40f, 0.45f, 0.50f};
constexpr float kMidEps = 0.30f;
constexpr std::size_t kTinyPoints = 6000;

}  // namespace

Outcome run_eps_sweep(const BenchArgs& args) {
  const Knobs knobs = Knobs::for_this_host();
  const std::size_t n =
      args.tiny ? kTinyPoints : data::dataset_info("SW4").default_size;
  const std::vector<Point2> points = sample_dataset(
      "SW4", n, derive_seed(args.seed, "eps_sweep/points"));

  std::vector<Variant> variants;
  for (const float eps : kSweepEps) variants.push_back({eps, kMinpts});
  PipelineOptions opts;
  opts.pipelined = true;
  opts.num_consumers = knobs.pipeline_consumers;
  opts.keep_results = true;  // labels for the correctness gate

  Outcome out;
  out.info("inputs",
           "{\"dataset\": \"SW4\", \"seed\": " + std::to_string(args.seed) +
               ", \"n\": " + std::to_string(n) +
               ", \"eps\": " + json_list(kSweepEps) +
               ", \"minpts\": [4], \"consumers\": " +
               std::to_string(opts.num_consumers) +
               ", \"executor_threads\": " +
               std::to_string(knobs.executor_threads) +
               ", \"cpus\": " + std::to_string(knobs.cpus) + "}");

  Gate gate(args.corrupt);
  const auto record = [&](const PipelineReport& r) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      if (r.variants[i].outcome.ok && i < r.results.size()) {
        gate.record(variants[i].eps, variants[i].minpts, r.results[i].labels);
      } else {
        gate.record_failure();
      }
    }
  };

  // Set-up: device construction plus one warm-up sweep, which fills the
  // buffer pool's pinned and device buckets before anything is timed.
  double setup_s = 0.0;
  const std::unique_ptr<cudasim::Device> device =
      timed_setup(setup_reps(args), &setup_s, [&] {
        std::unique_ptr<cudasim::Device> d = make_device(knobs);
        (void)run_multi_clustering(*d, points, variants, opts);
        return d;
      });

  if (!args.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    do {
      PipelineReport r;
      e2e.calls.time(
          [&] { r = run_multi_clustering(*device, points, variants, opts); });
      record(r);
      // Every clustering of a sweep is delivered when the call returns.
      e2e.job_latency_s.insert(e2e.job_latency_s.end(), variants.size(),
                               e2e.calls.wall_s.back());
    } while (e2e.calls.total() < args.seconds);
    e2e.completed = gate.completed();
    gate.check(points);
    out.attempted = gate.attempted();
    out.failed = gate.failed();
    set_end_to_end(out, e2e);
  } else {
    SpanRecorder rec("eps_sweep");
    std::vector<PipelineReport> reports;
    paired_calls(rec, args, out, [&] {
      reports.push_back(run_multi_clustering(*device, points, variants, opts));
      record(reports.back());
    });
    std::vector<double> table_sum;
    std::vector<double> dbscan_sum;
    std::vector<double> hidden;
    for (const PipelineReport& r : reports) {
      double t = 0.0;
      double d = 0.0;
      for (const VariantTiming& v : r.variants) {
        t += v.table_seconds;
        d += v.dbscan_seconds;
      }
      table_sum.push_back(t);
      dbscan_sum.push_back(d);
      hidden.push_back(t + d > 0.0 ? 1.0 - r.total_seconds / (t + d) : 0.0);
    }
    reports.clear();
    out.set("pipeline.table_s_sum", median(table_sum));
    out.set("pipeline.dbscan_s_sum", median(dbscan_sum));
    out.set("pipeline.hidden_fraction", median(hidden));

    // The same sweep one public call at a time:
    // build_grid_index -> NeighborTableBuilder::build -> dbscan_neighbor_table.
    device->reset_metrics();
    std::vector<LayerPass> passes;
    BuildTotals totals;
    double cells = 0.0;
    std::uint64_t edges = 0;
    // Labels are recorded after each pass so the gate's copies stay
    // outside the measured loop.
    std::vector<std::pair<float, std::vector<std::int32_t>>> labelled;
    for (int p = 0; p < layer_passes(args); ++p) {
      totals = {};
      cells = 0.0;
      edges = 0;
      passes.push_back(layer_pass(rec, [&] {
        for (const float eps : kSweepEps) {
          const SpanRecorder::Scope variant(rec, "variant");
          GridIndex index;
          {
            const SpanRecorder::Scope s(rec, "index");
            index = build_grid_index(points, eps);
          }
          NeighborTable table;
          BuildReport report;
          {
            const SpanRecorder::Scope s(rec, "builder");
            NeighborTableBuilder builder(*device, opts.policy);
            table = builder.build(index, eps, &report);
          }
          ClusterResult labels;
          {
            const SpanRecorder::Scope s(rec, "dbscan");
            labels = dbscan_neighbor_table(table, kMinpts);
          }
          totals.add(report);
          cells += static_cast<double>(index.params.num_cells());
          edges += table.total_pairs();
          labelled.emplace_back(eps,
                                to_input_order(labels, index.original_ids));
        }
      }));
      for (const auto& [eps, labels] : labelled) {
        gate.record(eps, kMinpts, labels);
      }
      labelled.clear();
    }
    const double build_s = median_self(passes, "builder");
    const double dbscan_s = median_self(passes, "dbscan");
    out.set("index.grid_build_s", median_self(passes, "index"));
    out.set("index.cells", cells);
    set_builder_metrics(out, totals, build_s);
    set_cudasim_metrics(out, device->metrics(), layer_passes(args));
    out.set("dbscan.table_cluster_s", dbscan_s);
    out.set("dbscan.edges_per_s",
            dbscan_s > 0.0 ? static_cast<double>(edges) / dbscan_s : 0.0);
    set_coverage(out, passes, {"index", "builder", "dbscan"});

    // The paper's reference: sequential R-tree DBSCAN at mid-sweep eps
    // (tree construction excluded, as in the paper).
    const RTree rtree(points);
    std::size_t baseline_id = 0;
    ClusterResult baseline;
    {
      const SpanRecorder::Scope s(rec, "baseline");
      baseline_id = s.id();
      baseline = dbscan_rtree(points, kMidEps, kMinpts, rtree);
    }
    gate.record(kMidEps, kMinpts, baseline.labels);
    out.set("baseline.rtree_dbscan_s", rec.spans()[baseline_id].duration());

    gate.check(points);
    out.attempted = gate.attempted();
    out.failed = gate.failed();
    out.mark_absent({"index", "builder", "cudasim", "dbscan", "pipeline",
                     "baseline", "bench"},
                    "eps_sweep");
    finish_trace(rec, args, out);
  }
  out.info("distinct_label_vectors", std::to_string(gate.distinct_vectors()));
  if (!gate.first_error().empty()) {
    out.info("first_error", json_string(gate.first_error()));
  }
  return out;
}

}  // namespace perfbench
