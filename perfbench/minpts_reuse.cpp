// minpts_reuse — the paper's scenario S3 / Figures 5-6:
// cluster_minpts_sweep at eps 0.3 over the S3 SW minpts list (16 values)
// on SW4-family points, one client in a closed loop. One build
// feeds 16 DBSCAN-over-T passes, so the dbscan consumer does most of the
// CPU work here: a consumer change shows on this workload, a builder-only
// change should not.
#include <memory>
#include <vector>

#include "core/neighbor_table_builder.hpp"
#include "core/reuse.hpp"
#include "data/datasets.hpp"
#include "dbscan/dbscan.hpp"
#include "gate.hpp"
#include "index/grid_index.hpp"
#include "index/rtree.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hdbscan;

namespace {

constexpr float kEps = 0.3f;
const std::vector<int> kMinpts = {10,  20,  30,  40,  50,   60,   70,   80,
                                  90,  100, 200, 400, 800,  1000, 2000, 3000};
constexpr std::size_t kTinyPoints = 6000;

}  // namespace

Outcome run_minpts_reuse(const BenchArgs& args) {
  const Knobs knobs = Knobs::for_this_host();
  const std::size_t n =
      args.tiny ? kTinyPoints : data::dataset_info("SW4").default_size;
  const std::vector<Point2> points = sample_dataset(
      "SW4", n, derive_seed(args.seed, "minpts_reuse/points"));
  const unsigned threads = knobs.reuse_threads;
  const BatchPolicy policy;

  Outcome out;
  out.info("inputs",
           "{\"dataset\": \"SW4\", \"seed\": " + std::to_string(args.seed) +
               ", \"n\": " + std::to_string(n) + ", \"eps\": [0.3]" +
               ", \"minpts\": " + json_list(kMinpts) +
               ", \"threads\": " + std::to_string(threads) +
               ", \"executor_threads\": " +
               std::to_string(knobs.executor_threads) +
               ", \"cpus\": " + std::to_string(knobs.cpus) + "}");

  Gate gate(args.corrupt);
  const auto call = [&](cudasim::Device& dev,
                        std::vector<ClusterResult>& results) {
    return cluster_minpts_sweep(dev, points, kEps, kMinpts, threads, policy,
                                &results);
  };
  const auto record = [&](const ReuseReport& r,
                          const std::vector<ClusterResult>& results) {
    for (std::size_t i = 0; i < kMinpts.size(); ++i) {
      const bool ok = i < r.outcomes.size() ? r.outcomes[i].ok : true;
      if (ok && i < results.size()) {
        gate.record(kEps, kMinpts[i], results[i].labels);
      } else {
        gate.record_failure();
      }
    }
  };

  // Set-up: device construction plus one warm-up reuse sweep.
  double setup_s = 0.0;
  const std::unique_ptr<cudasim::Device> device =
      timed_setup(setup_reps(args), &setup_s, [&] {
        std::unique_ptr<cudasim::Device> d = make_device(knobs);
        std::vector<ClusterResult> warm;
        (void)call(*d, warm);
        return d;
      });

  if (!args.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    do {
      std::vector<ClusterResult> results;
      ReuseReport r;
      e2e.calls.time([&] { r = call(*device, results); });
      record(r, results);
      e2e.job_latency_s.insert(e2e.job_latency_s.end(), kMinpts.size(),
                               e2e.calls.wall_s.back());
    } while (e2e.calls.total() < args.seconds);
    e2e.completed = gate.completed();
    gate.check(points);
    out.attempted = gate.attempted();
    out.failed = gate.failed();
    set_end_to_end(out, e2e);
  } else {
    SpanRecorder rec("minpts_reuse");
    std::vector<ReuseReport> reports;
    paired_calls(rec, args, out, [&] {
      std::vector<ClusterResult> results;
      reports.push_back(call(*device, results));
      record(reports.back(), results);
    });
    std::vector<double> table_s;
    std::vector<double> phase_s;
    std::vector<double> variant_p50;
    std::vector<double> efficiency;
    for (const ReuseReport& r : reports) {
      table_s.push_back(r.table_seconds);
      phase_s.push_back(r.dbscan_wall_seconds);
      variant_p50.push_back(median(r.variant_seconds));
      efficiency.push_back(r.dbscan_wall_seconds > 0.0
                               ? sum(r.variant_seconds) /
                                     (threads * r.dbscan_wall_seconds)
                               : 0.0);
    }
    out.set("reuse.table_s", median(table_s));
    out.set("reuse.cluster_phase_s", median(phase_s));
    out.set("reuse.variant_p50_s", median(variant_p50));
    out.set("reuse.parallel_efficiency", median(efficiency));

    // One build, then the 16 clusterings one at a time on one thread.
    device->reset_metrics();
    std::vector<LayerPass> passes;
    BuildTotals totals;
    double cells = 0.0;
    std::uint64_t edges = 0;
    // Labels are recorded after each pass so the gate's copies stay
    // outside the measured loop.
    std::vector<std::pair<int, std::vector<std::int32_t>>> labelled;
    for (int p = 0; p < layer_passes(args); ++p) {
      totals = {};
      edges = 0;
      passes.push_back(layer_pass(rec, [&] {
        GridIndex index;
        {
          const SpanRecorder::Scope s(rec, "index");
          index = build_grid_index(points, kEps);
        }
        NeighborTable table;
        BuildReport report;
        {
          const SpanRecorder::Scope s(rec, "builder");
          NeighborTableBuilder builder(*device, policy);
          table = builder.build(index, kEps, &report);
        }
        for (const int minpts : kMinpts) {
          ClusterResult labels;
          {
            const SpanRecorder::Scope s(rec, "dbscan");
            labels = dbscan_neighbor_table(table, minpts);
          }
          edges += table.total_pairs();
          labelled.emplace_back(minpts,
                                to_input_order(labels, index.original_ids));
        }
        totals.add(report);
        cells = static_cast<double>(index.params.num_cells());
      }));
      for (const auto& [minpts, labels] : labelled) {
        gate.record(kEps, minpts, labels);
      }
      labelled.clear();
    }
    const double dbscan_s = median_self(passes, "dbscan");
    out.set("index.grid_build_s", median_self(passes, "index"));
    out.set("index.cells", cells);
    set_builder_metrics(out, totals, median_self(passes, "builder"));
    set_cudasim_metrics(out, device->metrics(), layer_passes(args));
    out.set("dbscan.table_cluster_s", dbscan_s);
    out.set("dbscan.edges_per_s",
            dbscan_s > 0.0 ? static_cast<double>(edges) / dbscan_s : 0.0);
    set_coverage(out, passes, {"index", "builder", "dbscan"});

    const RTree rtree(points);
    std::size_t baseline_id = 0;
    ClusterResult baseline;
    {
      const SpanRecorder::Scope s(rec, "baseline");
      baseline_id = s.id();
      baseline = dbscan_rtree(points, kEps, kMinpts.front(), rtree);
    }
    gate.record(kEps, kMinpts.front(), baseline.labels);
    out.set("baseline.rtree_dbscan_s", rec.spans()[baseline_id].duration());

    gate.check(points);
    out.attempted = gate.attempted();
    out.failed = gate.failed();
    out.mark_absent({"index", "builder", "cudasim", "dbscan", "reuse",
                     "baseline", "bench"},
                    "minpts_reuse");
    finish_trace(rec, args, out);
  }
  out.info("distinct_label_vectors", std::to_string(gate.distinct_vectors()));
  if (!gate.first_error().empty()) {
    out.info("first_error", json_string(gate.first_error()));
  }
  return out;
}

}  // namespace perfbench
