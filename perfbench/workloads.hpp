// The benchmark's three workloads. Each generates its inputs from the run
// seed, sets the program up, times its public entry point with tracing off
// (or, in a traced run, drives its layers one public call at a time inside
// spans), then runs the correctness gate.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dbscan/cluster_result.hpp"
#include "measure.hpp"
#include "span_recorder.hpp"

namespace perfbench {

Outcome run_eps_sweep(const BenchArgs& args);
Outcome run_minpts_reuse(const BenchArgs& args);
Outcome run_service_mix(const BenchArgs& args);

/// Labels in the grid index's order mapped back to input order.
inline std::vector<std::int32_t> to_input_order(
    const hdbscan::ClusterResult& indexed,
    const std::vector<hdbscan::PointId>& original_ids) {
  std::vector<std::int32_t> out(indexed.labels.size());
  for (std::size_t i = 0; i < indexed.labels.size(); ++i) {
    out[original_ids[i]] = indexed.labels[i];
  }
  return out;
}

/// Number of set-up repetitions and layer passes a run makes.
inline int setup_reps(const BenchArgs& a) { return a.tiny ? 1 : 3; }
inline int layer_passes(const BenchArgs& a) { return a.tiny ? 1 : 2; }

/// Alternates untraced calls with calls inside a "call" span until half
/// the run's seconds are spent (at least two of each), so drift affects
/// both alike; sets bench.trace_overhead_fraction from their medians.
/// `call` performs one call of the entry point and records its results.
template <typename Call>
void paired_calls(SpanRecorder& rec, const BenchArgs& args, Outcome& out,
                  Call&& call) {
  std::vector<double> plain;
  std::vector<double> traced;
  double spent = 0.0;
  while (plain.size() < 2 || spent < 0.5 * args.seconds) {
    const hdbscan::WallTimer sw;
    call();
    plain.push_back(sw.seconds());
    std::size_t id = 0;
    {
      const SpanRecorder::Scope span(rec, "call");
      id = span.id();
      call();
    }
    traced.push_back(rec.spans()[id].duration());
    spent += plain.back() + traced.back();
  }
  out.set("bench.trace_overhead_fraction",
          median(traced) / median(plain) - 1.0);
  out.info("traced_call_pairs", std::to_string(plain.size()));
}

/// Self time per span name and loop wall time of one layer pass.
struct LayerPass {
  std::map<std::string, double> self_s;
  double loop_s = 0.0;
};

/// Runs `body` inside a "variant_loop" span; returns the self time each
/// span name gained during it.
template <typename Body>
LayerPass layer_pass(SpanRecorder& rec, Body&& body) {
  const std::map<std::string, double> before = rec.self_by_name();
  std::size_t id = 0;
  {
    const SpanRecorder::Scope loop(rec, "variant_loop");
    id = loop.id();
    body();
  }
  LayerPass pass;
  pass.loop_s = rec.spans()[id].duration();
  for (const auto& [name, s] : rec.self_by_name()) {
    const auto it = before.find(name);
    pass.self_s[name] = s - (it == before.end() ? 0.0 : it->second);
  }
  return pass;
}

/// Median over passes of one span name's self time.
inline double median_self(const std::vector<LayerPass>& passes,
                          const std::string& name) {
  std::vector<double> v;
  for (const LayerPass& p : passes) {
    const auto it = p.self_s.find(name);
    v.push_back(it == p.self_s.end() ? 0.0 : it->second);
  }
  return median(std::move(v));
}

/// bench.variant_loop_s and bench.layer_self_coverage: how much of each
/// pass's wall time the named layer spans' self times account for.
inline void set_coverage(Outcome& out, const std::vector<LayerPass>& passes,
                         const std::vector<std::string>& layer_spans) {
  std::vector<double> loop;
  std::vector<double> coverage;
  for (const LayerPass& p : passes) {
    double covered = 0.0;
    for (const std::string& name : layer_spans) {
      const auto it = p.self_s.find(name);
      if (it != p.self_s.end()) covered += it->second;
    }
    loop.push_back(p.loop_s);
    coverage.push_back(p.loop_s > 0.0 ? covered / p.loop_s : 0.0);
  }
  out.set("bench.variant_loop_s", median(loop));
  out.set("bench.layer_self_coverage", median(coverage));
}

/// Writes the spans (traced runs) and a self-time summary to the report.
void finish_trace(const SpanRecorder& rec, const BenchArgs& args,
                  Outcome& out);

}  // namespace perfbench
