// Benchmark driver entry point. Normally started through perfbench/run.py,
// which builds it first:
//
//   perfbench --workload eps_sweep|minpts_reuse|service_mix --seed N
//             --seconds S --trace 0|1 [--spans-out FILE] [--tiny] [--corrupt]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace perfbench {

void finish_trace(const SpanRecorder& rec, const BenchArgs& args,
                  Outcome& out) {
  if (!args.spans_out.empty() && !rec.write_json(args.spans_out)) {
    throw std::runtime_error("cannot write spans to " + args.spans_out);
  }
  std::string self = "{";
  for (const auto& [name, s] : rec.self_by_name()) {
    if (self.size() > 1) self += ", ";
    self += json_string(name) + ": " + json_number(s);
  }
  out.info("span_self_s", self + "}");
  out.info("spans", std::to_string(rec.spans().size()));
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "eps_sweep|minpts_reuse|service_mix --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE] [--tiny] [--corrupt]\n",
               why.c_str());
  std::exit(2);
}

BenchArgs parse(int argc, char** argv) {
  BenchArgs a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        a.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        a.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (arg == "--spans-out") {
        a.spans_out = value();
      } else if (arg == "--tiny") {
        a.tiny = true;
      } else if (arg == "--corrupt") {
        a.corrupt = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return a;
}

void print(const Outcome& out, bool trace) {
  for (const MetricValue& m : out.metrics) {
    std::printf("%-34s %22.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string report = "{\"report\": {";
  bool first = true;
  for (const auto& [key, raw] : out.report) {
    report += (first ? "" : ", ") + json_string(key) + ": " + raw;
    first = false;
  }
  if (trace) {
    std::string absent = "{";
    for (const auto& [name, why] : out.absent) {
      if (absent.size() > 1) absent += ", ";
      absent += json_string(name) + ": " + json_string(why);
    }
    report += std::string(first ? "" : ", ") + "\"absent\": " + absent + "}";
  }
  std::printf("%s}}\n", report.c_str());

  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const MetricValue& m = out.metrics[i];
    line += (i == 0 ? "" : ", ") + json_string(m.name) +
            ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const BenchArgs args = parse(argc, argv);
  Outcome out;
  try {
    if (args.workload == "eps_sweep") {
      out = run_eps_sweep(args);
    } else if (args.workload == "minpts_reuse") {
      out = run_minpts_reuse(args);
    } else if (args.workload == "service_mix") {
      out = run_service_mix(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  print(out, args.trace);
  return 0;
}
