#include "measure.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "data/datasets.hpp"
#include "data/generators.hpp"

namespace perfbench {

Knobs Knobs::for_this_host() {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  Knobs k;
  k.cpus = cpus;
  // The compute pools get half the CPUs: the builder's stream threads,
  // the pipeline producer and the program's own helper pools run beside
  // them, and a run that leaves headroom moves far less with other load
  // on the machine.
  const unsigned half = std::max(1u, cpus / 2);
  k.executor_threads = std::min(k.executor_threads, half);
  k.pipeline_consumers = std::min(k.pipeline_consumers, cpus);
  k.reuse_threads = std::min(k.reuse_threads, half);
  k.service_workers = std::min(k.service_workers, cpus);
  k.dbscan_threads = std::min(k.dbscan_threads, cpus);
  return k;
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the stream name
  for (const char c : stream) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return hdbscan::SplitMix64(seed ^ h).next();
}

std::vector<hdbscan::Point2> sample_dataset(std::string_view name,
                                            std::size_t n,
                                            std::uint64_t seed) {
  constexpr std::size_t kPoolFactor = 8;
  const hdbscan::data::DatasetInfo& info = hdbscan::data::dataset_info(name);
  const std::uint64_t structure_seed = hdbscan::data::dataset_seed(name);
  std::vector<hdbscan::Point2> pool;
  if (info.skewed) {
    hdbscan::data::SpaceWeatherParams p;
    p.width = p.height = info.domain;
    pool = hdbscan::data::generate_space_weather(kPoolFactor * n,
                                                 structure_seed, p);
  } else {
    hdbscan::data::SkySurveyParams p;
    p.width = p.height = info.domain;
    pool = hdbscan::data::generate_sky_survey(kPoolFactor * n, structure_seed,
                                              p);
  }
  // Partial Fisher-Yates: the first n slots become the sample.
  hdbscan::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.below(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(n);
  return pool;
}

std::unique_ptr<cudasim::Device> make_device(const Knobs& k) {
  cudasim::SimulationOptions sim;
  sim.executor_threads = k.executor_threads;
  return std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, sim);
}

const std::vector<MetricSpec>& metric_catalogue() {
  using K = MetricKind;
  static const std::vector<MetricSpec> specs = {
      // End to end, tracing off.
      {"clusterings_per_s", "1/s", K::kEndToEnd},
      {"call_p50_s", "s", K::kEndToEnd},
      {"cpu_s_per_clustering", "s", K::kEndToEnd},
      {"job_p50_s", "s", K::kEndToEnd},
      {"job_p90_s", "s", K::kEndToEnd},
      {"peak_rss_mb", "MB", K::kEndToEnd},
      {"success_rate", "fraction", K::kEndToEnd},
      {"setup_s", "s", K::kEndToEnd},
      // index
      {"index.grid_build_s", "s", K::kPerLayer},
      {"index.cells", "count", K::kPerLayer},
      // builder (kernels are measured through it)
      {"builder.build_s", "s", K::kPerLayer},
      {"builder.estimate_s", "s", K::kPerLayer},
      {"builder.pairs", "count", K::kPerLayer},
      {"builder.pairs_per_s", "1/s", K::kPerLayer},
      {"builder.batches", "count", K::kPerLayer},
      {"builder.overflow_splits", "count", K::kPerLayer},
      {"builder.estimate_ratio", "ratio", K::kPerLayer},
      {"builder.expand_s", "s", K::kPerLayer},
      {"builder.d2h_bytes", "B", K::kPerLayer},
      {"builder.kernel_flops", "flop", K::kPerLayer},
      {"builder.kernel_global_bytes", "B", K::kPerLayer},
      {"builder.flops_per_byte", "flop/B", K::kPerLayer},
      {"builder.atomic_ops", "count", K::kPerLayer},
      {"builder.kernel_modeled_s", "s", K::kPerLayer},
      {"builder.modeled_table_s", "s", K::kPerLayer},
      // cudasim
      {"cudasim.kernel_wall_s", "s", K::kPerLayer},
      {"cudasim.kernel_launches", "count", K::kPerLayer},
      {"cudasim.h2d_bytes", "B", K::kPerLayer},
      {"cudasim.transfer_s", "s", K::kPerLayer},
      {"cudasim.pinned_alloc_s", "s", K::kPerLayer},
      {"cudasim.pool_pinned_miss_ratio", "fraction", K::kPerLayer},
      {"cudasim.peak_device_bytes", "B", K::kPerLayer},
      // dbscan
      {"dbscan.table_cluster_s", "s", K::kPerLayer},
      {"dbscan.edges_per_s", "1/s", K::kPerLayer},
      // pipeline
      {"pipeline.table_s_sum", "s", K::kPerLayer},
      {"pipeline.dbscan_s_sum", "s", K::kPerLayer},
      {"pipeline.hidden_fraction", "fraction", K::kPerLayer},
      // reuse
      {"reuse.table_s", "s", K::kPerLayer},
      {"reuse.cluster_phase_s", "s", K::kPerLayer},
      {"reuse.variant_p50_s", "s", K::kPerLayer},
      {"reuse.parallel_efficiency", "fraction", K::kPerLayer},
      // service
      {"service.queue_wait_p50_s", "s", K::kPerLayer},
      {"service.admission_s", "s", K::kPerLayer},
      {"service.cache_stage_s", "s", K::kPerLayer},
      {"service.build_stage_s", "s", K::kPerLayer},
      {"service.stream_union_s", "s", K::kPerLayer},
      {"service.cache_hit_ratio", "fraction", K::kPerLayer},
      {"service.cache_evictions", "count", K::kPerLayer},
      {"service.coalesced_share", "fraction", K::kPerLayer},
      {"service.fused_jobs", "count", K::kPerLayer},
      {"service.cell_graph_jobs", "count", K::kPerLayer},
      // fused / cell_graph
      {"fused.cluster_s", "s", K::kPerLayer},
      {"fused.parked_bytes", "B", K::kPerLayer},
      {"cell_graph.cluster_s", "s", K::kPerLayer},
      {"cell_graph.distance_tests", "count", K::kPerLayer},
      // reference and the benchmark itself
      {"baseline.rtree_dbscan_s", "s", K::kPerLayer},
      {"bench.trace_overhead_fraction", "fraction", K::kPerLayer},
      {"bench.variant_loop_s", "s", K::kPerLayer},
      {"bench.layer_self_coverage", "fraction", K::kPerLayer},
  };
  return specs;
}

namespace {

const MetricSpec& spec_of(const std::string& name) {
  for (const MetricSpec& s : metric_catalogue()) {
    if (name == s.name) return s;
  }
  throw std::logic_error("perfbench: metric not in the catalogue: " + name);
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

void Outcome::set(const std::string& name, double value) {
  const MetricSpec& spec = spec_of(name);
  for (MetricValue& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics.push_back({name, value, spec.unit});
}

void Outcome::mark_absent(const std::vector<std::string>& entered,
                          const std::string& workload) {
  for (const MetricSpec& s : metric_catalogue()) {
    if (s.kind != MetricKind::kPerLayer) continue;
    const bool present =
        std::any_of(metrics.begin(), metrics.end(),
                    [&](const MetricValue& m) { return m.name == s.name; });
    if (present) continue;
    const std::string layer = layer_of(s.name);
    if (std::find(entered.begin(), entered.end(), layer) != entered.end()) {
      throw std::logic_error(std::string("perfbench: ") + workload +
                             " enters layer '" + layer + "' but never set " +
                             s.name);
    }
    metrics.push_back({s.name, 0.0, s.unit});
    absent.emplace_back(s.name, "the " + layer + " layer is not on the " +
                                    workload + " path");
  }
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void release_free_heap() { malloc_trim(0); }

void reset_peak_rss() {
  // "5" resets VmHWM to the current resident set (Linux >= 4.0). Where the
  // file cannot be written, the peak stays the process-lifetime peak.
  std::ofstream f("/proc/self/clear_refs");
  if (f) f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void set_end_to_end(Outcome& out, const EndToEnd& e2e) {
  const double wall = e2e.calls.total();
  const std::uint64_t valid = out.attempted - out.failed;
  out.set("clusterings_per_s",
          wall > 0.0 ? static_cast<double>(valid) / wall : 0.0);
  out.set("call_p50_s", median(e2e.calls.wall_s));
  out.set("cpu_s_per_clustering",
          e2e.completed == 0
              ? 0.0
              : e2e.calls.cpu_s / static_cast<double>(e2e.completed));
  out.set("job_p50_s", quantile(e2e.job_latency_s, 0.5));
  out.set("job_p90_s", quantile(e2e.job_latency_s, 0.9));
  out.set("peak_rss_mb", median(e2e.calls.peak_rss_mb));
  out.set("success_rate", out.attempted == 0
                              ? 0.0
                              : static_cast<double>(valid) /
                                    static_cast<double>(out.attempted));
  out.set("setup_s", e2e.setup_s);

  const double error_rate =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  out.info("error_rate", json_number(error_rate));
  out.info("samples",
           "{\"calls\": " + std::to_string(e2e.calls.wall_s.size()) +
               ", \"jobs\": " + std::to_string(e2e.job_latency_s.size()) +
               ", \"jobs_beyond_p90\": " +
               std::to_string(e2e.job_latency_s.size() / 10) +
               ", \"clusterings\": " + std::to_string(out.attempted) + "}");
}

void BuildTotals::add(const hdbscan::BuildReport& r) {
  pairs += r.total_pairs;
  estimated_pairs += r.plan.estimated_total_pairs;
  batches += r.batches_run;
  overflow_splits += r.overflow_splits;
  d2h_bytes += r.d2h_bytes;
  kernel_flops += r.kernel_flops;
  kernel_global_bytes += r.kernel_global_bytes;
  atomic_ops += r.atomic_ops;
  estimate_s += r.estimate_seconds;
  expand_s += r.expand_seconds;
  kernel_modeled_s += r.kernel_modeled_seconds;
  modeled_table_s += r.modeled_table_seconds;
}

void set_builder_metrics(Outcome& out, const BuildTotals& t, double build_s) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out.set("builder.build_s", build_s);
  out.set("builder.estimate_s", t.estimate_s);
  out.set("builder.pairs", d(t.pairs));
  out.set("builder.pairs_per_s", build_s > 0.0 ? d(t.pairs) / build_s : 0.0);
  out.set("builder.batches", d(t.batches));
  out.set("builder.overflow_splits", d(t.overflow_splits));
  out.set("builder.estimate_ratio",
          t.pairs == 0 ? 0.0 : d(t.estimated_pairs) / d(t.pairs));
  out.set("builder.expand_s", t.expand_s);
  out.set("builder.d2h_bytes", d(t.d2h_bytes));
  out.set("builder.kernel_flops", d(t.kernel_flops));
  out.set("builder.kernel_global_bytes", d(t.kernel_global_bytes));
  out.set("builder.flops_per_byte",
          t.kernel_global_bytes == 0
              ? 0.0
              : d(t.kernel_flops) / d(t.kernel_global_bytes));
  out.set("builder.atomic_ops", d(t.atomic_ops));
  out.set("builder.kernel_modeled_s", t.kernel_modeled_s);
  out.set("builder.modeled_table_s", t.modeled_table_s);
}

void set_cudasim_metrics(Outcome& out, const cudasim::DeviceMetrics& m,
                         int passes) {
  const double p = static_cast<double>(std::max(1, passes));
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::uint64_t pinned = m.pool_pinned_hits + m.pool_pinned_misses;
  out.set("cudasim.kernel_wall_s", m.kernel_wall_seconds / p);
  out.set("cudasim.kernel_launches", d(m.kernel_launches) / p);
  out.set("cudasim.h2d_bytes", d(m.h2d_bytes) / p);
  out.set("cudasim.transfer_s", m.transfer_seconds / p);
  out.set("cudasim.pinned_alloc_s", m.pinned_alloc_seconds / p);
  out.set("cudasim.pool_pinned_miss_ratio",
          pinned == 0 ? 0.0 : d(m.pool_pinned_misses) / d(pinned));
  out.set("cudasim.peak_device_bytes", d(m.peak_mem_bytes));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
