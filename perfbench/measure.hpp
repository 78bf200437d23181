// Shared measurement plumbing of the benchmark driver: arguments, thread
// knobs, the metric catalogue, statistics and process resource probes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "cudasim/device.hpp"
#include "cudasim/metrics.hpp"
#include "core/neighbor_table_builder.hpp"

namespace perfbench {

struct BenchArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: small inputs, one set-up, one layer pass.
  bool tiny = false;
  /// Self-test hook: corrupt the first recorded label vector, which the
  /// correctness gate must then count as a failed clustering.
  bool corrupt = false;
  std::string spans_out;  ///< traced runs write their spans here
};

/// The program's thread knobs, each capped at the CPUs this process may
/// use (the executor and reuse pools at half of them).
struct Knobs {
  unsigned cpus = 1;
  unsigned executor_threads = 4;    ///< cudasim executor pool per device
  unsigned pipeline_consumers = 3;  ///< run_multi_clustering consumers
  unsigned reuse_threads = 4;       ///< cluster_minpts_sweep workers
  unsigned service_workers = 2;     ///< ClusterService workers
  unsigned dbscan_threads = 1;      ///< service DBSCAN / finalize threads

  static Knobs for_this_host();
};

/// Independent 64-bit seed for one named input stream of a run.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::string_view stream);

/// `n` points of a registry dataset's distribution (SW- or SDSS-family
/// generator over the registry domain). The registry's seed fixes the
/// structure (regions, sites, blobs, filaments) and `seed` draws the points:
/// a seeded sample without replacement from a fixed pool of generated
/// points, which are i.i.d. given the structure. Runs with different seeds
/// therefore differ in every point while measuring the same distribution,
/// instead of differing mainly in where a dozen hot regions landed.
[[nodiscard]] std::vector<hdbscan::Point2> sample_dataset(
    std::string_view name, std::size_t n, std::uint64_t seed);

/// A simulated K20c with the realistic (throttled) transfer model.
[[nodiscard]] std::unique_ptr<cudasim::Device> make_device(const Knobs& k);

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
};

/// Every metric the benchmark reports; BENCHMARK.json lists the same names
/// and units (the self-test checks that they agree).
[[nodiscard]] const std::vector<MetricSpec>& metric_catalogue();

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metrics one run reports, plus everything else it prints.
struct Outcome {
  std::vector<MetricValue> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Extra report fields: key -> raw JSON value.
  std::vector<std::pair<std::string, std::string>> report;
  /// Per-layer metrics whose layer the workload never enters: name ->
  /// reason. They are printed as 0 so every run carries every name.
  std::vector<std::pair<std::string, std::string>> absent;

  /// Sets a catalogued metric (the unit comes from the catalogue).
  void set(const std::string& name, double value);
  void info(const std::string& key, std::string raw_json) {
    report.emplace_back(key, std::move(raw_json));
  }
  /// Fills every per-layer metric not set yet with 0 and records why. A
  /// missing metric of a layer in `entered` is a driver bug and throws.
  void mark_absent(const std::vector<std::string>& entered,
                   const std::string& workload);
};

// --- statistics -----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Linearly interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double sum(const std::vector<double>& v);

// --- process resources ----------------------------------------------------

/// User + system CPU seconds of the whole process so far (all threads).
[[nodiscard]] double process_cpu_seconds();
/// Returns free heap pages the allocator still holds to the kernel, so a
/// call's peak resident set does not depend on what earlier calls left in
/// the allocator's free lists.
void release_free_heap();
/// Resets the kernel's peak-resident-set mark to the current resident set.
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss(), in MB.
[[nodiscard]] double peak_rss_mb();

// --- timing ---------------------------------------------------------------

/// Wall time, process CPU time and peak resident set of each timed call
/// to an entry point.
struct CallLog {
  std::vector<double> wall_s;
  std::vector<double> peak_rss_mb;
  double cpu_s = 0.0;

  template <typename F>
  void time(F&& call) {
    release_free_heap();
    reset_peak_rss();
    const double cpu0 = process_cpu_seconds();
    const hdbscan::WallTimer sw;
    call();
    wall_s.push_back(sw.seconds());
    cpu_s += process_cpu_seconds() - cpu0;
    peak_rss_mb.push_back(perfbench::peak_rss_mb());
  }
  [[nodiscard]] double total() const { return sum(wall_s); }
};

/// Builds the workload's state `reps` times, timing each; returns the last
/// one and stores the median build time. The previous rep's state is
/// released before the next is built so reps do not overlap in memory.
template <typename F>
auto timed_setup(int reps, double* median_seconds, F&& make) {
  decltype(make()) state{};
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    state = {};
    const hdbscan::WallTimer sw;
    state = make();
    times.push_back(sw.seconds());
  }
  *median_seconds = median(std::move(times));
  return state;
}

/// Everything the end-to-end metrics are computed from.
struct EndToEnd {
  double setup_s = 0.0;
  CallLog calls;
  std::vector<double> job_latency_s;  ///< submit -> delivery, per clustering
  std::uint64_t completed = 0;        ///< clusterings the program returned
};

/// Sets every end-to-end metric; call after the correctness gate ran so
/// `out.attempted` / `out.failed` are final.
void set_end_to_end(Outcome& out, const EndToEnd& e2e);

// --- per-layer helpers ----------------------------------------------------

/// Sums of the builder's BuildReport fields over the builds of one pass.
struct BuildTotals {
  std::uint64_t pairs = 0;
  std::uint64_t estimated_pairs = 0;
  std::uint64_t batches = 0;
  std::uint64_t overflow_splits = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t kernel_flops = 0;
  std::uint64_t kernel_global_bytes = 0;
  std::uint64_t atomic_ops = 0;
  double estimate_s = 0.0;
  double expand_s = 0.0;
  double kernel_modeled_s = 0.0;
  double modeled_table_s = 0.0;

  void add(const hdbscan::BuildReport& r);
};

/// builder.* from one pass's totals and the builder spans' self time.
void set_builder_metrics(Outcome& out, const BuildTotals& t, double build_s);

/// cudasim.* from the device counters accumulated over `passes` passes
/// (the device's metrics were reset before the first pass).
void set_cudasim_metrics(Outcome& out, const cudasim::DeviceMetrics& m,
                         int passes);

/// JSON helpers for report fields.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);
template <typename T>
[[nodiscard]] std::string json_list(const std::vector<T>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ", ";
    s += json_number(static_cast<double>(v[i]));
  }
  return s + "]";
}

}  // namespace perfbench
