// Workload sources for the service front-end: a synthetic multi-tenant
// Zipf-over-eps generator (the skewed traffic the cache/coalescing design
// targets — a few hot eps values dominate, a long tail of cold ones) and
// a plain-text job-file parser for replay.
//
// Job-file format, one job per line, `#` starts a comment:
//
//   <tenant> <dataset> <eps> <minpts> [priority] [deadline_s] [wall_deadline_s]
//
// priority is batch|normal|interactive (default normal); deadline_s is a
// modeled-clock deadline (0/absent = none); wall_deadline_s arms the
// job's CancelToken (0/absent = none). The parser checks the syntax only:
// a minpts below 1 or an eps that is not positive reads fine, and
// admission rejects that one job with a reason.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/request.hpp"

namespace hdbscan::service {

struct WorkloadSpec {
  unsigned num_jobs = 32;
  unsigned num_tenants = 4;
  std::string dataset = "default";
  /// The eps menu; rank r (by list order) is drawn with probability
  /// proportional to 1/(r+1)^zipf_s — list the hot values first.
  std::vector<float> eps_choices = {0.3f, 0.5f, 0.7f, 0.9f};
  double zipf_s = 1.2;
  std::vector<int> minpts_choices = {4, 8};
  /// Fraction of jobs marked interactive / batch (the rest normal).
  double interactive_fraction = 0.25;
  double batch_fraction = 0.25;
  /// Fraction of jobs whose client hangs up before serving (cancelled).
  double abandoned_fraction = 0.0;
  /// Fraction of jobs carrying a modeled deadline, drawn uniformly from
  /// [deadline_min_seconds, deadline_max_seconds].
  double deadline_fraction = 0.0;
  double deadline_min_seconds = 0.05;
  double deadline_max_seconds = 0.5;
  std::uint64_t seed = 42;
};

/// Deterministic synthetic workload (same spec + seed -> same jobs).
[[nodiscard]] std::vector<JobSpec> make_zipf_workload(const WorkloadSpec& spec);

/// Parses the job-file format above. Throws std::runtime_error with the
/// offending line number on malformed input.
[[nodiscard]] std::vector<JobSpec> parse_jobs(const std::string& text);

/// Reads and parses a job file from disk.
[[nodiscard]] std::vector<JobSpec> load_jobs_file(const std::string& path);

}  // namespace hdbscan::service
