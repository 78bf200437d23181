// Correctness gate behind success_rate.
//
// Every clustering a run produces is recorded here (labels in input order)
// and checked after the timed region with validate_dbscan_result against a
// reference eps-table built by an independent host path: STR R-tree circle
// queries over the input order, not the grid index or any builder the
// program uses. A clustering that did not complete is recorded as a
// failure and still counts as attempted.
//
// Identical label vectors for the same (eps, minpts) are stored once with a
// count: they share one verdict, so repeated deterministic calls cost one
// validation, and a corrupted or divergent vector is validated on its own.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dbscan/neighbor_table.hpp"
#include "index/rtree.hpp"

namespace perfbench {

/// Input-order eps-table of `points` from R-tree circle queries.
[[nodiscard]] hdbscan::NeighborTable reference_table(
    const hdbscan::RTree& rtree, std::span<const hdbscan::Point2> points,
    float eps);

/// Number of (point, neighbor) pairs in reference_table(), without storing
/// the table.
[[nodiscard]] std::uint64_t reference_pair_count(
    const hdbscan::RTree& rtree, std::span<const hdbscan::Point2> points,
    float eps);

class Gate {
 public:
  /// `corrupt_first`: the self-test's deliberately broken clustering.
  explicit Gate(bool corrupt_first) : corrupt_next_(corrupt_first) {}

  /// One completed clustering with labels in input order.
  void record(float eps, int minpts, std::span<const std::int32_t> labels);
  /// One clustering that did not complete.
  void record_failure(std::uint64_t n = 1) { incomplete_ += n; }

  /// Validates every recorded clustering against the reference tables
  /// (built one eps at a time and freed before the next).
  void check(std::span<const hdbscan::Point2> points);

  [[nodiscard]] std::uint64_t completed() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept {
    return recorded_ + incomplete_;
  }
  /// Incomplete plus invalid clusterings; final once check() ran.
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return incomplete_ + invalid_;
  }
  [[nodiscard]] std::uint64_t distinct_vectors() const noexcept;
  /// First validation diagnostic (empty when everything passed).
  [[nodiscard]] const std::string& first_error() const noexcept {
    return first_error_;
  }

 private:
  struct Distinct {
    std::vector<std::int32_t> labels;
    std::uint64_t count = 0;
  };
  /// eps -> minpts -> distinct label vectors.
  std::map<float, std::map<int, std::vector<Distinct>>> recorded_by_eps_;
  std::uint64_t recorded_ = 0;
  std::uint64_t incomplete_ = 0;
  std::uint64_t invalid_ = 0;
  bool corrupt_next_ = false;
  std::string first_error_;
};

}  // namespace perfbench
