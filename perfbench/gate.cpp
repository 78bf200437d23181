#include "gate.hpp"

#include <algorithm>
#include <string>

#include "dbscan/cluster_compare.hpp"
#include "dbscan/cluster_result.hpp"

namespace perfbench {

using hdbscan::PointId;

hdbscan::NeighborTable reference_table(const hdbscan::RTree& rtree,
                                       std::span<const hdbscan::Point2> points,
                                       float eps) {
  // Rows are appended in chunks so only one chunk's values are held twice.
  constexpr std::size_t kChunk = 4096;
  hdbscan::NeighborTable table(points.size());
  std::vector<std::uint32_t> offsets;
  std::vector<PointId> values;
  std::vector<PointId> row;
  for (std::size_t first = 0; first < points.size(); first += kChunk) {
    const std::size_t last = std::min(points.size(), first + kChunk);
    offsets.clear();
    values.clear();
    for (std::size_t i = first; i < last; ++i) {
      row.clear();
      rtree.query_circle(points[i], eps, row);
      offsets.push_back(static_cast<std::uint32_t>(values.size()));
      values.insert(values.end(), row.begin(), row.end());
    }
    table.append_csr_batch(static_cast<std::uint32_t>(first), 1, offsets,
                           values);
  }
  return table;
}

std::uint64_t reference_pair_count(const hdbscan::RTree& rtree,
                                   std::span<const hdbscan::Point2> points,
                                   float eps) {
  std::uint64_t pairs = 0;
  std::vector<PointId> row;
  for (const hdbscan::Point2& p : points) {
    row.clear();
    rtree.query_circle(p, eps, row);
    pairs += row.size();
  }
  return pairs;
}

void Gate::record(float eps, int minpts, std::span<const std::int32_t> labels) {
  ++recorded_;
  std::vector<Distinct>& seen = recorded_by_eps_[eps][minpts];
  if (corrupt_next_) {
    corrupt_next_ = false;
    std::vector<std::int32_t> broken(labels.begin(), labels.end());
    // A clustered point turned into noise is either a core point left
    // unclustered or a border point denied its core: invalid both ways.
    // With nothing clustered, a noise point joins a cluster with no core.
    const auto clustered = std::find_if(
        broken.begin(), broken.end(), [](std::int32_t l) { return l >= 0; });
    if (clustered != broken.end()) {
      *clustered = hdbscan::kNoise;
    } else if (!broken.empty()) {
      broken.front() = 0;
    }
    seen.push_back({std::move(broken), 1});
    return;
  }
  for (Distinct& d : seen) {
    if (std::equal(d.labels.begin(), d.labels.end(), labels.begin(),
                   labels.end())) {
      ++d.count;
      return;
    }
  }
  seen.push_back({std::vector<std::int32_t>(labels.begin(), labels.end()), 1});
}

void Gate::check(std::span<const hdbscan::Point2> points) {
  if (recorded_by_eps_.empty()) return;
  const hdbscan::RTree rtree(points);
  for (auto& [eps, by_minpts] : recorded_by_eps_) {
    const hdbscan::NeighborTable table = reference_table(rtree, points, eps);
    for (auto& [minpts, distinct] : by_minpts) {
      for (Distinct& d : distinct) {
        hdbscan::ClusterResult result;
        result.labels = std::move(d.labels);
        const hdbscan::CompareOutcome v =
            hdbscan::validate_dbscan_result(result, table, minpts);
        d.labels = std::move(result.labels);
        if (v.equivalent) continue;
        invalid_ += d.count;
        if (first_error_.empty()) {
          first_error_ = "eps " + std::to_string(eps) + " minpts " +
                         std::to_string(minpts) + ": " + v.diagnostic;
        }
      }
    }
  }
}

std::uint64_t Gate::distinct_vectors() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [eps, by_minpts] : recorded_by_eps_) {
    for (const auto& [minpts, distinct] : by_minpts) n += distinct.size();
  }
  return n;
}

}  // namespace perfbench
