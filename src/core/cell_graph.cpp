#include "core/cell_graph.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dbscan/union_find.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

constexpr std::int32_t kStencilReach = 2;  ///< sqrt(d) cells cover eps
constexpr PointId kNoCore = std::numeric_limits<PointId>::max();

/// Bits of the packed key per axis: x and y take 21 bits, z the 22 above
/// them. The binning rejects an extent whose cell count does not fit.
/// Packed keys sort by (z, y, x), so one row of cells is a key range.
constexpr std::array<int, 3> kKeyBits = {21, 21, 22};
constexpr std::array<int, 3> kKeyShift = {0, 21, 42};

std::uint64_t pack_key(std::int32_t x, std::int32_t y,
                       std::int32_t z) noexcept {
  return (static_cast<std::uint64_t>(z) << kKeyShift[2]) |
         (static_cast<std::uint64_t>(y) << kKeyShift[1]) |
         static_cast<std::uint64_t>(x);
}

std::int32_t key_field(std::uint64_t key, int axis) noexcept {
  return static_cast<std::int32_t>((key >> kKeyShift[axis]) &
                                   ((std::uint64_t{1} << kKeyBits[axis]) - 1));
}

/// Squared minimum distance between two cells of side `side` whose
/// coordinates differ by `delta` per axis: axes where the cells are
/// adjacent or equal contribute nothing; a gap of g cells contributes
/// (g - 1) empty cell widths.
double cell_min_dist2(const std::array<std::int32_t, 3>& delta, double side,
                      int dims) noexcept {
  double d2 = 0.0;
  for (int axis = 0; axis < dims; ++axis) {
    const auto gap = std::abs(delta[axis]);
    if (gap > 1) {
      const double g = (gap - 1) * side;
      d2 += g * g;
    }
  }
  return d2;
}

/// One row of the 5^d stencil: the cells at (dx, dy, dz) with |dx| <=
/// reach, the widest x offset the min-distance prune keeps on that row.
struct StencilRow {
  std::int32_t dy = 0;
  std::int32_t dz = 0;
  std::int32_t reach = 0;
};

/// A run of occupied cells [first, last) in key order.
struct CellRun {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
};

/// The binning the clustering and cell_graph_dense_share start from: side
/// eps/sqrt(d), so the diagonal of a cell is exactly eps and any two
/// residents of one cell are eps-neighbors; every point's packed key; and
/// the point ids in key order, each cell's residents in input order (one
/// stable counting sort per axis, O(n + cells per axis), so any extent
/// the key holds is served). Throws std::invalid_argument when the extent
/// is not finite or needs more cells on an axis than its key field holds.
struct Binning {
  double side = 0.0;
  std::array<std::int32_t, 3> count{1, 1, 1};  ///< cells per axis
  std::vector<std::uint64_t> key_of;           ///< per input point
  std::vector<PointId> order;                  ///< input ids in key order
};

template <typename Point>
Binning bin_points(std::span<const Point> points, float eps) {
  constexpr int kDims = Point::kDims;
  const auto n = points.size();
  Binning b;
  b.side = static_cast<double>(eps) / std::sqrt(static_cast<double>(kDims));
  const double side = b.side;
  std::array<float, 3> mins{};
  std::array<float, 3> maxs{};
  mins.fill(std::numeric_limits<float>::max());
  maxs.fill(std::numeric_limits<float>::lowest());
  for (const Point& p : points) {
    for (int axis = 0; axis < kDims; ++axis) {
      mins[axis] = std::min(mins[axis], p[axis]);
      maxs[axis] = std::max(maxs[axis], p[axis]);
    }
  }
  // Cells per axis, sized in double before anything narrows: the span must
  // be finite and the count must fit the axis's key field.
  std::array<std::int32_t, 3>& count = b.count;
  for (int axis = 0; axis < kDims; ++axis) {
    const float span = maxs[axis] - mins[axis];
    if (!std::isfinite(span)) {
      throw std::invalid_argument("cell_graph_dbscan: extent is not finite");
    }
    const double cells = std::floor(span / side) + 1.0;
    if (!(cells <= std::ldexp(1.0, kKeyBits[axis]))) {
      throw std::invalid_argument(
          "cell_graph_dbscan: more cells per axis than the cell key holds"
          " (eps too small for this extent)");
    }
    count[axis] = static_cast<std::int32_t>(cells);
  }
  std::vector<std::uint64_t>& key_of = b.key_of;
  key_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::array<std::int32_t, 3> c{};
    for (int axis = 0; axis < kDims; ++axis) {
      const double cell = (points[i][axis] - mins[axis]) / side;
      if (!(cell >= 0.0 && cell < count[axis])) {  // NaN coordinates too
        throw std::invalid_argument(
            "cell_graph_dbscan: coordinate outside the binned extent");
      }
      c[axis] = static_cast<std::int32_t>(cell);
    }
    key_of[i] = pack_key(c[0], c[1], c[2]);
  }

  // Cell order: one stable counting sort per axis (x, then y, then z).
  std::vector<PointId>& order = b.order;
  order.resize(n);
  std::vector<PointId> order_next(n);
  std::vector<std::uint32_t> bucket;
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<PointId>(i);
  for (int axis = 0; axis < kDims; ++axis) {
    bucket.assign(static_cast<std::size_t>(count[axis]) + 1, 0);
    for (const PointId i : order) ++bucket[key_field(key_of[i], axis) + 1];
    for (std::size_t c = 1; c < bucket.size(); ++c) bucket[c] += bucket[c - 1];
    for (const PointId i : order) {
      order_next[bucket[key_field(key_of[i], axis)]++] = i;
    }
    order.swap(order_next);
  }
  return b;
}

/// The distance tests are charged like the traversal kernels': 3 FLOPs per
/// axis for the squared difference plus the compare.
template <typename Point>
ClusterResult cell_graph_impl(std::span<const Point> points, float eps,
                              int minpts, const cudasim::DeviceConfig& config,
                              CellGraphReport* report) {
  constexpr int kDims = Point::kDims;
  if (eps <= 0.0f) {
    throw std::invalid_argument("cell_graph_dbscan: eps must be positive");
  }
  if (minpts < 1) {
    throw std::invalid_argument("cell_graph_dbscan: minpts must be >= 1");
  }
  TRACE_SPAN("cellgraph", "cell_graph n=%zu", points.size());
  CellGraphReport local;
  const auto n = points.size();
  ClusterResult result;
  result.labels.assign(n, kNoise);
  if (n == 0) {
    result.finalize_noise_count();
    if (report != nullptr) *report = local;
    return result;
  }

  // --- bin to side eps/sqrt(d), in cell order ---
  Binning bins = bin_points(points, eps);
  const double side = bins.side;
  const std::array<std::int32_t, 3>& count = bins.count;
  const std::vector<std::uint64_t>& key_of = bins.key_of;
  const std::vector<PointId>& order = bins.order;
  // Coordinates in key order next to the sorted occupied-cell keys: cell
  // c holds sorted positions [cell_start[c], cell_start[c + 1]).
  std::vector<Point> pts(n);
  std::vector<std::uint64_t> cell_key;
  std::vector<std::uint32_t> cell_start;
  for (std::size_t k = 0; k < n; ++k) {
    pts[k] = points[order[k]];
    const std::uint64_t key = key_of[order[k]];
    if (cell_key.empty() || cell_key.back() != key) {
      cell_key.push_back(key);
      cell_start.push_back(static_cast<std::uint32_t>(k));
    }
  }
  cell_start.push_back(static_cast<std::uint32_t>(n));
  const auto num_cells = static_cast<std::uint32_t>(cell_key.size());
  local.num_cells = num_cells;

  // --- the stencil as rows: the min-distance prune of the 5^d window
  // becomes one x reach per (dy, dz) row. Rows nearest the center come
  // first, so the degree pass reaches minpts sooner. ---
  const double eps2 = static_cast<double>(eps) * eps;
  const float eps2f = static_cast<float>(eps2);
  std::vector<StencilRow> rows;
  const std::int32_t z_reach = kDims == 3 ? kStencilReach : 0;
  for (std::int32_t dz = -z_reach; dz <= z_reach; ++dz) {
    for (std::int32_t dy = -kStencilReach; dy <= kStencilReach; ++dy) {
      for (std::int32_t reach = kStencilReach; reach >= 1; --reach) {
        if (cell_min_dist2({reach, dy, dz}, side, kDims) <= eps2) {
          rows.push_back({dy, dz, reach});
          break;
        }
      }
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const StencilRow& a, const StencilRow& b) {
                     return std::abs(a.dy) + std::abs(a.dz) <
                            std::abs(b.dy) + std::abs(b.dz);
                   });
  // Each row's occupied cells are one run of the key array; one cursor per
  // row only moves forward, so a pass visits its cells in key order.
  std::vector<std::uint32_t> cursor(rows.size());
  std::array<CellRun, 25> runs{};
  auto stencil_runs = [&](std::uint32_t c) {
    const std::int32_t x = key_field(cell_key[c], 0);
    const std::int32_t y = key_field(cell_key[c], 1);
    const std::int32_t z = key_field(cell_key[c], 2);
    std::size_t num_runs = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::int32_t ry = y + rows[r].dy;
      const std::int32_t rz = z + rows[r].dz;
      if (ry < 0 || ry >= count[1] || rz < 0 || rz >= count[2]) continue;
      const std::uint64_t lo = pack_key(std::max(0, x - rows[r].reach), ry, rz);
      const std::uint64_t hi =
          pack_key(std::min(count[0] - 1, x + rows[r].reach), ry, rz);
      std::uint32_t first = cursor[r];
      while (first < num_cells && cell_key[first] < lo) ++first;
      cursor[r] = first;
      std::uint32_t last = first;
      while (last < num_cells && cell_key[last] <= hi) ++last;
      if (last > first) runs[num_runs++] = {first, last};
    }
    return num_runs;
  };

  // --- dense cells: everyone is core, one union chain per cell. core[k]
  // is 0 for a non-core point, 1 for a core by degree and 2 for a dense
  // cell's resident. ---
  UnionFind uf(n);  // over sorted positions
  std::vector<char> core(n, 0);
  std::vector<char> dense(num_cells, 0);
  for (std::uint32_t c = 0; c < num_cells; ++c) {
    const std::uint32_t head = cell_start[c];
    const std::uint32_t end = cell_start[c + 1];
    if (end - head < static_cast<std::uint32_t>(minpts)) continue;
    dense[c] = 1;
    ++local.dense_cells;
    local.dense_points += end - head;
    core[head] = 2;
    for (std::uint32_t k = head + 1; k < end; ++k) {
      core[k] = 2;
      local.unions += uf.unite(head, k) ? 1 : 0;
    }
  }

  // --- sparse degrees: eps-ball counts (self included) for points whose
  // cell did not already certify them, stopping at minpts hits ---
  std::fill(cursor.begin(), cursor.end(), 0);
  for (std::uint32_t c = 0; c < num_cells; ++c) {
    if (dense[c]) continue;
    const std::size_t num_runs = stencil_runs(c);
    for (std::uint32_t p = cell_start[c]; p < cell_start[c + 1]; ++p) {
      int hits = 0;
      for (std::size_t r = 0; r < num_runs && hits < minpts; ++r) {
        const std::uint32_t end = cell_start[runs[r].last];
        for (std::uint32_t q = cell_start[runs[r].first]; q < end; ++q) {
          ++local.distance_tests;
          if (dist2(pts[p], pts[q]) <= eps2f && ++hits == minpts) break;
        }
      }
      core[p] = hits >= minpts ? 1 : 0;
    }
  }

  // --- dense cells against their neighbors. Any pair within eps connects
  // a dense cell to a core, so an early-exit bichromatic probe replaces
  // the full pair scan: once per unordered pair of dense cells (the smaller
  // key drives), and once per sparse core that does not already share the
  // cell's root. Runs go in key order here, since which probes a union
  // makes redundant depends on the order. ---
  auto probe = [&](std::uint32_t a, std::uint32_t a_end, std::uint32_t b,
                   std::uint32_t b_end) {
    for (std::uint32_t p = a; p < a_end; ++p) {
      for (std::uint32_t q = b; q < b_end; ++q) {
        ++local.distance_tests;
        if (dist2(pts[p], pts[q]) <= eps2f) {
          local.unions += uf.unite(p, q) ? 1 : 0;
          return true;
        }
      }
    }
    return false;
  };
  std::fill(cursor.begin(), cursor.end(), 0);
  for (std::uint32_t c = 0; c < num_cells; ++c) {
    if (!dense[c]) continue;
    const std::size_t num_runs = stencil_runs(c);
    std::sort(runs.begin(), runs.begin() + num_runs,
              [](const CellRun& a, const CellRun& b) {
                return a.first < b.first;
              });
    const std::uint32_t head = cell_start[c];
    const std::uint32_t end = cell_start[c + 1];
    std::uint32_t root = uf.find(head);
    for (std::size_t r = 0; r < num_runs; ++r) {
      for (std::uint32_t o = runs[r].first; o < runs[r].last; ++o) {
        if (dense[o]) {
          if (o > c && uf.find(cell_start[o]) != root &&
              probe(head, end, cell_start[o], cell_start[o + 1])) {
            root = uf.find(root);
          }
          continue;
        }
        for (std::uint32_t q = cell_start[o]; q < cell_start[o + 1]; ++q) {
          if (core[q] == 1 && uf.find(q) != root &&
              probe(head, end, q, q + 1)) {
            root = uf.find(root);
          }
        }
      }
    }
  }

  // --- sparse connectivity + border capture. A sparse core unions with
  // the sparse cores stored after it, so each sparse pair tests once. A
  // non-core point keeps the smallest input id of its core neighbors (the
  // deterministic border rule), so it tests only cores with a smaller id
  // than its current target. ---
  std::vector<PointId> border(n, kNoCore);  // input id of the border core
  std::fill(cursor.begin(), cursor.end(), 0);
  for (std::uint32_t c = 0; c < num_cells; ++c) {
    if (dense[c]) continue;
    const std::size_t num_runs = stencil_runs(c);
    for (std::uint32_t p = cell_start[c]; p < cell_start[c + 1]; ++p) {
      if (core[p]) {
        std::uint32_t root = uf.find(p);
        for (std::size_t r = 0; r < num_runs; ++r) {
          const std::uint32_t end = cell_start[runs[r].last];
          for (std::uint32_t q = std::max(cell_start[runs[r].first], p + 1);
               q < end; ++q) {
            if (core[q] != 1) continue;
            ++local.distance_tests;
            if (dist2(pts[p], pts[q]) <= eps2f) {
              local.unions += uf.unite(root, q) ? 1 : 0;
              root = uf.find(root);
            }
          }
        }
        continue;
      }
      PointId target = kNoCore;
      for (std::size_t r = 0; r < num_runs; ++r) {
        for (std::uint32_t o = runs[r].first; o < runs[r].last; ++o) {
          // Residents sit in input order, so the first id past the target
          // (a hit included) ends the cell.
          for (std::uint32_t q = cell_start[o];
               q < cell_start[o + 1] && order[q] < target; ++q) {
            if (!core[q]) continue;
            ++local.distance_tests;
            if (dist2(pts[p], pts[q]) <= eps2f) target = order[q];
          }
        }
      }
      border[p] = target;
    }
  }

  // --- labels: cluster ids by first appearance in input order (core roots
  // first, then borders through their recorded core) — deterministic ---
  std::vector<std::uint32_t> root_of(n, kNoCore);  // by input id
  for (std::uint32_t k = 0; k < n; ++k) {
    if (core[k]) root_of[order[k]] = uf.find(k);
  }
  std::vector<std::int32_t> label_of_root(n, kNoise);
  std::int32_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (root_of[i] == kNoCore) continue;
    std::int32_t& label = label_of_root[root_of[i]];
    if (label == kNoise) label = next++;
    result.labels[i] = label;
  }
  for (std::uint32_t k = 0; k < n; ++k) {
    if (!core[k] && border[k] != kNoCore) {
      result.labels[order[k]] = result.labels[border[k]];
    }
  }
  result.num_clusters = next;
  result.finalize_noise_count();

  // --- modeled cost on the reference device: every distance test reads a
  // candidate id and point (roofline vs the distance FLOPs), every union
  // serializes like a global atomic, one launch for the whole pass ---
  const std::uint64_t bytes =
      local.distance_tests * (sizeof(Point) + sizeof(PointId));
  const double mem_s =
      static_cast<double>(bytes) / (config.mem_bandwidth_gbps * 1e9);
  const double compute_s =
      static_cast<double>(local.distance_tests * 3 * kDims) /
      config.peak_flops();
  local.modeled_seconds = std::max(mem_s, compute_s) +
                          static_cast<double>(local.unions) *
                              config.atomic_ns * 1e-9 +
                          config.kernel_launch_us * 1e-6;
  if (report != nullptr) *report = local;
  return result;
}

}  // namespace

ClusterResult cell_graph_dbscan(std::span<const Point2> points, float eps,
                                int minpts,
                                const cudasim::DeviceConfig& config,
                                CellGraphReport* report) {
  return cell_graph_impl(points, eps, minpts, config, report);
}

ClusterResult cell_graph_dbscan(std::span<const Point3> points, float eps,
                                int minpts,
                                const cudasim::DeviceConfig& config,
                                CellGraphReport* report) {
  return cell_graph_impl(points, eps, minpts, config, report);
}

double cell_graph_dense_share(std::span<const Point2> points, float eps,
                              int minpts) {
  if (eps <= 0.0f) {
    throw std::invalid_argument("cell_graph_dbscan: eps must be positive");
  }
  if (minpts < 1) {
    throw std::invalid_argument("cell_graph_dbscan: minpts must be >= 1");
  }
  if (points.empty()) return 0.0;
  const Binning bins = bin_points(points, eps);
  const std::size_t n = points.size();
  std::size_t dense = 0;
  for (std::size_t first = 0; first < n;) {
    const std::uint64_t key = bins.key_of[bins.order[first]];
    std::size_t last = first + 1;
    while (last < n && bins.key_of[bins.order[last]] == key) ++last;
    if (last - first >= static_cast<std::size_t>(minpts)) dense += last - first;
    first = last;
  }
  return static_cast<double>(dense) / static_cast<double>(n);
}

}  // namespace hdbscan
