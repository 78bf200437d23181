#include "core/cell_graph.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/timer.hpp"
#include "dbscan/union_find.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

constexpr std::int32_t kStencilReach = 2;  ///< sqrt(d) cells cover eps
constexpr PointId kNoCore = std::numeric_limits<PointId>::max();

/// Traits unify the 2-D and 3-D passes: coordinate count, per-axis access
/// and the per-distance-test FLOP charge (matching the traversal kernels:
/// 3 per axis for the squared difference plus the compare).
struct Traits2 {
  static constexpr int kDims = 2;
  static constexpr std::uint64_t kFlopsPerTest = 6;
  using Point = Point2;
  static float coord(const Point& p, int axis) noexcept {
    return axis == 0 ? p.x : p.y;
  }
};

struct Traits3 {
  static constexpr int kDims = 3;
  static constexpr std::uint64_t kFlopsPerTest = 9;
  using Point = Point3;
  static float coord(const Point& p, int axis) noexcept {
    return axis == 0 ? p.x : (axis == 1 ? p.y : p.z);
  }
};

/// One occupied cell: its packed coordinates and resident point ids.
/// Cells are sorted by packed key, so every pass below iterates them in a
/// deterministic order regardless of the hash map's bucket layout.
struct Cell {
  std::uint64_t key = 0;
  std::array<std::int32_t, 3> coords{};
  std::vector<PointId> points;
  bool dense = false;
};

/// Bits of the packed key per axis: x and y take 21 bits, z the 22 above
/// them. The binning rejects an extent whose cell count does not fit.
constexpr std::array<int, 3> kKeyBits = {21, 21, 22};

/// Packs per-axis cell coordinates (each in [0, 2^kKeyBits) after
/// offsetting by the minimum) into one sortable key.
std::uint64_t pack_key(const std::array<std::int32_t, 3>& c) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c[2]))
          << 42) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c[1]) &
                                     0x1fffffu)
          << 21) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c[0]) &
                                     0x1fffffu));
}

/// Squared minimum distance between two cells of side `side` whose
/// coordinates differ by `delta` per axis: axes where the cells are
/// adjacent or equal contribute nothing; a gap of g cells contributes
/// ((g-1) * side)^2... strictly, (|delta|-1) empty cell widths.
double cell_min_dist2(const std::array<std::int32_t, 3>& a,
                      const std::array<std::int32_t, 3>& b, double side,
                      int dims) noexcept {
  double d2 = 0.0;
  for (int axis = 0; axis < dims; ++axis) {
    const auto gap = std::abs(a[axis] - b[axis]);
    if (gap > 1) {
      const double g = (gap - 1) * side;
      d2 += g * g;
    }
  }
  return d2;
}

template <typename Traits>
ClusterResult cell_graph_impl(std::span<const typename Traits::Point> points,
                              float eps, int minpts,
                              const cudasim::DeviceConfig& config,
                              CellGraphReport* report) {
  using Point = typename Traits::Point;
  if (eps <= 0.0f) {
    throw std::invalid_argument("cell_graph_dbscan: eps must be positive");
  }
  if (minpts < 1) {
    throw std::invalid_argument("cell_graph_dbscan: minpts must be >= 1");
  }
  WallTimer total_timer;
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

  // --- bin to side eps/sqrt(d): the diagonal of a cell is exactly eps,
  // so any two residents of one cell are eps-neighbors ---
  const double side =
      static_cast<double>(eps) / std::sqrt(static_cast<double>(Traits::kDims));
  std::array<float, 3> mins{};
  std::array<float, 3> maxs{};
  mins.fill(std::numeric_limits<float>::max());
  maxs.fill(std::numeric_limits<float>::lowest());
  for (const Point& p : points) {
    for (int axis = 0; axis < Traits::kDims; ++axis) {
      mins[axis] = std::min(mins[axis], Traits::coord(p, axis));
      maxs[axis] = std::max(maxs[axis], Traits::coord(p, axis));
    }
  }
  // Cells per axis, sized in double before anything narrows: the span must
  // be finite and the count must fit the axis's key field.
  std::array<std::int32_t, 3> count{1, 1, 1};
  for (int axis = 0; axis < Traits::kDims; ++axis) {
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
  std::unordered_map<std::uint64_t, std::uint32_t> cell_of_key;
  std::vector<Cell> cells;
  std::vector<std::uint32_t> cell_of_point(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::array<std::int32_t, 3> c{};
    for (int axis = 0; axis < Traits::kDims; ++axis) {
      const double cell = (Traits::coord(points[i], axis) - mins[axis]) / side;
      if (!(cell >= 0.0 && cell < count[axis])) {  // NaN coordinates too
        throw std::invalid_argument(
            "cell_graph_dbscan: coordinate outside the binned extent");
      }
      c[axis] = static_cast<std::int32_t>(cell);
    }
    const std::uint64_t key = pack_key(c);
    auto [it, fresh] =
        cell_of_key.try_emplace(key, static_cast<std::uint32_t>(cells.size()));
    if (fresh) {
      cells.push_back(Cell{key, c, {}, false});
    }
    cells[it->second].points.push_back(static_cast<PointId>(i));
    cell_of_point[i] = it->second;
  }
  // Deterministic cell order; remap the per-point cell ids to match.
  std::vector<std::uint32_t> order(cells.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return cells[a].key < cells[b].key;
  });
  std::vector<Cell> sorted;
  sorted.reserve(cells.size());
  std::vector<std::uint32_t> new_id(cells.size());
  for (const std::uint32_t old : order) {
    new_id[old] = static_cast<std::uint32_t>(sorted.size());
    sorted.push_back(std::move(cells[old]));
  }
  cells = std::move(sorted);
  for (auto& id : cell_of_point) id = new_id[id];
  for (auto& [key, id] : cell_of_key) id = new_id[id];
  local.num_cells = cells.size();

  // --- dense cells: everyone is core, one union chain per cell ---
  UnionFind uf(n);
  std::vector<char> core(n, 0);
  for (Cell& cell : cells) {
    if (cell.points.size() < static_cast<std::size_t>(minpts)) continue;
    cell.dense = true;
    ++local.dense_cells;
    local.dense_points += cell.points.size();
    const PointId head = cell.points.front();
    core[head] = 1;
    for (std::size_t k = 1; k < cell.points.size(); ++k) {
      core[cell.points[k]] = 1;
      local.unions += uf.unite(head, cell.points[k]) ? 1 : 0;
    }
  }

  // Stencil walk shared by every pass below: visits the occupied cells
  // within kStencilReach of `cell` (min-distance pruned), self excluded
  // when `skip_self`. Coordinates outside [0, count) are skipped, never
  // wrapped through the key's field masks.
  const double eps2 = static_cast<double>(eps) * eps;
  auto for_each_stencil_cell = [&](const Cell& cell, bool skip_self,
                                   auto&& fn) {
    std::array<std::int32_t, 3> lo{};
    std::array<std::int32_t, 3> hi{};
    for (int axis = 0; axis < 3; ++axis) {
      lo[axis] = std::max(0, cell.coords[axis] - kStencilReach);
      hi[axis] = std::min(count[axis] - 1, cell.coords[axis] + kStencilReach);
    }
    std::array<std::int32_t, 3> c{};
    for (std::int32_t dz = lo[2]; dz <= hi[2]; ++dz) {
      c[2] = dz;
      for (std::int32_t dy = lo[1]; dy <= hi[1]; ++dy) {
        c[1] = dy;
        for (std::int32_t dx = lo[0]; dx <= hi[0]; ++dx) {
          c[0] = dx;
          const std::uint64_t key = pack_key(c);
          if (skip_self && key == cell.key) continue;
          if (cell_min_dist2(cell.coords, c, side, Traits::kDims) > eps2) {
            continue;
          }
          const auto it = cell_of_key.find(key);
          if (it == cell_of_key.end()) continue;
          fn(cells[it->second]);
        }
      }
    }
  };

  // --- sparse degrees: exact eps-ball counts (self included), only for
  // points whose cell did not already certify them ---
  std::vector<std::uint32_t> degree(n, 0);
  for (const Cell& cell : cells) {
    if (cell.dense) continue;
    for_each_stencil_cell(cell, /*skip_self=*/false, [&](const Cell& other) {
      for (const PointId p : cell.points) {
        for (const PointId q : other.points) {
          ++local.distance_tests;
          if (dist2(points[p], points[q]) <= static_cast<float>(eps2)) {
            ++degree[p];
          }
        }
      }
    });
    for (const PointId p : cell.points) {
      if (degree[p] >= static_cast<std::uint32_t>(minpts)) core[p] = 1;
    }
  }

  // --- dense-dense adjacency: any pair within eps connects two all-core
  // cells, so an early-exit bichromatic probe replaces the full pair scan ---
  for (const Cell& cell : cells) {
    if (!cell.dense) continue;
    for_each_stencil_cell(cell, /*skip_self=*/true, [&](const Cell& other) {
      // Each unordered cell pair probes once (smaller key drives).
      if (!other.dense || other.key < cell.key) return;
      if (uf.connected(cell.points.front(), other.points.front())) return;
      for (const PointId p : cell.points) {
        for (const PointId q : other.points) {
          ++local.distance_tests;
          if (dist2(points[p], points[q]) <= static_cast<float>(eps2)) {
            local.unions += uf.unite(p, q) ? 1 : 0;
            return;
          }
        }
      }
    });
  }

  // --- sparse connectivity + border capture: a sparse core unions with
  // every core neighbor (one union per dense cell suffices — the cell is
  // already one component); a sparse non-core remembers its smallest core
  // neighbor id, the deterministic border-assignment rule ---
  std::vector<PointId> border_core(n, kNoCore);
  for (const Cell& cell : cells) {
    if (cell.dense) continue;
    for_each_stencil_cell(cell, /*skip_self=*/false, [&](const Cell& other) {
      for (const PointId p : cell.points) {
        bool linked_dense = false;
        for (const PointId q : other.points) {
          if (p == q || !core[q]) continue;
          ++local.distance_tests;
          if (dist2(points[p], points[q]) > static_cast<float>(eps2)) {
            continue;
          }
          if (core[p]) {
            if (other.dense) {
              if (linked_dense) continue;
              linked_dense = true;
            }
            local.unions += uf.unite(p, q) ? 1 : 0;
          } else if (border_core[p] == kNoCore ||
                     q < border_core[p]) {
            border_core[p] = q;
          }
        }
      }
    });
  }

  // --- labels: cluster ids by first appearance in point order (core roots
  // first, then borders through their recorded core) — deterministic ---
  std::unordered_map<std::uint32_t, std::int32_t> label_of_root;
  std::int32_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!core[i]) continue;
    const std::uint32_t root = uf.find(static_cast<std::uint32_t>(i));
    auto [it, fresh] = label_of_root.try_emplace(root, next);
    if (fresh) ++next;
    result.labels[i] = it->second;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (core[i] || border_core[i] == kNoCore) continue;
    result.labels[i] = result.labels[border_core[i]];
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
      static_cast<double>(local.distance_tests * Traits::kFlopsPerTest) /
      config.peak_flops();
  local.modeled_seconds = std::max(mem_s, compute_s) +
                          static_cast<double>(local.unions) *
                              config.atomic_ns * 1e-9 +
                          config.kernel_launch_us * 1e-6;
  local.cpu_seconds = total_timer.seconds();
  if (report != nullptr) *report = local;
  return result;
}

}  // namespace

ClusterResult cell_graph_dbscan(std::span<const Point2> points, float eps,
                                int minpts,
                                const cudasim::DeviceConfig& config,
                                CellGraphReport* report) {
  return cell_graph_impl<Traits2>(points, eps, minpts, config, report);
}

ClusterResult cell_graph_dbscan3(std::span<const Point3> points, float eps,
                                 int minpts,
                                 const cudasim::DeviceConfig& config,
                                 CellGraphReport* report) {
  return cell_graph_impl<Traits3>(points, eps, minpts, config, report);
}

}  // namespace hdbscan
