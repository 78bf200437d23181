#include "index/rtree.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <stdexcept>

namespace hdbscan {

RTree::RTree(std::span<const Point2> points, unsigned node_capacity,
             RTreeBuild build)
    : capacity_(node_capacity) {
  if (node_capacity < 2) {
    throw std::invalid_argument("RTree: node capacity must be >= 2");
  }
  if (points.empty()) throw std::invalid_argument("RTree: empty database");
  switch (build) {
    case RTreeBuild::kStrSerial:
      build_str(points);
      break;
    case RTreeBuild::kIncremental:
      build_incremental(points);
      break;
  }
}

void RTree::build_str(std::span<const Point2> points) {
  const std::size_t n = points.size();

  // --- STR leaf packing ---
  // Sort ids by x, cut into ceil(sqrt(nleaves)) vertical slices, sort each
  // slice by y, then pack runs of `capacity_` points into leaves.
  std::vector<PointId> order(n);
  std::iota(order.begin(), order.end(), PointId{0});
  std::sort(order.begin(), order.end(), [&](PointId a, PointId b) {
    return points[a].x < points[b].x;
  });

  const std::size_t num_leaves = (n + capacity_ - 1) / capacity_;
  const auto num_slices = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const std::size_t slice_size =
      ((num_leaves + num_slices - 1) / num_slices) * capacity_;
  const std::size_t slices = (n + slice_size - 1) / slice_size;

  for (std::size_t s = 0; s < slices; ++s) {
    const std::size_t begin = s * slice_size;
    const std::size_t end = std::min(n, begin + slice_size);
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
              order.begin() + static_cast<std::ptrdiff_t>(end),
              [&](PointId a, PointId b) { return points[a].y < points[b].y; });
  }

  points_.resize(n);
  entries_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    points_[i] = points[order[i]];
    entries_[i] = order[i];
  }

  // Pack leaves: leaf l covers entries [l * capacity_, ...).
  nodes_.resize(num_leaves);
  for (std::size_t l = 0; l < num_leaves; ++l) {
    const std::size_t begin = l * capacity_;
    const std::size_t end = std::min(n, begin + capacity_);
    Node leaf;
    leaf.leaf = true;
    leaf.first = static_cast<std::uint32_t>(begin);
    leaf.count = static_cast<std::uint32_t>(end - begin);
    for (std::size_t i = begin; i < end; ++i) leaf.mbr.expand(points_[i]);
    nodes_[l] = leaf;
  }
  std::vector<std::uint32_t> level(num_leaves);
  std::iota(level.begin(), level.end(), std::uint32_t{0});
  height_ = 1;

  // --- build upper levels by packing `capacity_` children per node ---
  while (level.size() > 1) {
    std::vector<std::uint32_t> parent_level;
    for (std::size_t begin = 0; begin < level.size(); begin += capacity_) {
      const std::size_t end = std::min(level.size(), begin + capacity_);
      Node parent;
      parent.leaf = false;
      parent.first = level[begin];  // children are contiguous by construction
      parent.count = static_cast<std::uint32_t>(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        parent.mbr.expand(nodes_[level[i]].mbr);
      }
      parent_level.push_back(static_cast<std::uint32_t>(nodes_.size()));
      nodes_.push_back(parent);
    }
    level = std::move(parent_level);
    ++height_;
  }
  root_ = level.front();
}

namespace {

/// Mutable tree used only during the incremental build; flattened into the
/// packed contiguous-children layout afterwards.
struct TmpNode {
  Rect2 mbr;
  std::vector<std::uint32_t> children;  ///< indices into the tmp pool
  std::vector<PointId> entries;         ///< leaf payload (original ids)
  bool leaf = true;
};

[[nodiscard]] float enlargement(const Rect2& mbr, const Rect2& add) noexcept {
  Rect2 grown = mbr;
  grown.expand(add);
  return grown.area() - mbr.area();
}

/// Guttman's linear pick-seeds: the pair with the greatest normalized
/// separation along either axis.
template <typename GetRect>
std::pair<std::size_t, std::size_t> linear_pick_seeds(std::size_t count,
                                                      GetRect&& rect_of) {
  std::size_t lo_x = 0, hi_x = 0, lo_y = 0, hi_y = 0;
  Rect2 total;
  for (std::size_t i = 0; i < count; ++i) {
    const Rect2 r = rect_of(i);
    total.expand(r);
    if (r.min_x > rect_of(lo_x).min_x) lo_x = i;
    if (r.max_x < rect_of(hi_x).max_x) hi_x = i;
    if (r.min_y > rect_of(lo_y).min_y) lo_y = i;
    if (r.max_y < rect_of(hi_y).max_y) hi_y = i;
  }
  const float ext_x = std::max(total.max_x - total.min_x, 1e-30f);
  const float ext_y = std::max(total.max_y - total.min_y, 1e-30f);
  const float sep_x =
      (rect_of(lo_x).min_x - rect_of(hi_x).max_x) / ext_x;
  const float sep_y =
      (rect_of(lo_y).min_y - rect_of(hi_y).max_y) / ext_y;
  std::size_t a = sep_x >= sep_y ? lo_x : lo_y;
  std::size_t b = sep_x >= sep_y ? hi_x : hi_y;
  if (a == b) b = (a + 1) % count;  // degenerate data: any split works
  if (a > b) std::swap(a, b);
  return {a, b};
}

}  // namespace

void RTree::build_incremental(std::span<const Point2> points) {
  std::vector<TmpNode> pool;
  pool.emplace_back();  // root starts as an empty leaf
  std::uint32_t root = 0;

  auto entry_rect = [&](PointId id) {
    Rect2 r;
    r.expand(points[id]);
    return r;
  };
  auto recompute_mbr = [&](TmpNode& node) {
    node.mbr = Rect2{};
    if (node.leaf) {
      for (PointId id : node.entries) node.mbr.expand(points[id]);
    } else {
      for (std::uint32_t c : node.children) node.mbr.expand(pool[c].mbr);
    }
  };

  // Splits `node_idx`'s overflowing payload across itself and a fresh
  // sibling (Guttman's linear split), returning the sibling's index.
  auto split = [&](std::uint32_t node_idx) -> std::uint32_t {
    const std::uint32_t sibling_idx =
        static_cast<std::uint32_t>(pool.size());
    pool.emplace_back();
    // NOTE: pool may reallocate above — re-acquire references after.
    TmpNode& node = pool[node_idx];
    TmpNode& sib = pool[sibling_idx];
    sib.leaf = node.leaf;

    if (node.leaf) {
      std::vector<PointId> all = std::move(node.entries);
      node.entries.clear();
      auto [sa, sb] = linear_pick_seeds(
          all.size(), [&](std::size_t i) { return entry_rect(all[i]); });
      node.entries.push_back(all[sa]);
      sib.entries.push_back(all[sb]);
      recompute_mbr(node);
      recompute_mbr(sib);
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (i == sa || i == sb) continue;
        const Rect2 r = entry_rect(all[i]);
        TmpNode& tgt = enlargement(node.mbr, r) <= enlargement(sib.mbr, r)
                           ? node
                           : sib;
        tgt.entries.push_back(all[i]);
        tgt.mbr.expand(r);
      }
    } else {
      std::vector<std::uint32_t> all = std::move(node.children);
      node.children.clear();
      auto [sa, sb] = linear_pick_seeds(
          all.size(), [&](std::size_t i) { return pool[all[i]].mbr; });
      node.children.push_back(all[sa]);
      sib.children.push_back(all[sb]);
      recompute_mbr(node);
      recompute_mbr(sib);
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (i == sa || i == sb) continue;
        const Rect2 r = pool[all[i]].mbr;
        TmpNode& tgt = enlargement(node.mbr, r) <= enlargement(sib.mbr, r)
                           ? node
                           : sib;
        tgt.children.push_back(all[i]);
        tgt.mbr.expand(r);
      }
    }
    return sibling_idx;
  };

  std::vector<std::uint32_t> path;  // root .. leaf of the current descent
  for (PointId id = 0; id < points.size(); ++id) {
    const Rect2 r = entry_rect(id);
    // Choose-leaf: descend by least area enlargement (ties: smaller area).
    path.clear();
    std::uint32_t cur = root;
    path.push_back(cur);
    while (!pool[cur].leaf) {
      const TmpNode& node = pool[cur];
      std::uint32_t best = node.children.front();
      float best_enl = enlargement(pool[best].mbr, r);
      for (std::uint32_t c : node.children) {
        const float enl = enlargement(pool[c].mbr, r);
        if (enl < best_enl ||
            (enl == best_enl && pool[c].mbr.area() < pool[best].mbr.area())) {
          best = c;
          best_enl = enl;
        }
      }
      cur = best;
      path.push_back(cur);
    }
    pool[cur].entries.push_back(id);
    pool[cur].mbr.expand(r);

    // Split overflowing nodes bottom-up; grow a new root if the old one
    // splits.
    for (std::size_t depth = path.size(); depth-- > 0;) {
      const std::uint32_t idx = path[depth];
      const TmpNode& node = pool[idx];
      const std::size_t load =
          node.leaf ? node.entries.size() : node.children.size();
      if (load <= capacity_) break;
      const std::uint32_t sibling = split(idx);
      if (depth == 0) {
        const auto new_root = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back();
        TmpNode& nr = pool[new_root];
        nr.leaf = false;
        nr.children = {idx, sibling};
        recompute_mbr(nr);
        root = new_root;
      } else {
        TmpNode& parent = pool[path[depth - 1]];
        parent.children.push_back(sibling);
        parent.mbr.expand(pool[sibling].mbr);
      }
    }
    // Refresh the descent path's MBRs bottom-up (cheap: height-deep).
    for (std::size_t depth = path.size(); depth-- > 0;) {
      recompute_mbr(pool[path[depth]]);
    }
  }

  // --- flatten into the packed layout (contiguous children, leaf-packed
  // entry arrays) so the query path is shared with the STR builds ---
  points_.reserve(points.size());
  entries_.reserve(points.size());
  nodes_.clear();
  nodes_.push_back(Node{});  // packed root at index 0
  root_ = 0;
  std::deque<std::pair<std::uint32_t, std::uint32_t>> queue;  // (tmp, packed)
  queue.emplace_back(root, 0);
  unsigned max_depth = 1;
  std::vector<unsigned> depth_of(1, 1);
  while (!queue.empty()) {
    const auto [tmp_idx, packed_idx] = queue.front();
    queue.pop_front();
    const TmpNode& tmp = pool[tmp_idx];
    Node packed;
    packed.mbr = tmp.mbr;
    packed.leaf = tmp.leaf;
    if (tmp.leaf) {
      packed.first = static_cast<std::uint32_t>(points_.size());
      packed.count = static_cast<std::uint32_t>(tmp.entries.size());
      for (PointId id : tmp.entries) {
        points_.push_back(points[id]);
        entries_.push_back(id);
      }
    } else {
      packed.first = static_cast<std::uint32_t>(nodes_.size());
      packed.count = static_cast<std::uint32_t>(tmp.children.size());
      for (std::uint32_t c : tmp.children) {
        const auto child_packed = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{});
        depth_of.push_back(depth_of[packed_idx] + 1);
        max_depth = std::max(max_depth, depth_of[packed_idx] + 1);
        queue.emplace_back(c, child_packed);
      }
    }
    nodes_[packed_idx] = packed;
  }
  height_ = max_depth;
}

void RTree::query_circle(const Point2& q, float eps, std::vector<PointId>& out,
                         TimeAccumulator* acc) const {
  ScopedTimer timing(acc);
  query_impl(q, eps, out);
}

void RTree::query_impl(const Point2& q, float eps,
                       std::vector<PointId>& out) const {
  const float eps2 = eps * eps;
  std::uint32_t stack[256];
  unsigned depth = 0;
  stack[depth++] = root_;
  while (depth > 0) {
    const Node& node = nodes_[stack[--depth]];
    if (node.leaf) {
      for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
        if (dist2(q, points_[i]) <= eps2) out.push_back(entries_[i]);
      }
    } else {
      for (std::uint32_t c = node.first; c < node.first + node.count; ++c) {
        if (nodes_[c].mbr.min_dist2(q) <= eps2) stack[depth++] = c;
      }
    }
  }
}

void RTree::query_rect(const Rect2& rect, std::vector<PointId>& out) const {
  std::uint32_t stack[256];
  unsigned depth = 0;
  stack[depth++] = root_;
  while (depth > 0) {
    const Node& node = nodes_[stack[--depth]];
    if (!node.mbr.intersects(rect)) continue;
    if (node.leaf) {
      for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
        if (rect.contains(points_[i])) out.push_back(entries_[i]);
      }
    } else {
      for (std::uint32_t c = node.first; c < node.first + node.count; ++c) {
        stack[depth++] = c;
      }
    }
  }
}

}  // namespace hdbscan
