#include "gpu/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <type_traits>
#include <utility>
#include <vector>

#include "dbscan/dbscan_parallel.hpp"

namespace hdbscan::gpu {

namespace {

/// Candidate traversal shared by the per-point kernel bodies over a grid,
/// 2-D or 3-D. Calls `visit(candidate, hit)` for every candidate it tests,
/// `hit` being whether the candidate lies within eps of `point`, and
/// charges each stencil cell's range, each tested candidate's point (ids
/// are positions in D, so a candidate is one point read and no id read)
/// and its 3·D-op squared-distance test (6 ops in 2-D, 9 in 3-D). Passing
/// the hit bit instead of calling back only on hits lets a body consume it
/// without a branch (the count adds it, the fill advances its cursor by
/// it).
///
/// kFull walks the whole 3^D-cell stencil — every qualifying pair (i, j)
/// is tested from both sides. kHalf tests each pair exactly once: the own
/// cell contributes only its ids from the query's own on (its residents
/// are the ascending ids of its range), and only the forward half of the
/// stencil is visited. Hits are therefore forward rows only; symmetry is
/// restored downstream (NeighborTable::assemble).
///
/// Cells along axis 0 hold consecutive ranges of D, and the ranges of
/// different cells are disjoint, so a cell whose range begins where the
/// pending one ends is scanned with it as one range: a 2-D kFull stencil
/// is 3 ranges (9 in 3-D), a 2-D kHalf one 2. Candidates are still
/// visited in stencil order.
///
/// `walk(range, own)` sees each stencil cell before it is scanned, `own`
/// marking the point's own cell, and may take the cell over by returning
/// true (the fused union pass walks dense sub-cell runs that way); the
/// default scans every cell. A walked cell ends the pending range, which
/// is scanned after the walk.
struct ScanEveryCell {
  constexpr bool operator()(CellRange, bool) const noexcept { return false; }
};
template <typename View, typename Point, typename Visit,
          typename Walk = ScanEveryCell>
void for_each_neighbor(const View& view, ScanMode mode, PointId pid,
                       const Point& point, float eps2, cudasim::ThreadCtx& ctx,
                       Visit&& visit, Walk&& walk = {}) {
  constexpr std::uint64_t kTestFlops = 3 * Point::kDims;
  std::uint32_t begin = 0;  // the pending range [begin, end)
  std::uint32_t end = 0;
  std::uint64_t tested = 0;
  unsigned cells_read = 0;
  auto scan = [&] {
    for (PointId a = begin; a < end; ++a) {
      visit(a, dist2(point, view.points[a]) <= eps2);
    }
    tested += end - begin;
  };
  auto add = [&](std::uint32_t from, std::uint32_t to) {
    if (from != end) {
      scan();
      begin = from;
    }
    end = to;
  };

  const std::uint32_t cell = view.params.linear_cell(point);
  CellStencil<Point> cell_ids{};
  unsigned ncells = 0;
  if (mode == ScanMode::kHalf) {
    const CellRange own = view.cells[cell];
    ++cells_read;
    if (!walk(own, true)) add(pid, own.end);
    ncells = get_forward_neighbor_cells(view.params, cell, cell_ids);
  } else {
    ncells = get_neighbor_cells(view.params, cell, cell_ids);
  }
  for (unsigned c = 0; c < ncells; ++c) {
    const CellRange range = view.cells[cell_ids[c]];
    ++cells_read;
    if (!walk(range, cell_ids[c] == cell)) add(range.begin, range.end);
  }
  scan();
  ctx.count_global_bytes(cells_read * sizeof(CellRange) +
                         tested * sizeof(point));
  ctx.count_flops(tested * kTestFlops);
}

/// The early-exit traversal of the fused core and mark passes: visits the
/// hits of a kFull traversal, self included, until `limit` (at least 1) of
/// them were visited, and returns how many were. The point's own cell is
/// scanned first — where a dense point finds its first neighbors — then
/// the rest of the stencil in order, abutting cells as one range as in
/// for_each_neighbor. Each tested candidate is charged like
/// for_each_neighbor's, and each cell the scan reached its range; where
/// the scan stops depends only on the geometry, so the charges depend on
/// the input alone.
template <typename View, typename Point, typename Hit>
std::uint32_t for_each_hit_until(const View& view, const Point& point,
                                 float eps2, std::uint32_t limit,
                                 cudasim::ThreadCtx& ctx, Hit&& hit) {
  constexpr std::uint64_t kTestFlops = 3 * Point::kDims;
  std::uint32_t found = 0;
  std::uint64_t tested = 0;
  unsigned reached = 0;
  // The pending range: abutting cells not scanned yet, where each begins,
  // and where the last ends.
  CellStencil<Point> begins{};
  unsigned pending = 0;
  std::uint32_t end = 0;
  auto flush = [&] {
    if (pending == 0) return;
    PointId a = begins[0];
    for (; a < end && found < limit; ++a) {
      if (dist2(point, view.points[a]) <= eps2) {
        hit(a);
        ++found;
      }
    }
    tested += a - begins[0];
    // A cell was reached when the scan got to it: every cell of a range
    // scanned through, else those beginning at or before the last
    // candidate tested.
    if (found < limit) {
      reached += pending;
    } else {
      for (unsigned k = 0; k < pending; ++k) reached += begins[k] < a;
    }
    pending = 0;
  };
  // Adds a cell to the pending range; false when the limit was met before
  // the scan got to it.
  auto add = [&](std::uint32_t cell) {
    const CellRange range = view.cells[cell];
    if (pending > 0 && range.begin != end) {
      flush();
      if (found >= limit) return false;
    }
    begins[pending++] = range.begin;
    end = range.end;
    return true;
  };
  // The own cell is scanned before the stencil is even listed: a dense
  // point stops there.
  const std::uint32_t cell = view.params.linear_cell(point);
  add(cell);
  flush();
  if (found < limit) {
    CellStencil<Point> cell_ids{};
    const unsigned ncells = get_neighbor_cells(view.params, cell, cell_ids);
    for (unsigned c = 0; c < ncells; ++c) {
      if (cell_ids[c] != cell && !add(cell_ids[c])) break;
    }
    flush();
  }
  ctx.count_global_bytes(reached * sizeof(CellRange) +
                         tested * sizeof(point));
  ctx.count_flops(tested * kTestFlops);
  return found;
}

/// Per-thread body of GPUCalcGlobal (paper Alg. 2, with the batching
/// transformation of §VI: the processed point is gid * n_b + l).
struct GlobalKernelBody {
  GridView view;
  float eps2;
  BatchSpec batch;
  ResultSinkView sink;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i =
        gid * batch.num_batches + batch.batch;  // strided assignment
    if (i >= view.num_points) return;

    const auto pid = static_cast<PointId>(i);
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2));

    StagedSink staged(sink);
    for_each_neighbor(view, ScanMode::kFull, pid, point, eps2, ctx,
                      [&](PointId candidate, bool hit) {
                        if (!hit) return;
                        staged.push(NeighborPair{pid, candidate}, ctx);
                      });
    staged.flush(ctx);
  }
};

struct SharedKernelParams {
  GridView view;
  const std::uint32_t* schedule;
  float eps2;
  ResultSinkView sink;
};

// Shared-memory arena layout for GPUCalcShared (block size B):
//   [0, 36)                      neighbor cell ids (<= 9 x u32)
//   [36, 40)                     neighbor cell count
//   [40, 40 + 8B)                origin tile points
//   [40 + 8B, 40 + 12B)          origin tile ids
//   [40 + 12B, 40 + 20B)         comparison tile points
//   [40 + 20B, 40 + 24B)         comparison tile ids
constexpr std::size_t kSmemHeader = 40;

/// One logical thread of GPUCalcShared (paper Alg. 3) as a coroutine;
/// co_await ctx.sync() is the simulator's __syncthreads().
cudasim::KernelTask shared_kernel_thread(cudasim::CoopCtx& ctx,
                                         SharedKernelParams p) {
  const unsigned tid = ctx.thread_idx;
  const unsigned bdim = ctx.block_dim;
  StagedSink staged(p.sink);

  auto cell_ids = ctx.shared_array<std::uint32_t>(0, 9);
  auto cell_count = ctx.shared_array<std::uint32_t>(36, 1);
  auto origin_pts = ctx.shared_array<Point2>(kSmemHeader, bdim);
  auto origin_ids =
      ctx.shared_array<PointId>(kSmemHeader + bdim * sizeof(Point2), bdim);
  auto comp_pts = ctx.shared_array<Point2>(
      kSmemHeader + bdim * (sizeof(Point2) + sizeof(PointId)), bdim);
  auto comp_ids = ctx.shared_array<PointId>(
      kSmemHeader + bdim * (2 * sizeof(Point2) + sizeof(PointId)), bdim);

  // The block's cell (schedule S maps blocks to non-empty cells).
  const std::uint32_t cell_to_proc = p.schedule[ctx.block_idx];
  ctx.count_global_bytes(sizeof(std::uint32_t));

  // Thread 0 publishes the comparison cell ids (Alg. 3 lines 8-10).
  if (tid == 0) {
    std::array<std::uint32_t, 9> tmp{};
    const unsigned n = get_neighbor_cells(p.view.params, cell_to_proc, tmp);
    for (unsigned c = 0; c < n; ++c) cell_ids[c] = tmp[c];
    cell_count[0] = n;
    ctx.count_shared_bytes(4ull * n + 4);
  }
  co_await ctx.sync();

  const CellRange origin_range = p.view.cells[cell_to_proc];
  ctx.count_global_bytes(sizeof(CellRange));

  // Outer tiling loop: needed when the origin cell holds more points than
  // the block size (the "additional loop" of §IV-B).
  for (std::uint32_t obase = origin_range.begin; obase < origin_range.end;
       obase += bdim) {
    const std::uint32_t oidx = obase + tid;
    const bool has_origin = oidx < origin_range.end;
    if (has_origin) {
      origin_ids[tid] = oidx;
      origin_pts[tid] = p.view.points[oidx];
      ctx.count_global_bytes(sizeof(Point2));
      ctx.count_shared_bytes(sizeof(PointId) + sizeof(Point2));
    }
    co_await ctx.sync();

    const unsigned ncells = cell_count[0];
    for (unsigned c = 0; c < ncells; ++c) {
      const CellRange comp_range = p.view.cells[cell_ids[c]];
      ctx.count_global_bytes(sizeof(CellRange));
      for (std::uint32_t cbase = comp_range.begin; cbase < comp_range.end;
           cbase += bdim) {
        // Page one comparison tile into shared memory (lines 15-17).
        const std::uint32_t cidx = cbase + tid;
        if (cidx < comp_range.end) {
          comp_ids[tid] = cidx;
          comp_pts[tid] = p.view.points[cidx];
          ctx.count_global_bytes(sizeof(Point2));
          ctx.count_shared_bytes(sizeof(PointId) + sizeof(Point2));
        }
        co_await ctx.sync();

        // Compare this thread's origin point against the tile (lines
        // 19-22), everything served from shared memory.
        if (has_origin) {
          const std::uint32_t tile =
              std::min<std::uint32_t>(bdim, comp_range.end - cbase);
          const Point2 mine = origin_pts[tid];
          const PointId my_id = origin_ids[tid];
          for (std::uint32_t j = 0; j < tile; ++j) {
            if (dist2(mine, comp_pts[j]) <= p.eps2) {
              staged.push(NeighborPair{my_id, comp_ids[j]}, ctx);
            }
          }
          ctx.count_shared_bytes(sizeof(Point2) + sizeof(PointId) +
                                 static_cast<std::uint64_t>(tile) *
                                     (sizeof(PointId) + sizeof(Point2)));
          ctx.count_flops(static_cast<std::uint64_t>(tile) * 6);
        }
        // Keep the tile stable until every thread is done comparing.
        co_await ctx.sync();
      }
    }
    // Keep the origin tile stable until every thread finished this round.
    co_await ctx.sync();
  }
  staged.flush(ctx);
}

/// Pass 1 of the two-pass CSR builder: thread g counts the neighbors of
/// its batch point and writes counts[g]. No atomics, no result
/// materialization — an exclusive scan of `counts` then yields the exact
/// CSR slot offsets for the fill pass.
template <typename View>
struct CountBatchKernelBody {
  View view;
  float eps2;
  BatchSpec batch;
  std::uint32_t* counts;
  ScanMode mode;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.num_points) return;
    const auto pid = static_cast<PointId>(i);
    const auto point = view.points[i];
    ctx.count_global_bytes(sizeof(point));
    std::uint32_t neighbors = 0;
    // In kHalf the counts are *forward-row* lengths — no atomics on other
    // rows; the host table assembly restores the back rows.
    for_each_neighbor(view, mode, pid, point, eps2, ctx,
                      [&](PointId, bool hit) { neighbors += hit; });
    counts[gid] = neighbors;
    ctx.count_global_bytes(sizeof(std::uint32_t));
  }
};

/// Pass 2 of the two-pass CSR builder: thread g re-runs its neighborhood
/// search and writes the neighbor ids directly into its pre-sized CSR row
/// [offsets[g], row_end), where row_end is offsets[g + 1] or, for the
/// batch's last row, the batch total. The offsets are exact, so the pass
/// needs no atomics, no sort, and ships bare PointId values (half the
/// bytes of a NeighborPair) over PCIe.
///
/// The write is branch-free: every tested candidate is stored in the row's
/// next slot and the cursor advances only on a hit, so a miss is simply
/// overwritten by the next hit. Once the row holds its count of hits, the
/// remaining stores go to a thread-local slot — no thread ever writes
/// outside its own row.
template <typename View>
struct FillCsrKernelBody {
  View view;
  float eps2;
  BatchSpec batch;
  const std::uint32_t* offsets;
  std::uint32_t total;
  PointId* values;
  ScanMode mode;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.num_points) return;
    const auto pid = static_cast<PointId>(i);
    const auto point = view.points[i];
    // The row end is the next thread's offset, fetched in the same
    // coalesced transaction as the thread's own.
    ctx.count_global_bytes(sizeof(point) + sizeof(std::uint32_t));
    const std::uint32_t row_begin = offsets[gid];
    const std::uint32_t row_end = i + batch.num_batches >= view.num_points
                                      ? total
                                      : offsets[gid + 1];
    PointId* row = values + row_begin;
    const std::uint32_t len = row_end - row_begin;
    PointId spill = 0;
    std::uint32_t written = 0;
    for_each_neighbor(view, mode, pid, point, eps2, ctx,
                      [&](PointId candidate, bool hit) {
                        PointId* slot = written < len ? row + written : &spill;
                        *slot = candidate;
                        written += hit;
                      });
    ctx.count_global_bytes(written * sizeof(PointId));
  }
};

/// Per-thread body of the fused core pass: thread g stores its point's
/// degree capped at T = max(minpts, 2), FDBSCAN's early exit, and counts
/// an event when the count reached T. No atomics: each point is stored by
/// its own thread, and a re-run stores the same value.
template <typename View>
struct CoreKernelBody {
  View view;
  float eps2;
  BatchSpec batch;
  StreamingDbscan::FusedView u;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.num_points) return;
    const auto point = view.points[i];
    ctx.count_global_bytes(sizeof(point));
    const std::uint32_t cap = u.cap();
    const std::uint32_t degree =
        for_each_hit_until(view, point, eps2, cap, ctx, [](PointId) {});
    u.degree[i].store(degree, std::memory_order_relaxed);
    ctx.count_global_bytes(sizeof(std::uint32_t));
    if (degree == cap) ctx.count_event();
  }
};

/// Per-thread body of the fused mark pass. A point with 2 <= degree <
/// minpts has its exact degree (it is below the cap), so it may stop once
/// it met that many hits; it flags each core neighbor it meets, whose
/// degree the border rule will read. One flag byte and one event are
/// charged per flag issued, whether or not another thread set it first.
template <typename View>
struct MarkKernelBody {
  View view;
  float eps2;
  BatchSpec batch;
  StreamingDbscan::FusedView u;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.num_points) return;
    const auto pid = static_cast<PointId>(i);
    const std::uint32_t degree = u.degree[pid].load(std::memory_order_relaxed);
    ctx.count_global_bytes(sizeof(std::uint32_t));
    if (degree < 2 || degree >= u.required) return;  // alone, or core
    const auto point = view.points[i];
    ctx.count_global_bytes(sizeof(point));
    std::uint64_t marks = 0;
    for_each_hit_until(view, point, eps2, degree, ctx, [&](PointId cand) {
      if (cand == pid) return;
      if (u.degree[cand].load(std::memory_order_relaxed) >= u.required) {
        u.mark(cand);
        ++marks;
      }
    });
    ctx.count_global_bytes((degree - 1) * sizeof(std::uint32_t) +
                           marks * sizeof(std::uint8_t));
    ctx.count_event(marks);
  }
};

/// Per-thread body of the fused recount pass: a flagged point stores its
/// exact degree, the count body's kFull traversal, and counts an event.
template <typename View>
struct RecountKernelBody {
  View view;
  float eps2;
  BatchSpec batch;
  StreamingDbscan::FusedView u;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.num_points) return;
    const auto pid = static_cast<PointId>(i);
    ctx.count_global_bytes(sizeof(std::uint8_t));
    if (u.flag[pid].load(std::memory_order_relaxed) == 0) return;
    const auto point = view.points[i];
    ctx.count_global_bytes(sizeof(point));
    std::uint32_t degree = 0;
    for_each_neighbor(view, ScanMode::kFull, pid, point, eps2, ctx,
                      [&](PointId, bool hit) { degree += hit; });
    u.degree[pid].store(degree, std::memory_order_relaxed);
    ctx.count_global_bytes(sizeof(std::uint32_t));
    ctx.count_event();
  }
};

/// Per-thread body of the fused union pass. Core status is final (a
/// capped degree is at least minpts exactly when the degree is), and the
/// degree of every core that meets a non-core point is exact (the mark
/// pass flagged it), so thread i unions each core-core pair it owns and
/// folds each core/non-core pair into the non-core point's border key by
/// atomic max. Under kHalf each cross pair is handled in its owning row; under
/// kFull the smaller id unions a core-core pair and a non-core point folds
/// its own best core neighbor, so a core point skips non-core neighbors.
/// Like the fill body the traversal is branch-free: each candidate goes to
/// a thread-local stage whose cursor advances on a hit, and the hits are
/// judged in stage-sized runs. An atomic is charged per union or fold
/// issued, never per CAS that won, so every charge depends on the input.
///
/// With sub-cell runs (`runs`), a core point walks the cells that hold
/// big enough runs (walk_cell): a dense run costs it one union, not a
/// test per resident, and a pair of dense runs costs one search.
template <typename View>
struct UnionKernelBody {
  static constexpr unsigned kStage = 64;

  View view;
  float eps2;
  BatchSpec batch;
  ScanMode mode;
  StreamingDbscan::FusedView u;
  bool runs;  ///< the view's sub-cell runs hold only mutual neighbors

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.num_points) return;
    const auto pid = static_cast<PointId>(i);
    const std::uint32_t degree = u.degree[pid].load(std::memory_order_relaxed);
    ctx.count_global_bytes(sizeof(std::uint32_t));
    if (degree <= 1) return;  // alone in its eps-ball: no pair to visit
    const bool core = degree >= u.required;
    const bool half = mode == ScanMode::kHalf;
    const auto point = view.points[i];
    ctx.count_global_bytes(sizeof(point));

    std::uint32_t root = pid;  // union-find hint for this point's set
    std::uint64_t best = 0;    // a non-core point's best core neighbor
    PointId stage[kStage];
    unsigned staged = 0;
    auto judge = [&] {
      for (unsigned h = 0; h < staged; ++h) {
        const PointId cand = stage[h];
        if (cand == pid || (!half && core && cand < pid)) continue;
        const std::uint32_t cand_degree =
            u.degree[cand].load(std::memory_order_relaxed);
        ctx.count_global_bytes(sizeof(std::uint32_t));
        const bool cand_core = cand_degree >= u.required;
        if (core && cand_core) {
          root = link(root, cand, ctx);
        } else if (core && half) {
          u.fold_border(cand, border_target_key(degree, pid));
          ctx.count_atomic();
        } else if (!core && cand_core) {
          best = std::max(best, border_target_key(cand_degree, cand));
        }
      }
      staged = 0;
    };
    auto visit = [&](PointId cand, bool hit) {
      stage[staged] = cand;
      staged += hit;
      if (staged == kStage) judge();
    };
    if constexpr (std::is_same_v<View, GridView>) {
      if (core && runs) {
        OwnRun mine;  // found when first needed
        for_each_neighbor(view, mode, pid, point, eps2, ctx, visit,
                          [&](CellRange range, bool own) {
                            return walk_cell(range, own, pid, point, mine,
                                             root, visit, ctx);
                          });
        judge();
        return;  // a core point has no best core neighbor to fold
      }
    }
    for_each_neighbor(view, mode, pid, point, eps2, ctx, visit);
    judge();
    if (best != 0) {
      u.fold_border(pid, best);
      ctx.count_atomic();
    }
  }

  /// Unions `cand` into the set `root` leads; returns the merged root.
  std::uint32_t link(std::uint32_t root, PointId cand,
                     cudasim::ThreadCtx& ctx) const {
    ctx.count_atomic();
    ctx.count_global_bytes(2 * sizeof(std::uint32_t));
    return u.uf->unite_root(root, cand);
  }

  /// Fewest residents a cell's biggest run needs for the cell to be
  /// walked: max(minpts, kSubCellMinResidents).
  [[nodiscard]] std::uint32_t walk_min() const {
    return std::max(u.required, kSubCellMinResidents);
  }

  /// Where the runs of a cell of at least walk_min() residents start and
  /// end: run s is [bounds[s], bounds[s + 1]) of the sub-cell order.
  [[nodiscard]] std::array<std::uint32_t, 5> run_bounds(
      CellRange range) const {
    return {range.begin, view.sub_bounds[range.begin],
            view.sub_bounds[range.begin + 1],
            view.sub_bounds[range.begin + 2], range.end};
  }

  [[nodiscard]] bool walked(const std::array<std::uint32_t, 5>& bounds) const {
    bool walk = false;
    for (unsigned s = 0; s < 4; ++s) {
      walk |= bounds[s + 1] - bounds[s] >= walk_min();
    }
    return walk;
  }

  /// A core point's own run, when it is dense (minpts or more residents)
  /// in a walked cell: its range of the sub-cell order, and whether the
  /// point is its first resident. Empty otherwise; `known` once looked up.
  struct OwnRun {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    bool first = false;
    bool known = false;

    [[nodiscard]] bool dense() const noexcept { return begin != end; }
  };

  /// Run `s` of a walked cell with runs `bounds`, as the own run of `pid`.
  [[nodiscard]] OwnRun own_run(const std::array<std::uint32_t, 5>& bounds,
                               unsigned s, PointId pid) const {
    if (bounds[s + 1] - bounds[s] < u.required) return {.known = true};
    return {bounds[s], bounds[s + 1], view.sub_order[bounds[s]] == pid,
            true};
  }

  /// The own run looked up from the point alone, for a dense run met
  /// before the own cell. It reads what walking the own cell reads again,
  /// and is charged there.
  [[nodiscard]] OwnRun own_run(PointId pid, const Point2& point) const {
    const CellRange range = view.cells[view.params.linear_cell(point)];
    if (range.count() < walk_min()) return {.known = true};
    const std::array<std::uint32_t, 5> bounds = run_bounds(range);
    if (!walked(bounds)) return {.known = true};
    return own_run(bounds, view.params.sub_cell_of(point), pid);
  }

  /// A core point's for_each_neighbor hook: walks one stencil cell run by
  /// run when one of its sub-cell runs holds at least walk_min() residents,
  /// and otherwise returns false to have the cell scanned. A run of at
  /// least minpts residents is dense: they are mutual neighbors, so all
  /// core by their degrees and one component, and it holds no border to
  /// fold. The point's own dense run is linked with one union to its first
  /// resident and no test. Sparse runs are scanned in full — in the own
  /// cell under kHalf only ids at or above pid, the ownership of the suffix
  /// scan — and their hits go to `visit`. Any other dense run:
  ///  * from a point outside a dense run (`mine` empty) is tested until
  ///    its first hit, which is linked;
  ///  * from the first resident of a dense run is searched pair by pair
  ///    against every resident of its own run, the first hit linked — in
  ///    the own cell only runs after its own, so one search decides each
  ///    pair of runs in a cell. Any resident can be the one within eps;
  ///  * from any other resident of a dense run is skipped: its first
  ///    resident decides the pair. Under kFull both runs' first residents
  ///    search, which is redundant but exact.
  /// Each dense run met counts one event.
  template <typename Visit>
  bool walk_cell(CellRange range, bool own, PointId pid, const Point2& point,
                 OwnRun& mine, std::uint32_t& root, Visit& visit,
                 cudasim::ThreadCtx& ctx) const {
    constexpr std::uint64_t kTestFlops = 3 * Point2::kDims;
    if (range.count() < walk_min()) return false;
    const std::array<std::uint32_t, 5> bounds = run_bounds(range);
    ctx.count_global_bytes(3 * sizeof(std::uint32_t));
    if (!walked(bounds)) return false;

    const bool half = mode == ScanMode::kHalf;
    const unsigned own_sub = own ? view.params.sub_cell_of(point) : 4u;
    if (own && !mine.known) mine = own_run(bounds, own_sub, pid);
    std::uint64_t ids_read = 0;     // candidate ids read one by one
    std::uint64_t points_read = 0;  // ... the points read
    std::uint64_t tested = 0;       // ... and the distance tests
    for (unsigned s = 0; s < 4; ++s) {
      const std::uint32_t begin = bounds[s];
      const std::uint32_t end = bounds[s + 1];
      if (end - begin < u.required) {
        ids_read += end - begin;
        for (std::uint32_t a = begin; a < end; ++a) {
          const PointId cand = view.sub_order[a];
          if (own && half && cand < pid) continue;
          ++tested;
          visit(cand, dist2(point, view.points[cand]) <= eps2);
        }
        continue;
      }
      ctx.count_event();
      if (s == own_sub) {
        const PointId first = view.sub_order[begin];
        ++ids_read;
        if (first != pid) root = link(root, first, ctx);
        continue;
      }
      if (!mine.known) mine = own_run(pid, point);
      if (mine.dense() && (!mine.first || (own && s < own_sub))) continue;
      // Tests the run from `from` until its first hit, which is linked.
      auto search_from = [&](const Point2& from) {
        for (std::uint32_t a = begin; a < end; ++a) {
          const PointId cand = view.sub_order[a];
          ++ids_read;
          ++tested;
          if (dist2(from, view.points[cand]) <= eps2) {
            root = link(root, cand, ctx);
            return true;
          }
        }
        return false;
      };
      // One search decides the pair of runs: from the point itself, then
      // from the rest of the run it leads.
      if (search_from(point) || !mine.first) continue;
      for (std::uint32_t m = mine.begin + 1; m < mine.end; ++m) {
        ++ids_read;
        ++points_read;
        if (search_from(view.points[view.sub_order[m]])) break;
      }
    }
    ctx.count_global_bytes(ids_read * sizeof(PointId) +
                           (points_read + tested) * sizeof(point));
    ctx.count_flops(tested * kTestFlops);
    return true;
  }
};

/// Whether the union body may walk a view's sub-cell runs at this eps: the
/// view carries them (only a 2-D grid's may), and their side (half the
/// index's eps) keeps their diagonal inside eps.
bool walks_runs(const auto& view, float eps) {
  return view.sub_order != nullptr && view.params.eps <= eps;
}

/// Hands `launch` the body of fused pass `pass` over `view`.
template <typename View, typename Launch>
decltype(auto) with_fused_body(const View& view, float eps, BatchSpec batch,
                               FusedPass pass, StreamingDbscan& sink,
                               ScanMode mode, Launch&& launch) {
  const float eps2 = eps * eps;
  const StreamingDbscan::FusedView u = sink.fused_view();
  switch (pass) {
    case FusedPass::kCore:
      return launch(CoreKernelBody<View>{view, eps2, batch, u});
    case FusedPass::kMark:
      return launch(MarkKernelBody<View>{view, eps2, batch, u});
    case FusedPass::kRecount:
      return launch(RecountKernelBody<View>{view, eps2, batch, u});
    case FusedPass::kUnion:
      break;
  }
  return launch(UnionKernelBody<View>{view, eps2, batch, mode, u,
                                      walks_runs(view, eps)});
}

/// Per-thread body of the estimation kernel: thread t counts the neighbors
/// of sample point t * stride over the full stencil and contributes one
/// atomic add.
template <typename View>
struct CountKernelBody {
  View view;
  float eps2;
  std::uint32_t stride;
  std::atomic<std::uint64_t>* total;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i =
        static_cast<std::uint64_t>(ctx.global_id()) * stride;
    if (i >= view.num_points) return;
    const auto point = view.points[i];
    ctx.count_global_bytes(sizeof(point));
    std::uint64_t neighbors = 0;
    for_each_neighbor(view, ScanMode::kFull, static_cast<PointId>(i), point,
                      eps2, ctx,
                      [&](PointId, bool hit) { neighbors += hit; });
    total->fetch_add(neighbors, std::memory_order_relaxed);
    ctx.count_atomic();
  }
};

[[nodiscard]] unsigned grid_dim_for(std::uint64_t threads_needed,
                                    unsigned block_size) {
  return static_cast<unsigned>((threads_needed + block_size - 1) / block_size);
}

/// Blocks a batch's per-point kernel needs: one thread per batch point.
template <typename View>
[[nodiscard]] unsigned batch_grid_dim(const View& view, BatchSpec batch,
                                      unsigned block_size) {
  return grid_dim_for(batch.points_in_batch(view.num_points), block_size);
}

}  // namespace

cudasim::KernelStats run_calc_global(cudasim::Device& device,
                                     const GridView& view, float eps,
                                     BatchSpec batch, ResultSinkView sink,
                                     unsigned block_size) {
  const std::uint32_t points = batch.points_in_batch(view.num_points);
  const unsigned grid = grid_dim_for(points, block_size);
  GlobalKernelBody body{view, eps * eps, batch, sink};
  return cudasim::run_flat_kernel(device, grid, block_size, body);
}

template <typename View>
cudasim::KernelStats run_count_batch(cudasim::Device& device,
                                     const View& view, float eps,
                                     BatchSpec batch, std::uint32_t* counts,
                                     ScanMode mode, unsigned block_size) {
  return cudasim::run_flat_kernel(
      device, batch_grid_dim(view, batch, block_size), block_size,
      CountBatchKernelBody<View>{view, eps * eps, batch, counts, mode});
}

template <typename View>
cudasim::KernelStats run_fill_csr(cudasim::Device& device, const View& view,
                                  float eps, BatchSpec batch,
                                  const std::uint32_t* offsets,
                                  std::uint32_t total, PointId* values,
                                  ScanMode mode, unsigned block_size) {
  return cudasim::run_flat_kernel(
      device, batch_grid_dim(view, batch, block_size), block_size,
      FillCsrKernelBody<View>{view, eps * eps, batch, offsets, total, values,
                              mode});
}

template <typename View>
cudasim::KernelStats run_fused_batch(cudasim::Device& device,
                                     const View& view, float eps,
                                     BatchSpec batch, FusedPass pass,
                                     StreamingDbscan& sink, ScanMode mode,
                                     unsigned block_size) {
  return with_fused_body(view, eps, batch, pass, sink, mode, [&](auto body) {
    return cudasim::run_flat_kernel(
        device, batch_grid_dim(view, batch, block_size), block_size, body);
  });
}

template <typename View>
std::vector<std::uint32_t> host_count_batch(const View& view, float eps,
                                            BatchSpec batch, ScanMode mode) {
  std::vector<std::uint32_t> counts(
      batch.points_in_batch(view.num_points));
  cudasim::run_flat_host(batch_grid_dim(view, batch, kDefaultBlockSize),
                         kDefaultBlockSize,
                         CountBatchKernelBody<View>{view, eps * eps, batch,
                                                    counts.data(), mode});
  return counts;
}

template <typename View>
NeighborTable host_csr_batch(const View& view, float eps, BatchSpec batch,
                             ScanMode mode) {
  NeighborTable shard(view.num_points);
  // Counts become exclusive CSR offsets in place, as on the device.
  std::vector<std::uint32_t> offsets =
      host_count_batch(view, eps, batch, mode);
  if (offsets.empty()) return shard;
  std::uint32_t total = 0;
  for (std::uint32_t& slot : offsets) total += std::exchange(slot, total);
  std::vector<PointId> values(total);
  cudasim::run_flat_host(batch_grid_dim(view, batch, kDefaultBlockSize),
                         kDefaultBlockSize,
                         FillCsrKernelBody<View>{view, eps * eps, batch,
                                                 offsets.data(), total,
                                                 values.data(), mode});
  shard.append_csr_batch(batch.batch, batch.num_batches, offsets, values);
  return shard;
}

template <typename View>
cudasim::BlockCounters host_fused_batch(const View& view, float eps,
                                        BatchSpec batch, FusedPass pass,
                                        StreamingDbscan& sink, ScanMode mode) {
  return with_fused_body(view, eps, batch, pass, sink, mode, [&](auto body) {
    return cudasim::run_flat_host(
        batch_grid_dim(view, batch, kDefaultBlockSize), kDefaultBlockSize,
        body);
  });
}

std::size_t shared_kernel_smem_bytes(unsigned block_size) {
  return kSmemHeader +
         static_cast<std::size_t>(block_size) *
             (2 * sizeof(Point2) + 2 * sizeof(PointId));
}

cudasim::KernelStats run_calc_shared(cudasim::Device& device,
                                     const GridView& view,
                                     const std::uint32_t* schedule,
                                     std::uint32_t num_cells, float eps,
                                     ResultSinkView sink,
                                     unsigned block_size) {
  SharedKernelParams params{view, schedule, eps * eps, sink};
  auto gen = [params](cudasim::CoopCtx& ctx) {
    return shared_kernel_thread(ctx, params);
  };
  return cudasim::run_coop_kernel(device, num_cells, block_size,
                                  shared_kernel_smem_bytes(block_size), gen);
}

template <typename View>
std::uint64_t run_count_kernel(cudasim::Device& device, const View& view,
                               float eps, std::uint32_t sample_stride,
                               cudasim::KernelStats* stats_out,
                               unsigned block_size) {
  if (sample_stride == 0) sample_stride = 1;
  std::atomic<std::uint64_t> total{0};
  const std::uint64_t samples =
      (view.num_points + sample_stride - 1) / sample_stride;
  const unsigned grid = grid_dim_for(samples, block_size);
  CountKernelBody<View> body{view, eps * eps, sample_stride, &total};
  const cudasim::KernelStats stats =
      cudasim::run_flat_kernel(device, grid, block_size, body);
  if (stats_out != nullptr) *stats_out = stats;
  return total.load(std::memory_order_relaxed);
}

#define HDBSCAN_TRAVERSAL_KERNELS(View)                                      \
  template cudasim::KernelStats run_count_batch<View>(                       \
      cudasim::Device&, const View&, float, BatchSpec, std::uint32_t*,       \
      ScanMode, unsigned);                                                   \
  template cudasim::KernelStats run_fill_csr<View>(                          \
      cudasim::Device&, const View&, float, BatchSpec, const std::uint32_t*, \
      std::uint32_t, PointId*, ScanMode, unsigned);                          \
  template cudasim::KernelStats run_fused_batch<View>(                       \
      cudasim::Device&, const View&, float, BatchSpec, FusedPass,            \
      StreamingDbscan&, ScanMode, unsigned);                                 \
  template std::vector<std::uint32_t> host_count_batch<View>(                \
      const View&, float, BatchSpec, ScanMode);                              \
  template NeighborTable host_csr_batch<View>(const View&, float, BatchSpec, \
                                              ScanMode);                     \
  template cudasim::BlockCounters host_fused_batch<View>(                    \
      const View&, float, BatchSpec, FusedPass, StreamingDbscan&, ScanMode); \
  template std::uint64_t run_count_kernel<View>(                             \
      cudasim::Device&, const View&, float, std::uint32_t,                   \
      cudasim::KernelStats*, unsigned);
HDBSCAN_TRAVERSAL_KERNELS(GridView)
HDBSCAN_TRAVERSAL_KERNELS(GridView3)
#undef HDBSCAN_TRAVERSAL_KERNELS

}  // namespace hdbscan::gpu
