#include "gpu/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <span>
#include <type_traits>

namespace hdbscan::gpu {

namespace {

/// Candidate traversal shared by the per-point kernel bodies. Calls
/// `emit(candidate)` for every candidate within eps of `point`, charging
/// the per-candidate reads (lookup id 4 B + point 8 B) and the 6-op
/// squared-distance test.
///
/// kFull walks the whole 9-cell stencil — every qualifying pair (i, j) is
/// tested from both sides. kHalf tests each pair exactly once: the own
/// cell contributes only the suffix of candidates at/after the query's own
/// lookup position (found by binary search over the cell's ascending slice
/// of A — charged as log2 candidate-id reads), and only the forward half
/// of the stencil is visited. Emissions are therefore forward rows only;
/// symmetry is restored downstream (NeighborTable::expand_half_table).
template <typename Emit>
void for_each_neighbor(const GridView& view, ScanMode mode, PointId pid,
                       const Point2& point, float eps2,
                       const QualitySpec& quality, cudasim::ThreadCtx& ctx,
                       Emit&& emit) {
  const bool sampled = quality.sampled();
  auto scan_range = [&](std::uint32_t begin, std::uint32_t end) {
    const std::uint32_t candidates = end - begin;
    if (!sampled) {
      ctx.count_global_bytes(static_cast<std::uint64_t>(candidates) *
                             (sizeof(PointId) + sizeof(Point2)));
      ctx.count_flops(static_cast<std::uint64_t>(candidates) * 6);
      for (std::uint32_t a = begin; a < end; ++a) {
        const PointId candidate = view.lookup[a];
        if (dist2(point, view.points[candidate]) <= eps2) emit(candidate);
      }
      return;
    }
    // Subsampled: the Bernoulli trial runs on the id pair *before* the
    // candidate's point is read, so a dropped candidate costs only its
    // 4 B id read plus the ~4-op hash; kept candidates pay the usual 8 B
    // point fetch and 6-op distance test.
    std::uint64_t kept = 0;
    for (std::uint32_t a = begin; a < end; ++a) {
      const PointId candidate = view.lookup[a];
      if (!quality.keep_pair(pid, candidate)) continue;
      ++kept;
      if (dist2(point, view.points[candidate]) <= eps2) emit(candidate);
    }
    ctx.count_global_bytes(
        static_cast<std::uint64_t>(candidates) * sizeof(PointId) +
        kept * sizeof(Point2));
    ctx.count_flops(static_cast<std::uint64_t>(candidates) * 4 + kept * 6);
  };

  // `params` keeps the global geometry even on a shard slab, so cell ids
  // are global; the slab's cells array is indexed relative to cell_base.
  // Owned points' whole stencils lie inside the slab by construction
  // (shard_planner includes the epsilon-halo rows), so no bound check.
  const std::uint32_t cell = view.params.linear_cell(point);
  std::array<std::uint32_t, 9> cell_ids{};
  unsigned ncells = 0;
  if (mode == ScanMode::kHalf) {
    const CellRange own = view.cells[cell - view.cell_base];
    ctx.count_global_bytes(sizeof(CellRange));
    const PointId* first = view.lookup + own.begin;
    const PointId* last = view.lookup + own.end;
    const PointId* lo = std::lower_bound(first, last, pid);
    unsigned probes = 0;
    while ((1u << probes) < own.count()) ++probes;
    ctx.count_global_bytes(static_cast<std::uint64_t>(probes) *
                           sizeof(PointId));
    scan_range(static_cast<std::uint32_t>(lo - view.lookup), own.end);
    ncells = get_forward_neighbor_cells(view.params, cell, cell_ids);
  } else {
    ncells = get_neighbor_cells(view.params, cell, cell_ids);
  }
  for (unsigned c = 0; c < ncells; ++c) {
    const CellRange range = view.cells[cell_ids[c] - view.cell_base];
    ctx.count_global_bytes(sizeof(CellRange));
    scan_range(range.begin, range.end);
  }
}

/// BVH counterpart of for_each_neighbor: explicit-stack traversal over the
/// packed node array. Every visited node costs one node read and the
/// min_dist2 prune (~8 ops); accepted leaves charge like a shared-kernel
/// tile — candidate ids are read for the whole leaf (the kHalf id filter
/// needs them), points and the 6-op distance test only for tested ones.
/// Under kHalf subtrees whose max_id < pid hold nothing row pid owns and
/// are pruned before their MBR is even tested.
template <typename Emit>
void for_each_neighbor_bvh(const BvhView& view, ScanMode mode, PointId pid,
                           const Point2& point, float eps2,
                           const QualitySpec& quality, cudasim::ThreadCtx& ctx,
                           Emit&& emit) {
  const bool half = mode == ScanMode::kHalf;
  const bool sampled = quality.sampled();
  std::uint32_t stack[160];
  unsigned depth = 0;
  stack[depth++] = view.root;
  std::uint64_t nodes_read = 0;
  while (depth > 0) {
    const BvhNode& node = view.nodes[stack[--depth]];
    ++nodes_read;
    if (half && node.max_id < pid) continue;
    if (node.mbr.min_dist2(point) > eps2) continue;
    if (node.leaf != 0) {
      std::uint64_t tested = 0;
      std::uint64_t hashed = 0;
      for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
        const PointId cand = view.leaf_ids[i];
        if (half && cand < pid) continue;  // id-ownership rule
        if (sampled) {
          // Same pre-point-read Bernoulli trial as the grid stencil: the
          // MBR prune only ever discards non-neighbors, so both backends
          // sample the identical pair set.
          ++hashed;
          if (!quality.keep_pair(pid, cand)) continue;
        }
        ++tested;
        if (dist2(point, view.leaf_points[i]) <= eps2) emit(cand);
      }
      ctx.count_global_bytes(
          static_cast<std::uint64_t>(node.count) * sizeof(PointId) +
          tested * sizeof(Point2));
      ctx.count_flops(hashed * 4 + tested * 6);
    } else {
      for (std::uint32_t c = node.first; c < node.first + node.count; ++c) {
        stack[depth++] = c;
      }
    }
  }
  ctx.count_global_bytes(nodes_read * sizeof(BvhNode));
  ctx.count_flops(nodes_read * 8);
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
    if (i >= view.query_count()) return;

    const auto pid = static_cast<PointId>(i);
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2));

    StagedSink staged(sink);
    for_each_neighbor(view, ScanMode::kFull, pid, point, eps2, QualitySpec{},
                      ctx, [&](PointId candidate) {
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

  const CellRange origin_range = p.view.cells[cell_to_proc - p.view.cell_base];
  ctx.count_global_bytes(sizeof(CellRange));

  // Outer tiling loop: needed when the origin cell holds more points than
  // the block size (the "additional loop" of §IV-B).
  for (std::uint32_t obase = origin_range.begin; obase < origin_range.end;
       obase += bdim) {
    const std::uint32_t oidx = obase + tid;
    const bool has_origin = oidx < origin_range.end;
    if (has_origin) {
      const PointId id = p.view.lookup[oidx];
      origin_ids[tid] = id;
      origin_pts[tid] = p.view.points[id];
      ctx.count_global_bytes(sizeof(PointId) + sizeof(Point2));
      ctx.count_shared_bytes(sizeof(PointId) + sizeof(Point2));
    }
    co_await ctx.sync();

    const unsigned ncells = cell_count[0];
    for (unsigned c = 0; c < ncells; ++c) {
      const CellRange comp_range = p.view.cells[cell_ids[c] - p.view.cell_base];
      ctx.count_global_bytes(sizeof(CellRange));
      for (std::uint32_t cbase = comp_range.begin; cbase < comp_range.end;
           cbase += bdim) {
        // Page one comparison tile into shared memory (lines 15-17).
        const std::uint32_t cidx = cbase + tid;
        if (cidx < comp_range.end) {
          const PointId id = p.view.lookup[cidx];
          comp_ids[tid] = id;
          comp_pts[tid] = p.view.points[id];
          ctx.count_global_bytes(sizeof(PointId) + sizeof(Point2));
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
struct CountBatchKernelBody {
  GridView view;
  float eps2;
  BatchSpec batch;
  std::uint32_t* counts;
  ScanMode mode;
  QualitySpec quality;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.query_count()) return;
    const auto pid = static_cast<PointId>(i);
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2));
    std::uint32_t neighbors = 0;
    // In kHalf the counts are *forward-row* lengths — no atomics on other
    // rows; the host transpose restores the back rows after the merge.
    for_each_neighbor(view, mode, pid, point, eps2, quality, ctx,
                      [&](PointId) { ++neighbors; });
    counts[gid] = neighbors;
    ctx.count_global_bytes(sizeof(std::uint32_t));
  }
};

/// Pass 2 of the two-pass CSR builder: thread g re-runs its neighborhood
/// search and writes the neighbor ids directly into its pre-sized CSR slot
/// [offsets[g], offsets[g] + counts[g]). The offsets are exact, so the
/// pass needs no atomics, no sort, and ships bare PointId values (half the
/// bytes of a NeighborPair) over PCIe.
struct FillCsrKernelBody {
  GridView view;
  float eps2;
  BatchSpec batch;
  const std::uint32_t* offsets;
  PointId* values;
  ScanMode mode;
  QualitySpec quality;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.query_count()) return;
    const auto pid = static_cast<PointId>(i);
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2) + sizeof(std::uint32_t));
    PointId* out = values + offsets[gid];
    // Values go out through the emission map (identity on the full index;
    // local->global on shard slabs): one extra 4 B read per emitted value,
    // which buys the shard merge freedom from ever touching individual
    // pairs.
    for_each_neighbor(view, mode, pid, point, eps2, quality, ctx,
                      [&](PointId candidate) {
                        *out++ = view.emit(candidate);
                        ctx.count_global_bytes(
                            view.emit_ids != nullptr ? 2 * sizeof(PointId)
                                                     : sizeof(PointId));
                      });
  }
};

/// BVH pass 1: like CountBatchKernelBody but over the tree traversal. No
/// emission map — BVH-backed builds are whole-index only (sharded slabs
/// keep the grid backend), so resident ids are already global.
struct BvhCountBatchKernelBody {
  BvhView view;
  float eps2;
  BatchSpec batch;
  std::uint32_t* counts;
  ScanMode mode;
  QualitySpec quality;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.query_count()) return;
    const auto pid = static_cast<PointId>(i);
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2));
    std::uint32_t neighbors = 0;
    for_each_neighbor_bvh(view, mode, pid, point, eps2, quality, ctx,
                          [&](PointId) { ++neighbors; });
    counts[gid] = neighbors;
    ctx.count_global_bytes(sizeof(std::uint32_t));
  }
};

/// BVH pass 2: fills the pre-sized CSR slots, mirroring FillCsrKernelBody.
struct BvhFillCsrKernelBody {
  BvhView view;
  float eps2;
  BatchSpec batch;
  const std::uint32_t* offsets;
  PointId* values;
  ScanMode mode;
  QualitySpec quality;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.query_count()) return;
    const auto pid = static_cast<PointId>(i);
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2) + sizeof(std::uint32_t));
    PointId* out = values + offsets[gid];
    for_each_neighbor_bvh(view, mode, pid, point, eps2, quality, ctx,
                          [&](PointId candidate) {
                            *out++ = candidate;
                            ctx.count_global_bytes(sizeof(PointId));
                          });
  }
};

/// Thread-local parking buffer size of the fused kernels (spilled to
/// StreamingDbscan::ingest_fused when full and at thread end).
constexpr unsigned kFusedSpill = 256;

/// Per-thread body of the fused no-table clustering kernel, shared by both
/// backends (`traverse` dispatches to the grid stencil or the BVH stack).
///
/// Degree handling: the thread's own contributions (self pair + every
/// candidate it tests) accumulate in a register and land as ONE fetch_add
/// at thread end; under kHalf the back contribution to each cross
/// partner's degree is a per-pair fetch_add (the streaming equivalent of
/// expand_half_table's counting pass, done in-kernel). Core checks use the
/// partner add's return value and the own-degree register as monotone
/// lower bounds — a pair that looks undecidable now is parked and settled
/// by compaction or finalize, never dropped.
///
/// Exactly-once: launches fault before any block runs (cudasim contract),
/// so a failed batch contributed nothing and is safe to requeue whole.
template <typename View>
struct FusedKernelBody {
  View view;
  float eps2;
  BatchSpec batch;
  ScanMode mode;
  QualitySpec quality;
  StreamingDbscan::FusedView fu;
  StreamingDbscan* sink;

  void traverse(PointId pid, const Point2& point, cudasim::ThreadCtx& ctx,
                auto&& emit) const {
    if constexpr (std::is_same_v<View, GridView>) {
      for_each_neighbor(view, mode, pid, point, eps2, quality, ctx, emit);
    } else {
      for_each_neighbor_bvh(view, mode, pid, point, eps2, quality, ctx, emit);
    }
  }

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t gid = ctx.global_id();
    const std::uint64_t i = gid * batch.num_batches + batch.batch;
    if (i >= view.query_count()) return;
    const auto pid = static_cast<PointId>(i);
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2));

    NeighborPair local[kFusedSpill];
    unsigned nlocal = 0;
    std::uint32_t own_degree = 0;
    std::uint64_t seen = 0;
    std::uint64_t streamed = 0;

    traverse(pid, point, ctx, [&](PointId cand) {
      ++own_degree;  // self pair included: degree counts the point itself
      if (cand == pid) return;
      std::uint32_t deg_v;
      if (mode == ScanMode::kHalf) {
        // Forward traversals see each cross pair once; the partner's
        // degree gains the back contribution here. The returned value is
        // a monotone lower bound on the partner's final degree.
        deg_v = fu.degree[cand].fetch_add(1, std::memory_order_relaxed) + 1;
        ctx.count_atomic();
      } else {
        // Full traversals see each pair twice; the smaller-id side owns
        // the edge work and partners count their own rows.
        if (pid > cand) return;
        deg_v = fu.degree[cand].load(std::memory_order_relaxed);
        ctx.count_global_bytes(sizeof(std::uint32_t));
      }
      ++seen;
      const std::uint32_t deg_p =
          fu.degree[pid].load(std::memory_order_relaxed) + own_degree;
      ctx.count_global_bytes(sizeof(std::uint32_t));
      if (deg_p >= fu.required && deg_v >= fu.required) {
        // Both endpoints already core: union on the spot (monotonicity
        // makes this final). One CAS plus the find chain's reads.
        fu.uf->unite(pid, cand);
        ctx.count_atomic();
        ctx.count_global_bytes(2 * sizeof(std::uint32_t));
        ++streamed;
      } else {
        local[nlocal++] = NeighborPair{pid, cand};
        ctx.count_global_bytes(sizeof(NeighborPair));  // parked-edge write
        if (nlocal == kFusedSpill) {
          sink->ingest_fused(std::span<const NeighborPair>(local, nlocal), 0,
                             0);
          nlocal = 0;
        }
      }
    });

    if (own_degree != 0) {
      fu.degree[pid].fetch_add(own_degree, std::memory_order_relaxed);
      ctx.count_atomic();
    }
    if (nlocal != 0 || seen != 0) {
      sink->ingest_fused(std::span<const NeighborPair>(local, nlocal), seen,
                         streamed);
    }
  }
};

/// Per-thread body of the estimation kernel: thread t counts the neighbors
/// of sample point t * stride and contributes one atomic add.
struct CountKernelBody {
  GridView view;
  float eps2;
  std::uint32_t stride;
  std::atomic<std::uint64_t>* total;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i =
        static_cast<std::uint64_t>(ctx.global_id()) * stride;
    if (i >= view.query_count()) return;
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2));
    std::uint64_t neighbors = 0;
    std::array<std::uint32_t, 9> cell_ids{};
    const unsigned ncells = get_neighbor_cells(
        view.params, view.params.linear_cell(point), cell_ids);
    for (unsigned c = 0; c < ncells; ++c) {
      const CellRange range = view.cells[cell_ids[c] - view.cell_base];
      ctx.count_global_bytes(sizeof(CellRange));
      const std::uint32_t candidates = range.count();
      ctx.count_global_bytes(static_cast<std::uint64_t>(candidates) *
                             (sizeof(PointId) + sizeof(Point2)));
      ctx.count_flops(static_cast<std::uint64_t>(candidates) * 6);
      for (std::uint32_t a = range.begin; a < range.end; ++a) {
        if (dist2(point, view.points[view.lookup[a]]) <= eps2) ++neighbors;
      }
    }
    total->fetch_add(neighbors, std::memory_order_relaxed);
    ctx.count_atomic();
  }
};

[[nodiscard]] unsigned grid_dim_for(std::uint64_t threads_needed,
                                    unsigned block_size) {
  return static_cast<unsigned>((threads_needed + block_size - 1) / block_size);
}

}  // namespace

cudasim::KernelStats run_calc_global(cudasim::Device& device,
                                     const GridView& view, float eps,
                                     BatchSpec batch, ResultSinkView sink,
                                     unsigned block_size) {
  const std::uint32_t points = batch.points_in_batch(view.query_count());
  const unsigned grid = grid_dim_for(points, block_size);
  GlobalKernelBody body{view, eps * eps, batch, sink};
  return cudasim::run_flat_kernel(device, grid, block_size, body);
}

cudasim::KernelStats run_count_batch(cudasim::Device& device,
                                     const GridView& view, float eps,
                                     BatchSpec batch, std::uint32_t* counts,
                                     ScanMode mode, unsigned block_size,
                                     QualitySpec quality) {
  const std::uint32_t points = batch.points_in_batch(view.query_count());
  const unsigned grid = grid_dim_for(points, block_size);
  CountBatchKernelBody body{view, eps * eps, batch, counts, mode, quality};
  return cudasim::run_flat_kernel(device, grid, block_size, body);
}

cudasim::KernelStats run_fill_csr(cudasim::Device& device,
                                  const GridView& view, float eps,
                                  BatchSpec batch,
                                  const std::uint32_t* offsets,
                                  PointId* values, ScanMode mode,
                                  unsigned block_size, QualitySpec quality) {
  const std::uint32_t points = batch.points_in_batch(view.query_count());
  const unsigned grid = grid_dim_for(points, block_size);
  FillCsrKernelBody body{view,   eps * eps, batch,
                         offsets, values,    mode, quality};
  return cudasim::run_flat_kernel(device, grid, block_size, body);
}

cudasim::KernelStats run_count_batch(cudasim::Device& device,
                                     const BvhView& view, float eps,
                                     BatchSpec batch, std::uint32_t* counts,
                                     ScanMode mode, unsigned block_size,
                                     QualitySpec quality) {
  const std::uint32_t points = batch.points_in_batch(view.query_count());
  const unsigned grid = grid_dim_for(points, block_size);
  BvhCountBatchKernelBody body{view, eps * eps, batch, counts, mode, quality};
  return cudasim::run_flat_kernel(device, grid, block_size, body);
}

cudasim::KernelStats run_fill_csr(cudasim::Device& device,
                                  const BvhView& view, float eps,
                                  BatchSpec batch,
                                  const std::uint32_t* offsets,
                                  PointId* values, ScanMode mode,
                                  unsigned block_size, QualitySpec quality) {
  const std::uint32_t points = batch.points_in_batch(view.query_count());
  const unsigned grid = grid_dim_for(points, block_size);
  BvhFillCsrKernelBody body{view,    eps * eps, batch,
                            offsets, values,    mode, quality};
  return cudasim::run_flat_kernel(device, grid, block_size, body);
}

cudasim::KernelStats run_fused_batch(cudasim::Device& device,
                                     const GridView& view, float eps,
                                     BatchSpec batch, StreamingDbscan& sink,
                                     ScanMode mode, unsigned block_size,
                                     QualitySpec quality) {
  const std::uint32_t points = batch.points_in_batch(view.query_count());
  const unsigned grid = grid_dim_for(points, block_size);
  FusedKernelBody<GridView> body{view,    eps * eps,
                                 batch,   mode,
                                 quality, sink.fused_view(),
                                 &sink};
  return cudasim::run_flat_kernel(device, grid, block_size, body);
}

cudasim::KernelStats run_fused_batch(cudasim::Device& device,
                                     const BvhView& view, float eps,
                                     BatchSpec batch, StreamingDbscan& sink,
                                     ScanMode mode, unsigned block_size,
                                     QualitySpec quality) {
  const std::uint32_t points = batch.points_in_batch(view.query_count());
  const unsigned grid = grid_dim_for(points, block_size);
  FusedKernelBody<BvhView> body{view,    eps * eps,
                                batch,   mode,
                                quality, sink.fused_view(),
                                &sink};
  return cudasim::run_flat_kernel(device, grid, block_size, body);
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

std::uint64_t run_count_kernel(cudasim::Device& device, const GridView& view,
                               float eps, std::uint32_t sample_stride,
                               cudasim::KernelStats* stats_out,
                               unsigned block_size) {
  if (sample_stride == 0) sample_stride = 1;
  std::atomic<std::uint64_t> total{0};
  const std::uint64_t samples =
      (view.query_count() + sample_stride - 1) / sample_stride;
  const unsigned grid = grid_dim_for(samples, block_size);
  CountKernelBody body{view, eps * eps, sample_stride, &total};
  const cudasim::KernelStats stats =
      cudasim::run_flat_kernel(device, grid, block_size, body);
  if (stats_out != nullptr) *stats_out = stats;
  return total.load(std::memory_order_relaxed);
}

}  // namespace hdbscan::gpu
