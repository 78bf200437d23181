#include "core/shard_planner.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/timer.hpp"

namespace hdbscan {

namespace {

/// [begin, end) of the global index's ids held by cell row r — the
/// counting sort lays rows out contiguously in linearization order.
struct RowSpan {
  std::uint32_t begin;
  std::uint32_t end;

  [[nodiscard]] std::uint32_t count() const noexcept { return end - begin; }
};

RowSpan row_span(const GridIndex& index, std::uint32_t r) {
  const std::uint32_t cx = index.params.cells_x;
  return {index.cells[static_cast<std::size_t>(r) * cx].begin,
          index.cells[static_cast<std::size_t>(r + 1) * cx - 1].end};
}

/// Fills one shard in place. Global ids are positions in cell order, so
/// the owned rows hold one run of them and each halo row another. Local
/// ids number the owned run from 0, then the halo row above, then the one
/// below: owned-first, each class ascending in global id. A slab cell's
/// residents share its row's class, so its range is its global range moved
/// into that class's local run: one ascending run of local ids, owned
/// cells inside [0, num_owned). Independent of every other shard except
/// for owner_of writes, which are disjoint (each point has exactly one
/// owner).
void assemble_shard(const GridIndex& index, GridShard& shard,
                    std::vector<std::uint32_t>& owner_of) {
  const std::uint32_t cx = index.params.cells_x;
  const std::uint32_t cy = index.params.cells_y;
  const std::uint32_t rb = shard.row_begin;
  const std::uint32_t re = shard.row_end;

  // Epsilon-halo: one row above and below the owned slab (clipped at
  // the grid boundary, matching the stencil clipping).
  const std::uint32_t slab_lo = rb > 0 ? rb - 1 : 0;
  const std::uint32_t slab_hi = std::min(cy, re + 1);
  const RowSpan owned{row_span(index, rb).begin, row_span(index, re - 1).end};
  const RowSpan above = rb > 0 ? row_span(index, rb - 1) : RowSpan{0, 0};
  const RowSpan below = re < cy ? row_span(index, re) : RowSpan{0, 0};

  shard.num_owned = owned.count();
  shard.to_global.reserve(owned.count() + above.count() + below.count());
  for (const RowSpan span : {owned, above, below}) {
    for (PointId g = span.begin; g < span.end; ++g) {
      shard.to_global.push_back(g);
    }
  }
  for (PointId g = owned.begin; g < owned.end; ++g) {
    owner_of[g] = shard.shard_id;
  }

  GridIndex& sub = shard.index;
  sub.params = index.params;  // global geometry, by design
  sub.cell_base = slab_lo * cx;
  sub.num_query = shard.num_owned;
  // Kernels emit neighbor VALUES through this map, so they leave the
  // device already globally addressed: the merge path never rewrites a
  // pair, only row keys (NeighborTable::translate).
  sub.emit_ids = shard.to_global;
  sub.points.reserve(shard.to_global.size());
  sub.original_ids = shard.to_global;  // local -> full-index order
  for (const PointId g : shard.to_global) {
    sub.points.push_back(index.points[g]);
  }

  sub.cells.resize(static_cast<std::size_t>(slab_hi - slab_lo) * cx);
  for (std::uint32_t row = slab_lo; row < slab_hi; ++row) {
    // The row's class: where its run starts in global and in local ids.
    const bool is_owned = row >= rb && row < re;
    const std::uint32_t global_first = is_owned ? owned.begin
                                       : row < rb ? above.begin
                                                  : below.begin;
    const std::uint32_t local_first = is_owned ? 0
                                      : row < rb ? shard.num_owned
                                                 : shard.num_owned +
                                                       above.count();
    for (std::uint32_t x = 0; x < cx; ++x) {
      const std::uint32_t h = row * cx + x;
      const CellRange global_range = index.cells[h];
      sub.cells[h - sub.cell_base] =
          CellRange{global_range.begin - global_first + local_first,
                    global_range.end - global_first + local_first};
      const std::uint32_t count = global_range.count();
      if (count > 0) {
        sub.max_cell_occupancy = std::max(sub.max_cell_occupancy, count);
        // Schedule only owned cells: a block-per-cell kernel over the
        // slab must not emit ghost rows.
        if (is_owned) sub.nonempty_cells.push_back(h);
      }
    }
  }
}

}  // namespace

ShardPlan plan_shards(const GridIndex& index, unsigned num_shards,
                      unsigned num_threads) {
  return plan_shards(index, num_shards, 0, index.params.cells_y,
                     num_threads);
}

ShardPlan plan_shards(const GridIndex& index, unsigned num_shards,
                      std::uint32_t row_begin, std::uint32_t row_end,
                      unsigned num_threads) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = num_threads != 0 ? num_threads : hw;
  ThreadCpuTimer serial_timer;
  if (index.cell_base != 0 || index.num_query != 0) {
    throw std::invalid_argument(
        "plan_shards: expected the full (global) index, not a shard");
  }
  if (row_begin >= row_end || row_end > index.params.cells_y) {
    throw std::invalid_argument("plan_shards: bad row range");
  }
  const std::uint32_t cx = index.params.cells_x;
  const std::uint32_t cy = index.params.cells_y;
  const std::uint32_t rows = row_end - row_begin;
  const std::uint32_t k =
      std::max(1u, std::min<std::uint32_t>(num_shards, rows));

  ShardPlan plan;
  plan.owner_of.assign(index.size(), ShardPlan::kUnowned);

  std::uint64_t range_points = 0;
  for (std::uint32_t r = row_begin; r < row_end; ++r) {
    range_points += row_span(index, r).count();
  }
  plan.owned_points = range_points;

  // Per-row work estimate: a row's build cost is dominated by candidate
  // tests, i.e. each cell's occupancy times the occupancy of its 3x3
  // stencil — clustered rows cost far more than their point count
  // suggests, and cutting by raw counts leaves one device holding the
  // dense band while the others idle. Two rolling horizontal 3-sums keep
  // this O(range cells) with three row buffers.
  const auto cell_count = [&](std::uint32_t row, std::uint32_t x) {
    return static_cast<std::uint64_t>(
        index.cells[static_cast<std::size_t>(row) * cx + x].count());
  };
  const auto fill_hsum = [&](std::uint32_t row, std::vector<std::uint64_t>& h) {
    for (std::uint32_t x = 0; x < cx; ++x) {
      std::uint64_t s = cell_count(row, x);
      if (x > 0) s += cell_count(row, x - 1);
      if (x + 1 < cx) s += cell_count(row, x + 1);
      h[x] = s;
    }
  };
  std::vector<std::uint64_t> work(rows, 0);
  const auto weigh_rows = [&](std::uint32_t wb, std::uint32_t we) {
    std::vector<std::uint64_t> hp(cx, 0), hc(cx, 0), hn(cx, 0);
    if (wb > 0) fill_hsum(wb - 1, hp);
    fill_hsum(wb, hc);
    for (std::uint32_t r = wb; r < we; ++r) {
      if (r + 1 < cy) {
        fill_hsum(r + 1, hn);
      } else {
        std::fill(hn.begin(), hn.end(), 0);
      }
      std::uint64_t w = 0;
      for (std::uint32_t x = 0; x < cx; ++x) {
        w += cell_count(r, x) * (hp[x] + hc[x] + hn[x]);
      }
      work[r - row_begin] = w;
      hp.swap(hc);
      hc.swap(hn);
    }
  };
  // The weight pass touches every slab cell three times — on a fine grid
  // it rivals the assembly cost, so it runs chunked over the row range,
  // each worker restarting the rolling sums at its chunk border. The
  // model charges the slowest chunk.
  double serial_seconds = serial_timer.seconds();
  double weigh_seconds = 0.0;
  const unsigned WV = static_cast<unsigned>(
      std::min<std::uint64_t>(threads, rows));
  if (WV <= 1) {
    ThreadCpuTimer t;
    weigh_rows(row_begin, row_end);
    weigh_seconds = t.seconds();
  } else {
    std::vector<double> chunk_seconds(WV, 0.0);
    std::vector<std::thread> weighers;
    weighers.reserve(WV);
    for (unsigned w = 0; w < WV; ++w) {
      weighers.emplace_back([&, w] {
        ThreadCpuTimer t;
        const std::uint32_t wb =
            row_begin + static_cast<std::uint32_t>(
                            std::uint64_t{rows} * w / WV);
        const std::uint32_t we =
            row_begin + static_cast<std::uint32_t>(
                            std::uint64_t{rows} * (w + 1) / WV);
        weigh_rows(wb, we);
        chunk_seconds[w] = t.seconds();
      });
    }
    for (std::thread& t : weighers) t.join();
    weigh_seconds =
        *std::max_element(chunk_seconds.begin(), chunk_seconds.end());
  }
  serial_timer.reset();
  std::uint64_t range_work = 0;
  for (const std::uint64_t w : work) range_work += w;

  // Exact min-max cut: binary-search the smallest bottleneck B such that
  // the rows pack into at most k contiguous slabs of weight <= B, then
  // lay the cuts with that B. The slowest shard sets the build's modeled
  // critical path, so the bottleneck — not the average — is what the
  // partition must minimize; a prefix-target greedy can strand one slab
  // with far more than total/k when a dense band straddles its target.
  const auto slabs_needed = [&](std::uint64_t bound) {
    std::uint32_t slabs = 1;
    std::uint64_t acc = 0;
    for (const std::uint64_t w : work) {
      if (acc + w > bound) {
        ++slabs;
        acc = w;
      } else {
        acc += w;
      }
    }
    return slabs;
  };
  std::uint64_t lo = *std::max_element(work.begin(), work.end());
  std::uint64_t hi = range_work;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (slabs_needed(mid) <= k) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<std::uint32_t> cuts;
  cuts.reserve(k + 1);
  cuts.push_back(row_begin);
  {
    std::uint64_t acc = 0;
    for (std::uint32_t r = row_begin; r < row_end; ++r) {
      const std::uint64_t w = work[r - row_begin];
      if (acc + w > lo && r > cuts.back()) {
        cuts.push_back(r);
        acc = w;
      } else {
        acc += w;
      }
    }
  }
  // Fewer than k slabs is fine (the tail cuts collapse onto row_end and
  // the zero-row slabs are dropped below); more than k cannot happen by
  // the binary-search invariant.
  while (cuts.size() < k + 1) cuts.push_back(row_end);
  cuts[k] = row_end;

  // Slabs that own no points have nothing to build: drop them here (the
  // owned count of a slab is one row-span subtraction per row) so the
  // assembly stage sees only real shards, numbered 0..k'-1 in row order.
  for (std::uint32_t s = 0; s < k; ++s) {
    std::uint64_t slab_points = 0;
    for (std::uint32_t row = cuts[s]; row < cuts[s + 1]; ++row) {
      slab_points += row_span(index, row).count();
    }
    if (slab_points == 0) continue;
    GridShard shard;
    shard.shard_id = static_cast<std::uint32_t>(plan.shards.size());
    shard.row_begin = cuts[s];
    shard.row_end = cuts[s + 1];
    plan.shards.push_back(std::move(shard));
  }
  serial_seconds += serial_timer.seconds();

  // Per-shard assembly is embarrassingly parallel: worker w assembles
  // shards w, w + W, ..., and owner_of writes are disjoint across shards.
  // The critical path charges the slowest worker — on the reference host
  // each shard gets a core.
  const unsigned W = static_cast<unsigned>(std::min<std::size_t>(
      threads, std::max<std::size_t>(1, plan.shards.size())));
  std::vector<double> worker_seconds(W, 0.0);
  if (W <= 1) {
    ThreadCpuTimer t;
    for (GridShard& shard : plan.shards) {
      assemble_shard(index, shard, plan.owner_of);
    }
    worker_seconds[0] = t.seconds();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(W);
    for (unsigned w = 0; w < W; ++w) {
      workers.emplace_back([&, w] {
        ThreadCpuTimer t;
        for (std::size_t s = w; s < plan.shards.size(); s += W) {
          assemble_shard(index, plan.shards[s], plan.owner_of);
        }
        worker_seconds[w] = t.seconds();
      });
    }
    for (std::thread& t : workers) t.join();
  }
  for (const GridShard& shard : plan.shards) {
    plan.total_ghosts += shard.num_ghosts();
  }
  plan.critical_seconds =
      serial_seconds + weigh_seconds +
      *std::max_element(worker_seconds.begin(), worker_seconds.end());

  return plan;
}

}  // namespace hdbscan
