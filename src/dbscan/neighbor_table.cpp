#include "dbscan/neighbor_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/request_context.hpp"
#include "common/timer.hpp"

namespace hdbscan {

void NeighborTable::append_sorted_batch(std::span<const NeighborPair> pairs) {
  const std::size_t base = values_.size();
  values_.resize(base + pairs.size());
  // Single pass: copy values and record each key's [Tmin, Tmax) range at
  // the run boundaries. This is the host-side work that overlaps the GPU
  // in the paper's scheme, so it must stream at memcpy-like rates.
  std::size_t i = 0;
  while (i < pairs.size()) {
    const PointId key = pairs[i].key;
    if (key >= begin_.size()) {
      values_.resize(base);
      throw std::out_of_range("NeighborTable: key out of range");
    }
    if (end_[key] != begin_[key]) {
      values_.resize(base);
      throw std::logic_error("NeighborTable: key appears in two batches");
    }
    const std::size_t run_begin = i;
    PointId* out = values_.data() + base + i;
    while (i < pairs.size() && pairs[i].key == key) {
      *out++ = pairs[i].value;
      ++i;
    }
    begin_[key] = static_cast<std::uint32_t>(base + run_begin);
    end_[key] = static_cast<std::uint32_t>(base + i);
  }
}

void NeighborTable::append_csr_batch(std::uint32_t first_key,
                                     std::uint32_t key_stride,
                                     std::span<const std::uint32_t> offsets,
                                     std::span<const PointId> values) {
  if (key_stride == 0) {
    throw std::invalid_argument("NeighborTable: zero key stride");
  }
  const std::size_t base = values_.size();
  for (std::size_t g = 0; g < offsets.size(); ++g) {
    const std::uint64_t key =
        first_key + static_cast<std::uint64_t>(g) * key_stride;
    if (key >= begin_.size()) {
      throw std::out_of_range("NeighborTable: key out of range");
    }
    const std::uint32_t run_begin = offsets[g];
    const std::uint64_t run_end =
        g + 1 < offsets.size() ? offsets[g + 1] : values.size();
    if (run_begin > run_end || run_end > values.size()) {
      throw std::invalid_argument("NeighborTable: malformed CSR offsets");
    }
    if (end_[key] != begin_[key]) {
      throw std::logic_error("NeighborTable: key appears in two batches");
    }
    begin_[key] = static_cast<std::uint32_t>(base + run_begin);
    end_[key] = static_cast<std::uint32_t>(base + run_end);
  }
  values_.insert(values_.end(), values.begin(), values.end());
}

void NeighborTable::absorb_shard(NeighborTable&& shard) {
  if (shard.num_points() != num_points()) {
    throw std::invalid_argument("NeighborTable: shard size mismatch");
  }
  if (values_.empty()) {  // first shard: steal its storage wholesale
    begin_ = std::move(shard.begin_);
    end_ = std::move(shard.end_);
    values_ = std::move(shard.values_);
    return;
  }
  const std::size_t base = values_.size();
  for (std::size_t k = 0; k < begin_.size(); ++k) {
    if (shard.end_[k] == shard.begin_[k]) continue;  // key not in shard
    if (end_[k] != begin_[k]) {
      throw std::logic_error("NeighborTable: key appears in two shards");
    }
    begin_[k] = static_cast<std::uint32_t>(base + shard.begin_[k]);
    end_[k] = static_cast<std::uint32_t>(base + shard.end_[k]);
  }
  values_.insert(values_.end(), shard.values_.begin(), shard.values_.end());
}

NeighborTable NeighborTable::translate(std::span<const PointId> to_global,
                                       std::uint32_t num_owned,
                                       std::size_t num_global) && {
  if (to_global.size() != num_points()) {
    throw std::invalid_argument("NeighborTable: translate map size mismatch");
  }
  if (num_owned > to_global.size()) {
    throw std::invalid_argument("NeighborTable: num_owned exceeds residents");
  }
  NeighborTable out(num_global);
  // Values were emitted through the slab's emission map and are already
  // global; only the row keys move. The value storage is handed over
  // wholesale (offsets are position-based and survive).
  for (std::uint32_t l = 0; l < num_owned; ++l) {
    const PointId g = to_global[l];
    if (g >= num_global) {
      throw std::out_of_range("NeighborTable: global key out of range");
    }
    out.begin_[g] = begin_[l];
    out.end_[g] = end_[l];
  }
  out.values_ = std::move(values_);
  begin_.clear();
  end_.clear();
  return out;
}

double NeighborTable::absorb_shards(std::vector<NeighborTable>&& shards,
                                    unsigned num_threads,
                                    bool check_collisions) {
  if (!values_.empty()) {
    throw std::invalid_argument("NeighborTable: absorb_shards target not empty");
  }
  for (const NeighborTable& s : shards) {
    if (s.num_points() != num_points()) {
      throw std::invalid_argument("NeighborTable: shard size mismatch");
    }
  }
  if (shards.empty()) return 0.0;
  if (shards.size() == 1) {  // steal the storage wholesale
    ThreadCpuTimer timer;
    begin_ = std::move(shards[0].begin_);
    end_ = std::move(shards[0].end_);
    values_ = std::move(shards[0].values_);
    return timer.seconds();
  }

  // Region layout: shard s's values land at [region[s], region[s + 1]),
  // same order a serial absorb loop would produce.
  std::vector<std::size_t> region(shards.size() + 1, 0);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    region[s + 1] = region[s] + shards[s].values_.size();
  }
  ValueVector merged(region.back());  // skips zero-fill; fully overwritten

  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const unsigned W = static_cast<unsigned>(
      std::min<std::size_t>(num_threads, shards.size()));

  // Key-collision detection needs cross-shard visibility, so it cannot
  // ride the parallel pass without atomics on every row; one serial O(n·k)
  // sweep over the range arrays (no pair data) keeps absorb_shard's strict
  // contract. Internal callers whose disjointness is structural skip it
  // (see the header) — the sweep would otherwise sit on the modeled
  // critical path of every build.
  double critical_seconds = 0.0;
  const std::size_t n = begin_.size();
  if (check_collisions) {
    ThreadCpuTimer serial_timer;
    for (std::size_t k = 0; k < n; ++k) {
      bool taken = false;
      for (const NeighborTable& s : shards) {
        if (s.end_[k] == s.begin_[k]) continue;
        if (taken) {
          throw std::logic_error("NeighborTable: key appears in two shards");
        }
        taken = true;
      }
    }
    critical_seconds = serial_timer.seconds();
  }

  // Parallel fan-in: worker w owns shards w, w + W, ... — each copies its
  // shards' values into their disjoint regions and rebases their disjoint
  // key ranges. Nothing is shared; the pass is bandwidth-bound.
  std::vector<double> cpu(W, 0.0);
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < W; ++w) {
    workers.emplace_back([&, w, ctx = current_request_context()] {
      RequestScope scope(ctx);
      ThreadCpuTimer timer;
      for (std::size_t s = w; s < shards.size(); s += W) {
        NeighborTable& shard = shards[s];
        std::copy(shard.values_.begin(), shard.values_.end(),
                  merged.begin() + region[s]);
        const auto base = static_cast<std::uint32_t>(region[s]);
        for (std::size_t k = 0; k < n; ++k) {
          if (shard.end_[k] == shard.begin_[k]) continue;
          begin_[k] = base + shard.begin_[k];
          end_[k] = base + shard.end_[k];
        }
      }
      cpu[w] = timer.seconds();
    });
  }
  for (auto& t : workers) t.join();
  critical_seconds += *std::max_element(cpu.begin(), cpu.end());

  values_ = std::move(merged);
  shards.clear();
  return critical_seconds;
}

double NeighborTable::expand_half_table(unsigned num_threads) {
  const std::size_t n = begin_.size();
  if (n == 0) return 0.0;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Thread spawn overhead beats the work itself on small tables.
  if (values_.size() < 1u << 15) num_threads = 1;
  const unsigned W = num_threads;
  const std::size_t chunk = (n + W - 1) / W;

  // Worker boundaries. Pass 2a's work is uniform per row, but passes 1
  // and 3 walk the values, so their chunks are balanced by *pair count* —
  // on clustered data equal row counts leave one worker holding most of
  // the values, and the critical path is the slowest worker.
  std::vector<std::size_t> row_cuts(W + 1), pair_cuts(W + 1, n);
  for (unsigned w = 0; w <= W; ++w) {
    row_cuts[w] = std::min(n, static_cast<std::size_t>(w) * chunk);
  }
  pair_cuts[0] = 0;
  {
    const std::uint64_t total = values_.size();
    std::uint64_t acc = 0;
    unsigned w = 1;
    for (std::size_t k = 0; k < n && w < W; ++k) {
      acc += end_[k] - begin_[k];
      while (w < W && acc * W >= total * w) pair_cuts[w++] = k + 1;
    }
  }

  double critical_seconds = 0.0;
  // Runs fn(w, cuts[w], cuts[w+1]) per worker and accumulates the slowest
  // worker's CPU time — the pass's critical path on a host with a core
  // per worker (this is what a performance model should charge; wall time
  // here would measure this machine's core count, not the work).
  auto parallel_rows = [&](const std::vector<std::size_t>& cuts, auto&& fn) {
    if (W <= 1) {
      ThreadCpuTimer timer;
      fn(0u, std::size_t{0}, n);
      critical_seconds += timer.seconds();
      return;
    }
    std::vector<double> cpu(W, 0.0);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < W; ++w) {
      const std::size_t lo = cuts[w];
      const std::size_t hi = cuts[w + 1];
      if (lo >= hi) continue;
      workers.emplace_back([&fn, &cpu, w, lo, hi,
                            ctx = current_request_context()] {
        RequestScope scope(ctx);
        ThreadCpuTimer timer;
        fn(w, lo, hi);
        cpu[w] = timer.seconds();
      });
    }
    for (auto& t : workers) t.join();
    critical_seconds += *std::max_element(cpu.begin(), cpu.end());
  };

  // The expansion is a counting-sort transpose with per-worker histograms
  // — no atomics anywhere, every cursor is thread-private.
  //
  // Pass 1: worker w histograms the back contributions of its row chunk
  // into its private block back[w*n ...] (one entry per destination row).
  std::vector<std::uint32_t> back(static_cast<std::size_t>(W) * n, 0);
  parallel_rows(pair_cuts, [&](unsigned w, std::size_t lo, std::size_t hi) {
    std::uint32_t* mine = back.data() + static_cast<std::size_t>(w) * n;
    for (std::size_t k = lo; k < hi; ++k) {
      for (std::uint32_t a = begin_[k]; a < end_[k]; ++a) {
        const PointId v = values_[a];
        if (v != static_cast<PointId>(k)) ++mine[v];
      }
    }
  });

  // Pass 2a: per destination row, turn the worker histograms into
  // exclusive per-worker offsets and total the row's back contributions.
  std::vector<std::uint32_t> row_extra(n);
  parallel_rows(row_cuts, [&](unsigned, std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      std::uint32_t running = 0;
      for (unsigned w = 0; w < W; ++w) {
        std::uint32_t& slot = back[static_cast<std::size_t>(w) * n + v];
        const std::uint32_t c = slot;
        slot = running;
        running += c;
      }
      row_extra[v] = running;
    }
  });

  // Pass 2b: serial prefix sum into the new layout; fwd_base[v] is where
  // row v's back contributions start (right after its forward segment).
  ThreadCpuTimer serial_timer;
  std::vector<std::uint32_t> new_begin(n), new_end(n), fwd_base(n);
  std::uint64_t running = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t len = end_[k] - begin_[k];
    new_begin[k] = static_cast<std::uint32_t>(running);
    fwd_base[k] = static_cast<std::uint32_t>(running + len);
    running += len + row_extra[k];
    new_end[k] = static_cast<std::uint32_t>(running);
  }
  // ValueVector skips zero-fill: every slot is written below (forward
  // copies fill [new_begin, fwd_base), the scatter fills the rest).
  ValueVector new_values(running);
  critical_seconds += serial_timer.seconds();

  // Pass 3: copy each forward segment into place, and scatter the chunk's
  // transposes through the worker's private cursors (back[w*n + v] now
  // counts how many this worker has already placed for row v).
  parallel_rows(pair_cuts, [&](unsigned w, std::size_t lo, std::size_t hi) {
    std::uint32_t* mine = back.data() + static_cast<std::size_t>(w) * n;
    for (std::size_t k = lo; k < hi; ++k) {
      std::copy(values_.begin() + begin_[k], values_.begin() + end_[k],
                new_values.begin() + new_begin[k]);
      for (std::uint32_t a = begin_[k]; a < end_[k]; ++a) {
        const PointId v = values_[a];
        if (v == static_cast<PointId>(k)) continue;
        new_values[fwd_base[v] + mine[v]++] = static_cast<PointId>(k);
      }
    }
  });

  begin_ = std::move(new_begin);
  end_ = std::move(new_end);
  values_ = std::move(new_values);
  return critical_seconds;
}

void NeighborTable::canonicalize() {
  std::vector<std::uint32_t> new_begin(begin_.size(), 0);
  std::vector<std::uint32_t> new_end(end_.size(), 0);
  ValueVector new_values;
  new_values.reserve(values_.size());
  for (std::size_t k = 0; k < begin_.size(); ++k) {
    const std::size_t run_begin = new_values.size();
    new_values.insert(new_values.end(), values_.begin() + begin_[k],
                      values_.begin() + end_[k]);
    std::sort(new_values.begin() + run_begin, new_values.end());
    new_begin[k] = static_cast<std::uint32_t>(run_begin);
    new_end[k] = static_cast<std::uint32_t>(new_values.size());
  }
  begin_ = std::move(new_begin);
  end_ = std::move(new_end);
  values_ = std::move(new_values);
}

NeighborTable build_neighbor_table_host(const GridIndex& index, float eps,
                                        QualitySpec quality) {
  NeighborTable table(index.size());
  std::vector<PointId> neighbors;
  std::vector<NeighborPair> pairs;
  for (PointId i = 0; i < index.query_count(); ++i) {
    grid_query(index, index.points[i], eps, neighbors);
    pairs.clear();
    pairs.reserve(neighbors.size());
    for (const PointId v : neighbors) {
      if (!quality.keep_pair(i, v)) continue;
      pairs.push_back({i, v});
    }
    table.append_sorted_batch(pairs);
  }
  return table;
}

}  // namespace hdbscan
