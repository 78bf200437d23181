#include "dbscan/neighbor_table.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
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

double NeighborTable::assemble(std::vector<NeighborTable>&& parts,
                               bool expand_half, unsigned chunks) {
  if (!values_.empty()) {
    throw std::invalid_argument("NeighborTable: assemble target not empty");
  }
  for (const NeighborTable& p : parts) {
    if (p.num_points() != num_points()) {
      throw std::invalid_argument("NeighborTable: part size mismatch");
    }
  }
  const std::size_t n = begin_.size();
  if (parts.empty() || n == 0) return 0.0;
  if (parts.size() == 1 && !expand_half) {  // already final: take it
    ThreadCpuTimer timer;
    begin_ = std::move(parts[0].begin_);
    end_ = std::move(parts[0].end_);
    values_ = std::move(parts[0].values_);
    parts.clear();
    return timer.seconds();
  }

  std::size_t total_in = 0;
  for (const NeighborTable& p : parts) total_in += p.values_.size();
  // Pool dispatch costs more than the work itself on small tables.
  const std::size_t C = total_in < (1u << 15) ? 1 : std::max(1u, chunks);

  double critical_seconds = 0.0;
  // Runs fn(c, cuts[c], cuts[c + 1]) for every chunk on the pool and
  // charges the slowest chunk's CPU time — the pass's critical path on a
  // host with a core per chunk (what a performance model should charge;
  // wall time here would measure this machine's core count, not the work).
  auto parallel_pass = [&](const std::vector<std::size_t>& cuts, auto&& fn) {
    std::vector<double> cpu(C, 0.0);
    global_pool().parallel_for(
        0, C,
        [&](std::size_t c) {
          ThreadCpuTimer timer;
          fn(c, cuts[c], cuts[c + 1]);
          cpu[c] = timer.seconds();
        },
        /*grain=*/1);
    critical_seconds += *std::max_element(cpu.begin(), cpu.end());
  };
  std::vector<std::size_t> row_cuts(C + 1);
  for (std::size_t c = 0; c <= C; ++c) row_cuts[c] = n * c / C;

  // Row-source sweep: which part holds each key's row. The parts are read
  // in place from here on; a key found in two parts is a broken build.
  std::vector<const PointId*> fwd(n, nullptr);
  std::vector<std::uint32_t> fwd_len(n, 0);
  parallel_pass(row_cuts, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (const NeighborTable& p : parts) {
      for (std::size_t k = lo; k < hi; ++k) {
        const std::uint32_t len = p.end_[k] - p.begin_[k];
        if (len == 0) continue;
        if (fwd_len[k] != 0) {
          throw std::logic_error("NeighborTable: key appears in two parts");
        }
        fwd[k] = p.values_.data() + p.begin_[k];
        fwd_len[k] = len;
      }
    }
  });

  // Chunks that walk the values are balanced by pair count: on clustered
  // data equal row counts leave one chunk holding most of the values.
  ThreadCpuTimer serial_timer;
  std::vector<std::size_t> pair_cuts(C + 1, n);
  pair_cuts[0] = 0;
  {
    std::uint64_t acc = 0;
    std::size_t c = 1;
    for (std::size_t k = 0; k < n && c < C; ++k) {
      acc += fwd_len[k];
      while (c < C && acc * C >= total_in * c) pair_cuts[c++] = k + 1;
    }
  }
  critical_seconds += serial_timer.seconds();

  // Under expand_half every part row is a *forward* row and each cross
  // pair (k, v) sits in exactly one of rows k and v, so the full row v is
  // its back contributions (the keys k whose forward rows hold v) followed
  // by its forward row. A counting-sort transpose places them with no
  // atomics: chunk c histograms its back contributions into its private
  // block back[c * n ...], the blocks turn into per-chunk cursors, and the
  // copy pass scatters through them.
  std::vector<std::uint32_t> back;
  std::vector<std::uint32_t> row_extra;
  if (expand_half) {
    back.assign(C * n, 0);
    parallel_pass(pair_cuts, [&](std::size_t c, std::size_t lo,
                                 std::size_t hi) {
      std::uint32_t* mine = back.data() + c * n;
      for (std::size_t k = lo; k < hi; ++k) {
        for (std::uint32_t a = 0; a < fwd_len[k]; ++a) {
          const PointId v = fwd[k][a];
          if (v != static_cast<PointId>(k)) ++mine[v];
        }
      }
    });
    row_extra.resize(n);
    parallel_pass(row_cuts, [&](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t v = lo; v < hi; ++v) {
        std::uint32_t running = 0;
        for (std::size_t c = 0; c < C; ++c) {
          std::uint32_t& slot = back[c * n + v];
          running += std::exchange(slot, running);
        }
        row_extra[v] = running;
      }
    });
  }

  // Final layout in key order: row k starts with its back contributions
  // at new_begin[k] and ends with its forward row.
  serial_timer.reset();
  std::vector<std::uint32_t> new_begin(n), new_end(n);
  std::uint64_t running = 0;
  for (std::size_t k = 0; k < n; ++k) {
    new_begin[k] = static_cast<std::uint32_t>(running);
    running += (expand_half ? row_extra[k] : 0) + fwd_len[k];
    new_end[k] = static_cast<std::uint32_t>(running);
  }
  // ValueVector skips zero-fill: the copies fill every forward segment
  // and the scatter every back segment.
  ValueVector out(running);
  critical_seconds += serial_timer.seconds();

  parallel_pass(pair_cuts, [&](std::size_t c, std::size_t lo,
                               std::size_t hi) {
    std::uint32_t* mine = expand_half ? back.data() + c * n : nullptr;
    for (std::size_t k = lo; k < hi; ++k) {
      std::copy(fwd[k], fwd[k] + fwd_len[k],
                out.begin() + (new_end[k] - fwd_len[k]));
      if (!expand_half) continue;
      for (std::uint32_t a = 0; a < fwd_len[k]; ++a) {
        const PointId v = fwd[k][a];
        if (v == static_cast<PointId>(k)) continue;
        out[new_begin[v] + mine[v]++] = static_cast<PointId>(k);
      }
    }
  });

  begin_ = std::move(new_begin);
  end_ = std::move(new_end);
  values_ = std::move(out);
  parts.clear();
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

bool NeighborTable::is_canonical() const noexcept {
  for (std::size_t k = 0; k < begin_.size(); ++k) {
    const auto first = values_.begin() + begin_[k];
    const auto last = values_.begin() + end_[k];
    if (std::adjacent_find(first, last, std::greater_equal<>()) != last) {
      return false;
    }
  }
  return true;
}

template <typename Point>
NeighborTable build_neighbor_table_host(const BasicGridIndex<Point>& index,
                                        float eps) {
  NeighborTable table(index.size());
  std::vector<PointId> neighbors;
  std::vector<NeighborPair> pairs;
  for (PointId i = 0; i < index.size(); ++i) {
    grid_query(index, index.points[i], eps, neighbors);
    pairs.clear();
    pairs.reserve(neighbors.size());
    for (const PointId v : neighbors) pairs.push_back({i, v});
    table.append_sorted_batch(pairs);
  }
  return table;
}

template NeighborTable build_neighbor_table_host(const GridIndex&, float);
template NeighborTable build_neighbor_table_host(const GridIndex3&, float);

}  // namespace hdbscan
