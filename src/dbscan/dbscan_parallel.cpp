#include "dbscan/dbscan_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/default_init.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "dbscan/atomic_union_find.hpp"

namespace hdbscan {

namespace {

constexpr PointId kNoTarget = std::numeric_limits<PointId>::max();

/// Below this many row entries (or points, for a snapshot) a step is one
/// chunk: splitting it would cost more than the work.
constexpr std::uint64_t kSerialWork = 1u << 14;

/// Chunks per worker in a parallel step, so the shared cursor can even
/// out rows whose cost their length does not predict.
constexpr std::size_t kChunksPerLane = 4;

template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

/// A pass as a sequence of steps, each cut into chunks, run on up to
/// `lanes` pool workers (the caller is one). Workers claim chunks in step
/// order from one cursor; a chunk starts only once every chunk of the
/// earlier steps has finished. Between steps a worker spins (yielding)
/// instead of parking: the pass has two steps per band, each a few
/// milliseconds at most, and waking a parked pool thread can take as long.
/// No chunk waits on a worker that has not claimed work, so the caller
/// alone can finish every step.
class StepRunner {
 public:
  void add(std::size_t chunks, std::function<void(std::size_t)> fn) {
    steps_.push_back({total_, chunks, std::move(fn)});
    total_ += chunks;
  }

  /// Runs every step; returns each step's busy seconds, summed over
  /// workers. Rethrows the first exception a chunk threw.
  std::vector<double> run(std::size_t lanes) {
    const std::size_t num_steps = steps_.size();
    std::vector<std::size_t> step_of(total_);
    for (std::size_t s = 0; s < num_steps; ++s) {
      std::fill_n(step_of.begin() + steps_[s].first, steps_[s].chunks, s);
    }
    lanes = std::max<std::size_t>(1, std::min(lanes, total_));
    std::vector<double> busy(lanes * num_steps, 0.0);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto lane_body = [&](std::size_t lane) {
      for (std::size_t g = next.fetch_add(1, std::memory_order_relaxed);
           g < total_; g = next.fetch_add(1, std::memory_order_relaxed)) {
        const Step& step = steps_[step_of[g]];
        while (done.load(std::memory_order_acquire) < step.first) {
          std::this_thread::yield();
        }
        WallTimer timer;
        try {
          step.fn(g - step.first);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        busy[lane * num_steps + step_of[g]] += timer.seconds();
        done.fetch_add(1, std::memory_order_release);
      }
    };
    if (lanes == 1) {
      lane_body(0);
    } else {
      global_pool().parallel_for(0, lanes, lane_body, /*grain=*/1);
    }
    if (error) std::rethrow_exception(error);
    std::vector<double> seconds(num_steps, 0.0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (std::size_t s = 0; s < num_steps; ++s) {
        seconds[s] += busy[lane * num_steps + s];
      }
    }
    return seconds;
  }

 private:
  struct Step {
    std::size_t first;  ///< global index of the step's first chunk
    std::size_t chunks;
    std::function<void(std::size_t)> fn;
  };
  std::vector<Step> steps_;
  std::size_t total_ = 0;
};

}  // namespace

std::vector<ClusterResult> dbscan_parallel(const NeighborTable& table,
                                           std::span<const int> minpts_values,
                                           unsigned num_threads,
                                           std::span<const PointId> output_ids,
                                           std::span<double> variant_seconds) {
  for (const int minpts : minpts_values) {
    if (minpts < 1) {
      throw std::invalid_argument("dbscan_parallel: minpts must be >= 1");
    }
  }
  const std::size_t n = table.num_points();
  if (!output_ids.empty() && output_ids.size() != n) {
    throw std::invalid_argument("dbscan_parallel: one output id per point");
  }
  if (!variant_seconds.empty() &&
      variant_seconds.size() != minpts_values.size()) {
    throw std::invalid_argument("dbscan_parallel: one seconds slot per minpts");
  }
  const std::size_t num_variants = minpts_values.size();
  std::vector<ClusterResult> results(num_variants);
  if (num_variants == 0) return results;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const std::size_t lanes =
      std::min<std::size_t>(num_threads, global_pool().size() + 1);
  WallTimer shared_timer;

  // Distinct thresholds, descending.
  std::vector<std::uint32_t> thresholds(minpts_values.begin(),
                                        minpts_values.end());
  std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  const std::size_t num_bands = thresholds.size();
  // First band whose threshold `degree` clears; num_bands = never core.
  const auto band_of = [&](std::uint32_t degree) {
    return static_cast<std::size_t>(
        std::lower_bound(thresholds.begin(), thresholds.end(), degree,
                         std::greater<>()) -
        thresholds.begin());
  };
  std::vector<std::vector<std::size_t>> variants_of(num_bands);
  for (std::size_t v = 0; v < num_variants; ++v) {
    variants_of[band_of(static_cast<std::uint32_t>(minpts_values[v]))]
        .push_back(v);
  }

  // Degrees, and a counting sort of the points into band order (never
  // core last), ids ascending within a band; position inverts it.
  UninitVector<std::uint32_t> degree(n);
  std::vector<std::size_t> band_begin(num_bands + 2, 0);
  for (PointId p = 0; p < n; ++p) {
    degree[p] = table.neighbor_count(p);
    ++band_begin[band_of(degree[p]) + 1];
  }
  std::partial_sum(band_begin.begin(), band_begin.end(), band_begin.begin());
  UninitVector<PointId> order(n);
  UninitVector<std::uint32_t> position(n);
  {
    std::vector<std::size_t> cursor(band_begin.begin(), band_begin.end() - 1);
    for (PointId p = 0; p < n; ++p) {
      const std::size_t k = cursor[band_of(degree[p])]++;
      order[k] = p;
      position[p] = static_cast<std::uint32_t>(k);
    }
  }
  // Row-length prefix over the band order: chunks of equal weight.
  UninitVector<std::uint64_t> weight(n + 1);
  weight[0] = 0;
  for (std::size_t k = 0; k < n; ++k) {
    weight[k + 1] = weight[k] + degree[order[k]];
  }
  AtomicUnionFind uf(n);
  UninitVector<PointId> target(n);
  // Band i's snapshot: the root of each core at m_i, by band position.
  std::vector<UninitVector<PointId>> snapshot(num_bands);
  for (std::size_t i = 0; i < num_bands; ++i) {
    snapshot[i].resize(band_begin[i + 1]);
  }
  const double setup_seconds = shared_timer.seconds();

  StepRunner runner;
  // Walks the rows of band i's points once: unions with the neighbors
  // already core at m_i, and the border target. Band num_bands (never
  // core) records targets only.
  std::vector<std::vector<std::size_t>> cuts(num_bands + 1);
  const auto add_walk = [&](std::size_t i) {
    const std::size_t lo = band_begin[i];
    const std::size_t hi = band_begin[i + 1];
    const std::uint64_t total = weight[hi] - weight[lo];
    const std::size_t chunks =
        lanes == 1 || total < kSerialWork ? 1 : lanes * kChunksPerLane;
    cuts[i].assign(chunks + 1, hi);
    cuts[i][0] = lo;
    for (std::size_t c = 1; c < chunks; ++c) {
      cuts[i][c] = static_cast<std::size_t>(
          std::lower_bound(weight.begin() + cuts[i][c - 1],
                           weight.begin() + hi,
                           weight[lo] + total * c / chunks) -
          weight.begin());
    }
    const bool core_band = i < num_bands;
    const std::uint32_t m = core_band ? thresholds[i] : 0;
    // Degrees at or past this bound belong to an earlier band.
    const std::uint64_t earlier =
        i == 0 ? std::uint64_t{1} << 32 : thresholds[i - 1];
    runner.add(chunks, [&, i, core_band, m, earlier](std::size_t c) {
      for (std::size_t k = cuts[i][c]; k < cuts[i][c + 1]; ++k) {
        const PointId p = order[k];
        std::uint32_t root = p;
        std::uint64_t best = 0;  // no key is 0: ids are below kNoTarget
        for (const PointId q : table.neighbors(p)) {
          if (q == p) continue;
          const std::uint32_t dq = degree[q];
          best = std::max(best, border_target_key(dq, q));
          if (core_band && dq >= m && (dq >= earlier || q < p)) {
            root = uf.unite_root(root, q);
          }
        }
        target[p] = best == 0 ? kNoTarget : border_target_id(best);
      }
    });
  };
  // After band i the root of every core at m_i is variant i's core label.
  const auto add_snapshot = [&](std::size_t i) {
    const std::size_t cores = band_begin[i + 1];
    const std::size_t chunks =
        lanes == 1 || cores < kSerialWork ? 1 : lanes * kChunksPerLane;
    runner.add(chunks, [&, i, cores, chunks](std::size_t c) {
      PointId* roots = snapshot[i].data();
      for (std::size_t k = cores * c / chunks; k < cores * (c + 1) / chunks;
           ++k) {
        roots[k] = uf.find(order[k]);
      }
    });
  };
  // Band by band from the largest minpts down.
  for (std::size_t i = 0; i < num_bands; ++i) {
    add_walk(i);
    add_snapshot(i);
  }
  add_walk(num_bands);

  // Labels, one band per chunk: clusters numbered by root (the smallest
  // core id) in id order, borders copy their target's label, each label
  // written once at its output position; repeats of a value copy it.
  std::vector<double> label_seconds(num_bands, 0.0);
  const auto out = [&](PointId p) {
    return output_ids.empty() ? p : output_ids[p];
  };
  runner.add(num_bands, [&](std::size_t i) {
    WallTimer timer;
    const std::uint32_t m = thresholds[i];
    const PointId* roots = snapshot[i].data();
    ClusterResult& r = results[variants_of[i].front()];
    r.labels.resize(n);
    std::int32_t* labels = r.labels.data();
    std::int32_t next = 0;
    for (PointId p = 0; p < n; ++p) {
      if (degree[p] < m) continue;
      const PointId root = roots[position[p]];
      labels[out(p)] = root == p ? next++ : labels[out(root)];
    }
    for (PointId p = 0; p < n; ++p) {
      if (degree[p] >= m) continue;
      const PointId t = target[p];
      labels[out(p)] =
          t != kNoTarget && degree[t] >= m ? labels[out(t)] : kNoise;
    }
    r.num_clusters = next;
    r.finalize_noise_count();
    for (std::size_t k = 1; k < variants_of[i].size(); ++k) {
      results[variants_of[i][k]] = r;
    }
    label_seconds[i] = timer.seconds();
  });

  const std::vector<double> step_seconds = runner.run(lanes);
  if (!variant_seconds.empty()) {
    // Steps: walk and snapshot per band, the never-core walk, the labels.
    const double shared_seconds = setup_seconds + step_seconds[2 * num_bands];
    for (std::size_t i = 0; i < num_bands; ++i) {
      const double own = (step_seconds[2 * i] + step_seconds[2 * i + 1] +
                          label_seconds[i]) /
                         static_cast<double>(variants_of[i].size());
      for (const std::size_t v : variants_of[i]) {
        variant_seconds[v] =
            own + shared_seconds / static_cast<double>(num_variants);
      }
    }
  }
  return results;
}

ClusterResult dbscan_parallel(const NeighborTable& table, int minpts,
                              unsigned num_threads) {
  const int values[] = {minpts};
  return std::move(dbscan_parallel(table, values, num_threads).front());
}

}  // namespace hdbscan
