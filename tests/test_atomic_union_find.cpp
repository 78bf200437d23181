#include "dbscan/atomic_union_find.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dbscan/union_find.hpp"

namespace hdbscan {
namespace {

TEST(AtomicUnionFind, BasicUniteAndFind) {
  AtomicUnionFind uf(8);
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(2, 1));
  EXPECT_TRUE(uf.connected(1, 2));
  EXPECT_FALSE(uf.connected(1, 3));
}

TEST(AtomicUnionFind, SmallestIdBecomesRoot) {
  AtomicUnionFind uf(10);
  uf.unite(7, 3);
  EXPECT_EQ(uf.find(7), 3u);
  uf.unite(3, 9);
  EXPECT_EQ(uf.find(9), 3u);
  uf.unite(1, 9);
  EXPECT_EQ(uf.find(7), 1u);  // 1 takes over the whole component
}

TEST(AtomicUnionFind, MatchesSequentialUnionFind) {
  Xoshiro256 rng(17);
  const std::uint32_t n = 500;
  AtomicUnionFind atomic_uf(n);
  UnionFind seq_uf(n);
  for (int step = 0; step < 1000; ++step) {
    const auto a = static_cast<std::uint32_t>(rng.below(n));
    const auto b = static_cast<std::uint32_t>(rng.below(n));
    atomic_uf.unite(a, b);
    seq_uf.unite(a, b);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; j += 7) {
      EXPECT_EQ(atomic_uf.connected(i, j), seq_uf.connected(i, j));
    }
  }
}

TEST(AtomicUnionFind, ConcurrentUnionsProduceCorrectComponents) {
  // 4 threads unite disjoint chain segments that ultimately form rings;
  // the final components must be exact regardless of interleaving.
  const std::uint32_t n = 40000;
  AtomicUnionFind uf(n);
  auto worker = [&](std::uint32_t offset) {
    // Chain i -> i+4 within the same residue class (mod 4).
    for (std::uint32_t i = offset; i + 4 < n; i += 4) {
      uf.unite(i, i + 4);
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 4; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  // Each residue class is one component rooted at its smallest element.
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(uf.find(i), i % 4);
  }
}

TEST(AtomicUnionFind, ConcurrentCrossUnions) {
  // All threads hammer the same elements: result must still be one
  // component with the smallest id as root.
  const std::uint32_t n = 1000;
  AtomicUnionFind uf(n);
  Xoshiro256 seed_rng(5);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&uf, rng = seed_rng.split()]() mutable {
      for (int step = 0; step < 5000; ++step) {
        const auto a = static_cast<std::uint32_t>(rng.below(1000));
        const auto b = static_cast<std::uint32_t>(rng.below(1000));
        uf.unite(a, b);
      }
      // Stitch everything to be safe: the test checks full connectivity.
      for (std::uint32_t i = 1; i < 1000; ++i) uf.unite(0, i);
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(uf.find(i), 0u);
}

TEST(AtomicUnionFind, ConcurrentFastPathMatchesSequential) {
  // Pool threads mix repeated unite_root calls on pairs already joined —
  // the no-find exit, which reads two parents while other threads CAS
  // them — with cross unions over the same elements. The components must
  // match a sequential UnionFind fed every union.
  const std::uint32_t n = 2000;
  Xoshiro256 plan_rng(29);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cross(3000);
  for (auto& [a, b] : cross) {
    a = static_cast<std::uint32_t>(plan_rng.below(n));
    b = static_cast<std::uint32_t>(plan_rng.below(n));
  }
  UnionFind seq(n);
  for (std::uint32_t i = 0; i + 1 < n; i += 2) seq.unite(i, i + 1);
  for (const auto& [a, b] : cross) seq.unite(a, b);

  AtomicUnionFind uf(n);
  for (std::uint32_t i = 0; i + 1 < n; i += 2) uf.unite(i, i + 1);
  ThreadPool pool(4);
  pool.parallel_for(0, 8, [&](std::size_t t) {
    std::uint32_t root = static_cast<std::uint32_t>(2 * t);
    for (std::size_t k = t; k < cross.size(); k += 8) {
      // Already joined: i + 1 hangs off i, mostly straight off the root.
      for (int repeat = 0; repeat < 4; ++repeat) {
        const std::uint32_t i = static_cast<std::uint32_t>((2 * k) % n);
        root = uf.unite_root(i, i + 1);
        root = uf.unite_root(root, i);
      }
      root = uf.unite_root(cross[k].first, cross[k].second);
    }
  });
  // The atomic forest roots each set at its smallest id.
  std::vector<std::uint32_t> smallest(n, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    smallest[seq.find(i)] = std::min(smallest[seq.find(i)], i);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(uf.find(i), smallest[seq.find(i)]) << "element " << i;
  }
}

}  // namespace
}  // namespace hdbscan
