// BufferPool lifecycle: bucket reuse and fresh flags, the flat pinned-alloc
// guarantee across reuse sweeps, trim-and-retry on device OOM (and the cold
// pool rethrowing so scripted faults still reach the degradation ladder),
// outright frees on lost devices, and survival under concurrent checkout
// hammering and randomized fault plans — no leaks, no double-returns.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/neighbor_table_builder.hpp"
#include "cudasim/buffer.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/device.hpp"
#include "cudasim/error.hpp"
#include "cudasim/fault.hpp"
#include "data/generators.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {
namespace {

cudasim::SimulationOptions fast_options() {
  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  opt.executor_threads = 2;
  return opt;
}

TEST(BufferPool, BucketRounding) {
  EXPECT_EQ(cudasim::BufferPool::bucket_for(0), 256u);
  EXPECT_EQ(cudasim::BufferPool::bucket_for(1), 256u);
  EXPECT_EQ(cudasim::BufferPool::bucket_for(256), 256u);
  EXPECT_EQ(cudasim::BufferPool::bucket_for(257), 512u);
  EXPECT_EQ(cudasim::BufferPool::bucket_for(100'000), 1u << 17);
}

TEST(BufferPool, DeviceCheckoutReusesBucket) {
  cudasim::Device dev({}, fast_options());
  void* first_ptr = nullptr;
  {
    cudasim::PooledDeviceBuffer<int> a(dev, 1000);
    EXPECT_TRUE(a.fresh());
    first_ptr = a.device_data();
  }
  // Same bucket (1000 and 900 ints both round to 4096 B): cached block.
  {
    cudasim::PooledDeviceBuffer<int> b(dev, 900);
    EXPECT_FALSE(b.fresh());
    EXPECT_EQ(b.device_data(), first_ptr);
  }
  // Different bucket: fresh allocation.
  {
    cudasim::PooledDeviceBuffer<int> c(dev, 5000);
    EXPECT_TRUE(c.fresh());
  }
  EXPECT_EQ(dev.metrics().pool_device_hits, 1u);
  EXPECT_EQ(dev.metrics().pool_device_misses, 2u);
}

TEST(BufferPool, PinnedAllocPaidOncePerBucketAcrossSweep) {
  // The N-variant reuse sweep: four builds staging through the same-sized
  // pinned buffer must page-lock exactly once. fresh() gates the modeled
  // pinned-alloc charge, so flat pinned time across variants follows.
  cudasim::Device dev({}, fast_options());
  for (int variant = 0; variant < 4; ++variant) {
    cudasim::PooledPinnedBuffer<float> staging(dev, 10'000);
    EXPECT_EQ(staging.fresh(), variant == 0) << "variant " << variant;
    std::memset(staging.data(), variant, staging.bytes());
  }
  EXPECT_EQ(dev.metrics().pool_pinned_misses, 1u);
  EXPECT_EQ(dev.metrics().pool_pinned_hits, 3u);
  // Trim only releases device blocks; the pinned cache (the expensive
  // page-locked memory) survives.
  dev.pool().trim();
  EXPECT_GT(dev.pool().cached_pinned_bytes(), 0u);
}

TEST(BufferPool, TrimFreesOnlyDeviceBlocks) {
  cudasim::Device dev({}, fast_options());
  { cudasim::PooledDeviceBuffer<int> a(dev, 4096); }
  { cudasim::PooledPinnedBuffer<int> p(dev, 4096); }
  EXPECT_GT(dev.pool().cached_device_bytes(), 0u);
  EXPECT_GT(dev.pool().cached_pinned_bytes(), 0u);
  const std::size_t freed = dev.pool().trim();
  EXPECT_EQ(freed, 16384u);
  EXPECT_EQ(dev.pool().cached_device_bytes(), 0u);
  EXPECT_GT(dev.pool().cached_pinned_bytes(), 0u);
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

TEST(BufferPool, OomTrimsCacheAndRetries) {
  // Device with room for one big block. A cached block from an earlier
  // checkout would block the next differently-sized acquire; the pool must
  // trim itself and retry rather than surface the OOM.
  cudasim::DeviceConfig cfg;
  cfg.global_mem_bytes = 1u << 20;  // 1 MiB
  cudasim::Device dev(cfg, fast_options());
  // 600 KB rounds to the 1 MiB bucket, exactly filling the device; once
  // released it sits in the cache still holding that capacity.
  { cudasim::PooledDeviceBuffer<char> big(dev, 600'000); }
  EXPECT_GT(dev.pool().cached_device_bytes(), 0u);
  // A 512 KiB bucket cannot fit until the pool trims its own cache.
  cudasim::PooledDeviceBuffer<char> other(dev, 300'000);
  EXPECT_TRUE(other.fresh());
  EXPECT_GT(dev.metrics().pool_trim_bytes, 0u);
}

TEST(BufferPool, ColdPoolRethrowsOom) {
  // Nothing cached: the trim frees zero bytes and the OOM must propagate
  // (this is what keeps scripted fault-injection OOMs driving the
  // builder's ladder instead of being silently absorbed).
  cudasim::DeviceConfig cfg;
  cfg.global_mem_bytes = 1u << 16;  // 64 KiB
  cudasim::Device dev(cfg, fast_options());
  EXPECT_THROW((void)cudasim::PooledDeviceBuffer<char>(dev, 1u << 20),
               cudasim::DeviceOutOfMemory);
}

TEST(BufferPool, LostDeviceFreesOnReleaseInsteadOfCaching) {
  cudasim::FaultPlan plan;
  plan.lost_at_op = 3;
  auto injector = std::make_shared<cudasim::FaultInjector>(plan);
  cudasim::SimulationOptions opt = fast_options();
  opt.fault = injector;
  cudasim::Device dev({}, opt);

  auto buf = std::make_unique<cudasim::PooledDeviceBuffer<int>>(dev, 1024);
  // Burn ops until the device is lost.
  std::vector<int> host(16, 0);
  cudasim::DeviceBuffer<int> tmp(dev, 16);
  while (!dev.lost()) {
    try {
      dev.blocking_transfer(tmp.device_data(), host.data(),
                            host.size() * sizeof(int), true, false);
    } catch (const cudasim::DeviceLost&) {
      break;
    }
  }
  ASSERT_TRUE(dev.lost());
  buf.reset();  // must not throw; block freed outright, not cached
  EXPECT_EQ(dev.pool().cached_device_bytes(), 0u);
}

TEST(BufferPool, ConcurrentCheckoutHammer) {
  // Races between acquire/release across threads (run under TSan in the
  // sanitizer job): every checkout gets a private block, memset survives,
  // nothing leaks and nothing is double-returned.
  cudasim::Device dev({}, fast_options());
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&dev, t] {
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < kIters; ++i) {
        const std::size_t count = 64 + (rng() % 4096);
        if (rng() % 2 == 0) {
          cudasim::PooledDeviceBuffer<std::uint32_t> b(dev, count);
          ASSERT_NE(b.device_data(), nullptr);
          std::memset(b.device_data(), t, b.bytes());
        } else {
          cudasim::PooledPinnedBuffer<std::uint32_t> p(dev, count);
          ASSERT_NE(p.data(), nullptr);
          std::memset(p.data(), t, p.bytes());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto& m = dev.metrics();
  EXPECT_EQ(m.pool_device_hits + m.pool_device_misses +
                m.pool_pinned_hits + m.pool_pinned_misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  // Everything was returned: after a trim the device footprint is zero.
  dev.pool().trim();
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

TEST(BufferPool, SurvivesRandomizedFaultPlans) {
  // Chaos survival: randomized fault plans (OOMs, transients, degradation,
  // possibly device loss) over pooled builds must never leak device memory
  // or double-return a block — whatever the build outcome.
  const auto points = data::generate_space_weather(
      1500, 21, {.width = 8.0f, .height = 8.0f});
  const float eps = 0.35f;
  const GridIndex index = build_grid_index(points, eps);
  NeighborTable oracle = build_neighbor_table_host(index, eps);
  oracle.canonicalize();

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cudasim::SimulationOptions opt = fast_options();
    opt.fault = std::make_shared<cudasim::FaultInjector>(
        cudasim::FaultPlan::randomized(seed));
    cudasim::Device dev({}, opt);
    {
      NeighborTableBuilder builder(dev);
      try {
        NeighborTable table = builder.build(index, eps);
        table.canonicalize();
        EXPECT_TRUE(table.identical_to(oracle)) << "seed " << seed;
      } catch (const std::exception&) {
        // A plan harsh enough to sink the build entirely is acceptable;
        // leaking memory on the way down is not.
      }
    }
    dev.pool().trim();
    EXPECT_EQ(dev.used_global_bytes(), 0u) << "seed " << seed;
  }
}

TEST(BufferPool, ScriptedOomDuringBuildLeavesPoolConsistent) {
  const auto points = data::generate_space_weather(
      2000, 45, {.width = 8.0f, .height = 8.0f});
  const float eps = 0.35f;
  const GridIndex index = build_grid_index(points, eps);
  NeighborTable oracle = build_neighbor_table_host(index, eps);
  oracle.canonicalize();

  // Allocations 1-4 upload the grid index; every later one checks out a
  // stream context's counts or values buffer (batches allocate nothing).
  // #6 fails on the first context's values buffer after its counts buffer
  // was checked out, so the setup unwind returns a block to the pool; #7
  // fails the retry. Each failure halves the buffer cap and replans.
  cudasim::FaultPlan plan;
  plan.oom_allocs = {6, 7};
  cudasim::SimulationOptions opt = fast_options();
  opt.fault = std::make_shared<cudasim::FaultInjector>(plan);
  cudasim::Device dev({}, opt);
  BuildReport report;
  {
    NeighborTableBuilder builder(dev);
    NeighborTable table = builder.build(index, eps, &report);
    table.canonicalize();
    EXPECT_TRUE(table.identical_to(oracle));
  }
  EXPECT_GE(report.alloc_retries, 1u);
  EXPECT_EQ(dev.metrics().injected_oom_faults, 2u);
  dev.pool().trim();
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

}  // namespace
}  // namespace hdbscan
