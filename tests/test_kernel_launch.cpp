#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "cudasim/device.hpp"
#include "cudasim/kernel.hpp"

namespace {

using cudasim::Device;
using cudasim::KernelStats;
using cudasim::LaunchError;
using cudasim::SimulationOptions;
using cudasim::ThreadCtx;

SimulationOptions fast_options() {
  SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  opt.executor_threads = 2;
  return opt;
}

TEST(FlatKernel, EveryThreadRunsExactlyOnce) {
  Device dev({}, fast_options());
  std::vector<std::atomic<int>> hits(4 * 64);
  const KernelStats stats = cudasim::run_flat_kernel(
      dev, 4, 64, [&](ThreadCtx& ctx) { hits[ctx.global_id()]++; });
  EXPECT_EQ(stats.threads, 256u);
  EXPECT_EQ(stats.blocks, 4u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(FlatKernel, IdsAreConsistent) {
  Device dev({}, fast_options());
  std::atomic<bool> ok{true};
  cudasim::run_flat_kernel(dev, 8, 32, [&](ThreadCtx& ctx) {
    if (ctx.block_dim != 32 || ctx.grid_dim != 8 ||
        ctx.thread_idx >= ctx.block_dim || ctx.block_idx >= ctx.grid_dim ||
        ctx.global_id() != ctx.block_idx * 32 + ctx.thread_idx) {
      ok.store(false);
    }
  });
  EXPECT_TRUE(ok.load());
}

TEST(FlatKernel, WorkCountersAggregate) {
  Device dev({}, fast_options());
  const KernelStats stats =
      cudasim::run_flat_kernel(dev, 2, 10, [&](ThreadCtx& ctx) {
        ctx.count_flops(3);
        ctx.count_global_bytes(8);
        ctx.count_atomic();
      });
  EXPECT_EQ(stats.work.flops, 60u);
  EXPECT_EQ(stats.work.global_bytes, 160u);
  EXPECT_EQ(stats.work.atomic_ops, 20u);
}

TEST(FlatKernel, ModeledTimePositiveAndScalesWithWork) {
  Device dev({}, fast_options());
  const KernelStats small = cudasim::run_flat_kernel(
      dev, 1, 32, [&](ThreadCtx& ctx) { ctx.count_global_bytes(1000); });
  const KernelStats large = cudasim::run_flat_kernel(
      dev, 1, 32, [&](ThreadCtx& ctx) { ctx.count_global_bytes(100000000); });
  EXPECT_GT(small.modeled_seconds, 0.0);
  EXPECT_GT(large.modeled_seconds, small.modeled_seconds);
}

TEST(FlatKernel, BlockOverheadShowsUpForManyBlocks) {
  Device dev({}, fast_options());
  // Same total work, far more blocks -> larger modeled time (the effect
  // that makes GPUCalcShared lose on uniform data in the paper).
  const KernelStats few = cudasim::run_flat_kernel(dev, 4, 256,
                                                   [](ThreadCtx&) {});
  const KernelStats many = cudasim::run_flat_kernel(dev, 4096, 1,
                                                    [](ThreadCtx&) {});
  EXPECT_GT(many.modeled_seconds, few.modeled_seconds);
}

TEST(FlatKernel, RejectsInvalidLaunches) {
  Device dev({}, fast_options());
  auto noop = [](ThreadCtx&) {};
  EXPECT_THROW(cudasim::run_flat_kernel(dev, 0, 32, noop), LaunchError);
  EXPECT_THROW(cudasim::run_flat_kernel(dev, 1, 0, noop), LaunchError);
  EXPECT_THROW(cudasim::run_flat_kernel(dev, 1, 2048, noop), LaunchError);
}

TEST(FlatKernel, DeviceMetricsAccumulate) {
  Device dev({}, fast_options());
  cudasim::run_flat_kernel(dev, 1, 1, [](ThreadCtx&) {});
  cudasim::run_flat_kernel(dev, 1, 1, [](ThreadCtx&) {});
  const auto m = dev.metrics();
  EXPECT_EQ(m.kernel_launches, 2u);
  EXPECT_GT(m.kernel_modeled_seconds, 0.0);
}

TEST(FlatKernel, LargeGridExecutesCorrectTotal) {
  Device dev({}, fast_options());
  std::atomic<std::uint64_t> sum{0};
  cudasim::run_flat_kernel(dev, 1000, 64, [&](ThreadCtx& ctx) {
    sum.fetch_add(ctx.global_id(), std::memory_order_relaxed);
  });
  const std::uint64_t n = 64000;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(FlatHost, RunsTheDeviceBlockLoopWithoutADevice) {
  // The host executor runs every logical thread once with the same ids and
  // merges the same per-block counters as a device launch of the body.
  auto body = [](std::vector<std::atomic<int>>& hits) {
    return [&hits](ThreadCtx& ctx) {
      hits[ctx.global_id()]++;
      ctx.count_flops(ctx.thread_idx + 1);
      ctx.count_global_bytes(8);
      ctx.count_atomic();
    };
  };
  std::vector<std::atomic<int>> host_hits(5 * 48);
  const cudasim::BlockCounters host =
      cudasim::run_flat_host(5, 48, body(host_hits));
  for (const auto& h : host_hits) EXPECT_EQ(h.load(), 1);

  Device dev({}, fast_options());
  std::vector<std::atomic<int>> device_hits(5 * 48);
  const KernelStats device =
      cudasim::run_flat_kernel(dev, 5, 48, body(device_hits));
  EXPECT_EQ(host.flops, device.work.flops);
  EXPECT_EQ(host.global_bytes, device.work.global_bytes);
  EXPECT_EQ(host.atomic_ops, device.work.atomic_ops);
  // Host-run work is not a launch: the device saw only its own.
  EXPECT_EQ(dev.metrics().kernel_launches, 1u);
}

}  // namespace
