#include <gtest/gtest.h>

#include "cudasim/buffer.hpp"
#include "cudasim/device.hpp"
#include "cudasim/stream.hpp"
#include "data/generators.hpp"
#include "gpu/device_index.hpp"
#include "index/grid_index.hpp"

namespace {

using cudasim::Device;
using cudasim::DeviceBuffer;
using cudasim::DeviceConfig;
using cudasim::DeviceOutOfMemory;
using cudasim::PinnedBuffer;
using cudasim::SimulationOptions;

DeviceConfig small_config(std::size_t bytes) {
  DeviceConfig cfg;
  cfg.global_mem_bytes = bytes;
  return cfg;
}

SimulationOptions fast_options() {
  SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  opt.executor_threads = 1;
  return opt;
}

TEST(DeviceMemory, TracksUsage) {
  Device dev(small_config(1 << 20), fast_options());
  EXPECT_EQ(dev.used_global_bytes(), 0u);
  {
    DeviceBuffer<float> buf(dev, 1000);
    EXPECT_EQ(dev.used_global_bytes(), 4000u);
    EXPECT_EQ(buf.size(), 1000u);
    EXPECT_EQ(buf.bytes(), 4000u);
  }
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

TEST(DeviceMemory, ThrowsWhenExceedingCapacity) {
  Device dev(small_config(1000), fast_options());
  DeviceBuffer<char> a(dev, 600);
  EXPECT_THROW(DeviceBuffer<char> b(dev, 600), DeviceOutOfMemory);
  // The failed allocation must not leak accounting.
  EXPECT_EQ(dev.used_global_bytes(), 600u);
  DeviceBuffer<char> c(dev, 400);  // exactly fits
  EXPECT_EQ(dev.free_global_bytes(), 0u);
}

TEST(DeviceMemory, OutOfMemoryCarriesDetails) {
  Device dev(small_config(100), fast_options());
  try {
    DeviceBuffer<char> b(dev, 200);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested_bytes, 200u);
    EXPECT_EQ(e.used_bytes, 0u);
    EXPECT_EQ(e.capacity_bytes, 100u);
  }
}

TEST(DeviceMemory, PeakTracksHighWaterMark) {
  Device dev(small_config(1 << 20), fast_options());
  {
    DeviceBuffer<char> a(dev, 1000);
    { DeviceBuffer<char> b(dev, 2000); }
    DeviceBuffer<char> c(dev, 500);
  }
  const auto m = dev.metrics();
  EXPECT_EQ(m.peak_mem_bytes, 3000u);
  EXPECT_EQ(m.current_mem_bytes, 0u);
}

TEST(DeviceMemory, MoveTransfersOwnership) {
  Device dev(small_config(1 << 20), fast_options());
  DeviceBuffer<int> a(dev, 100);
  DeviceBuffer<int> b = std::move(a);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(dev.used_global_bytes(), 400u);
  a = std::move(b);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(dev.used_global_bytes(), 400u);
}

TEST(DeviceMemory, DefaultConfigModelsK20c) {
  const DeviceConfig cfg;
  EXPECT_EQ(cfg.global_mem_bytes, 5ull << 30);
  EXPECT_EQ(cfg.sm_count, 13);
  // Peak ~3.5 TFLOP/s single precision.
  EXPECT_NEAR(cfg.peak_flops(), 3.52e12, 0.1e12);
}

TEST(PinnedMemory, AllocationIsAccounted) {
  Device dev(small_config(1 << 20), fast_options());
  { PinnedBuffer<float> staging(dev, 1 << 16); }
  EXPECT_GT(dev.metrics().pinned_alloc_seconds, 0.0);
  // Pinned memory is host memory: device accounting untouched.
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

TEST(PinnedMemory, HostAccessible) {
  Device dev(small_config(1 << 20), fast_options());
  PinnedBuffer<int> buf(dev, 16);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf.data()[i] = static_cast<int>(i * i);
  }
  EXPECT_EQ(buf.span()[15], 225);
}

TEST(DeviceMemory, ResetMetricsKeepsCurrentUsage) {
  Device dev(small_config(1 << 20), fast_options());
  DeviceBuffer<char> a(dev, 100);
  dev.reset_metrics();
  const auto m = dev.metrics();
  EXPECT_EQ(m.current_mem_bytes, 100u);
  EXPECT_EQ(m.peak_mem_bytes, 100u);
  EXPECT_EQ(m.kernel_launches, 0u);
}

TEST(DeviceMemory, ZeroSizedBufferIsValid) {
  Device dev(small_config(1 << 20), fast_options());
  DeviceBuffer<int> buf(dev, 0);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

TEST(DeviceIndex, UploadsLandBeforeTheConstructorReturns) {
  // On a 50 ms link the index's three uploads are still queued long after
  // they were enqueued. The device copy must not return before they land:
  // destroying it with transfers in flight would free the buffers they
  // write into (a heap-use-after-free under ASan).
  DeviceConfig slow_link;
  slow_link.pcie_latency_us = 50'000.0;
  SimulationOptions opt = fast_options();
  opt.throttle_transfers = true;
  Device dev(slow_link, opt);
  const hdbscan::GridIndex index = hdbscan::build_grid_index(
      hdbscan::data::generate_uniform(2000, 5, 8.0f, 8.0f), 0.3f);
  cudasim::Stream stream(dev);
  {
    const hdbscan::gpu::GridDeviceIndex upload(dev, stream, index);
    EXPECT_EQ(dev.metrics().h2d_bytes, upload.upload_bytes());
  }  // destroyed without touching the stream
  EXPECT_EQ(dev.used_global_bytes(), 0u);
}

}  // namespace
