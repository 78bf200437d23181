#include "gpu/gpu_dbscan.hpp"

#include <array>
#include <atomic>
#include <limits>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "cudasim/buffer.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/kernel.hpp"
#include "cudasim/sort.hpp"
#include "cudasim/stream.hpp"
#include "gpu/device_index.hpp"

namespace hdbscan::gpu {

namespace {

constexpr std::uint32_t kNoLabel = std::numeric_limits<std::uint32_t>::max();
constexpr unsigned kBlock = 256;

/// Kernel 1: core identification (thread per point).
struct CoreKernel {
  GridView view;
  float eps2;
  std::uint32_t required;
  std::uint8_t* core;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i = ctx.global_id();
    if (i >= view.num_points) return;
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2));
    std::uint32_t count = 0;
    std::array<std::uint32_t, 9> cells{};
    const unsigned n = get_neighbor_cells(
        view.params, view.params.linear_cell(point), cells);
    for (unsigned c = 0; c < n; ++c) {
      const CellRange range = view.cells[cells[c]];
      ctx.count_global_bytes(sizeof(CellRange) +
                             std::uint64_t(range.count()) * sizeof(Point2));
      ctx.count_flops(std::uint64_t(range.count()) * 6);
      for (PointId j = range.begin; j < range.end; ++j) {
        count += dist2(point, view.points[j]) <= eps2;
      }
    }
    core[i] = count >= required;
    ctx.count_global_bytes(1);
  }
};

/// Kernel 2: label seeding (core -> own id, else no label).
struct SeedKernel {
  const std::uint8_t* core;
  std::uint32_t* labels;
  std::uint32_t n;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i = ctx.global_id();
    if (i >= n) return;
    labels[i] = core[i] ? static_cast<std::uint32_t>(i) : kNoLabel;
    ctx.count_global_bytes(5);
  }
};

/// Kernel 3: one min-label propagation sweep over core-core edges plus a
/// pointer-jumping shortcut (labels are point ids, so label chasing
/// compresses chains — Shiloach-Vishkin style).
struct PropagateKernel {
  GridView view;
  float eps2;
  const std::uint8_t* core;
  std::uint32_t* labels;
  std::atomic<std::uint32_t>* changed;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i = ctx.global_id();
    if (i >= view.num_points || !core[i]) return;
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2) + 1);
    std::uint32_t best = label(i);
    std::array<std::uint32_t, 9> cells{};
    const unsigned n = get_neighbor_cells(
        view.params, view.params.linear_cell(point), cells);
    for (unsigned c = 0; c < n; ++c) {
      const CellRange range = view.cells[cells[c]];
      ctx.count_global_bytes(sizeof(CellRange) +
                             std::uint64_t(range.count()) *
                                 (sizeof(Point2) + 5));
      ctx.count_flops(std::uint64_t(range.count()) * 6);
      for (PointId j = range.begin; j < range.end; ++j) {
        if (!core[j] || dist2(point, view.points[j]) > eps2) continue;
        best = std::min(best, label(j));
      }
    }
    // Pointer jump: my label is a point id whose label may be smaller.
    best = std::min(best, label(best));
    ctx.count_global_bytes(sizeof(std::uint32_t));
    if (best < label(i)) {
      // Atomic min via CAS (the simulator's global-memory atomic).
      std::atomic_ref<std::uint32_t> slot(labels[i]);
      std::uint32_t cur = slot.load(std::memory_order_relaxed);
      while (best < cur &&
             !slot.compare_exchange_weak(cur, best,
                                         std::memory_order_relaxed)) {
      }
      ctx.count_atomic();
      changed->store(1, std::memory_order_relaxed);
    }
  }

  /// Label k, which its own thread may be lowering concurrently: a relaxed
  /// atomic load, like the CAS that lowers it.
  [[nodiscard]] std::uint32_t label(std::uint64_t k) const {
    return std::atomic_ref<std::uint32_t>(labels[k]).load(
        std::memory_order_relaxed);
  }
};

/// Kernel 4: border assignment (smallest core neighbor's label).
struct BorderKernel {
  GridView view;
  float eps2;
  const std::uint8_t* core;
  std::uint32_t* labels;

  void operator()(cudasim::ThreadCtx& ctx) const {
    const std::uint64_t i = ctx.global_id();
    if (i >= view.num_points || core[i]) return;
    const Point2 point = view.points[i];
    ctx.count_global_bytes(sizeof(Point2) + 1);
    std::uint32_t best = kNoLabel;
    std::array<std::uint32_t, 9> cells{};
    const unsigned n = get_neighbor_cells(
        view.params, view.params.linear_cell(point), cells);
    for (unsigned c = 0; c < n; ++c) {
      const CellRange range = view.cells[cells[c]];
      ctx.count_global_bytes(sizeof(CellRange) +
                             std::uint64_t(range.count()) *
                                 (sizeof(Point2) + 5));
      ctx.count_flops(std::uint64_t(range.count()) * 6);
      for (PointId j = range.begin; j < range.end; ++j) {
        if (!core[j] || dist2(point, view.points[j]) > eps2) continue;
        best = std::min(best, labels[j]);
      }
    }
    labels[i] = best;
    ctx.count_global_bytes(sizeof(std::uint32_t));
  }
};

}  // namespace

ClusterResult gpu_dbscan(cudasim::Device& device, const GridIndex& index,
                         float eps, int minpts, GpuDbscanReport* report) {
  hdbscan::WallTimer wall;
  GpuDbscanReport local;

  cudasim::Stream stream(device);
  GridDeviceIndex device_index(device, stream, index);
  const GridView view = device_index.view();
  const std::uint32_t n = view.num_points;
  const unsigned grid_dim = (n + kBlock - 1) / kBlock;
  const float eps2 = eps * eps;

  local.modeled_seconds += cudasim::modeled_transfer_seconds(
      device.config(), device_index.upload_bytes(), false);

  cudasim::DeviceBuffer<std::uint8_t> core(device, n);
  cudasim::DeviceBuffer<std::uint32_t> labels(device, n);

  auto stats = cudasim::run_flat_kernel(
      device, grid_dim, kBlock,
      CoreKernel{view, eps2, static_cast<std::uint32_t>(minpts),
                 core.device_data()});
  local.modeled_seconds += stats.modeled_seconds;

  stats = cudasim::run_flat_kernel(
      device, grid_dim, kBlock,
      SeedKernel{core.device_data(), labels.device_data(), n});
  local.modeled_seconds += stats.modeled_seconds;

  // Iterated min-label propagation until fixpoint.
  std::atomic<std::uint32_t> changed{1};
  while (changed.load(std::memory_order_relaxed) != 0) {
    changed.store(0, std::memory_order_relaxed);
    stats = cudasim::run_flat_kernel(
        device, grid_dim, kBlock,
        PropagateKernel{view, eps2, core.device_data(), labels.device_data(),
                        &changed});
    local.modeled_seconds += stats.modeled_seconds;
    ++local.propagation_iterations;
  }

  stats = cudasim::run_flat_kernel(
      device, grid_dim, kBlock,
      BorderKernel{view, eps2, core.device_data(), labels.device_data()});
  local.modeled_seconds += stats.modeled_seconds;

  // Only the labels cross the bus — through pooled pinned staging, so the
  // transfer runs at the page-locked rate and the lock cost amortizes
  // across calls on the same device.
  cudasim::PooledPinnedBuffer<std::uint32_t> label_staging(device, n);
  device.blocking_transfer(label_staging.data(), labels.device_data(),
                           n * sizeof(std::uint32_t), /*to_device=*/false,
                           /*pinned_host=*/true);
  const std::span<const std::uint32_t> host_labels = label_staging.span();
  local.d2h_bytes = n * sizeof(std::uint32_t);
  local.modeled_seconds +=
      cudasim::modeled_transfer_seconds(device.config(), local.d2h_bytes,
                                        true);
  if (label_staging.fresh()) {
    local.modeled_seconds += cudasim::modeled_pinned_alloc_seconds(
        device.config(), local.d2h_bytes);
  }

  // Host: renumber component representatives into dense cluster ids.
  ClusterResult result;
  result.labels.assign(n, kNoise);
  std::vector<std::int32_t> rep_label(n, -1);
  std::int32_t next_cluster = 0;
  const auto core_view = core.unsafe_host_view();
  for (std::uint32_t i = 0; i < n; ++i) {
    local.core_points += core_view[i];
    const std::uint32_t rep = host_labels[i];
    if (rep == kNoLabel) continue;  // noise
    if (rep_label[rep] < 0) rep_label[rep] = next_cluster++;
    result.labels[i] = rep_label[rep];
  }
  result.num_clusters = next_cluster;

  result.finalize_noise_count();
  local.wall_seconds = wall.seconds();
  if (report != nullptr) *report = local;
  return result;
}

}  // namespace hdbscan::gpu
