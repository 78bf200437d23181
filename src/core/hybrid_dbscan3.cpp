#include "core/hybrid_dbscan3.hpp"

#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/hybrid_dbscan.hpp"
#include "cudasim/buffer.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/sort.hpp"
#include "cudasim/stream.hpp"
#include "dbscan/dbscan.hpp"
#include "gpu/kernels.hpp"
#include "gpu/result_sink.hpp"

namespace hdbscan {

namespace {

/// D, G and A on the device, uploaded by the constructor (pageable host
/// memory); the stream drains before a failed upload frees a buffer.
struct DeviceGrid3 {
  DeviceGrid3(cudasim::Device& device, const GridIndex3& index)
      : points(device, index.points.size()),
        cells(device, index.cells.size()),
        lookup(device, index.lookup.size()),
        view{index.params, points.device_data(),
             static_cast<std::uint32_t>(index.points.size()),
             cells.device_data(), lookup.device_data()} {
    cudasim::Stream stream(device);
    stream.memcpy_to_device(points, index.points.data(), index.points.size());
    stream.memcpy_to_device(cells, index.cells.data(), index.cells.size());
    stream.memcpy_to_device(lookup, index.lookup.data(), index.lookup.size());
    stream.synchronize();
  }

  [[nodiscard]] double upload_seconds(const cudasim::Device& device) const {
    return cudasim::modeled_transfer_seconds(
        device.config(), points.bytes() + cells.bytes() + lookup.bytes(),
        /*pinned=*/false);
  }

  cudasim::DeviceBuffer<Point3> points;
  cudasim::DeviceBuffer<CellRange> cells;
  cudasim::DeviceBuffer<PointId> lookup;
  const GridView3 view;
};

}  // namespace

NeighborTable build_neighbor_table_host3(const GridIndex3& index, float eps) {
  NeighborTable table(index.size());
  std::vector<PointId> neighbors;
  std::vector<NeighborPair> pairs;
  for (PointId i = 0; i < index.size(); ++i) {
    grid_query3(index, index.points[i], eps, neighbors);
    pairs.clear();
    for (const PointId v : neighbors) pairs.push_back({i, v});
    table.append_sorted_batch(pairs);
  }
  return table;
}

NeighborTable build_neighbor_table_device3(cudasim::Device& device,
                                           const GridIndex3& index, float eps,
                                           Build3Report* report,
                                           ScanMode mode) {
  WallTimer total_timer;
  Build3Report local;

  const DeviceGrid3 grid(device, index);
  local.modeled_table_seconds += grid.upload_seconds(device);

  // Two-pass CSR build, single batch: count per point, scan to exact
  // offsets, fill straight into the slots. No device sort, no pair keys on
  // the wire — only the offsets array and the bare neighbor ids go D2H.
  const auto npts = static_cast<std::uint32_t>(index.points.size());
  cudasim::PooledDeviceBuffer<std::uint32_t> d_counts(
      device, std::max<std::uint32_t>(1, npts));
  cudasim::KernelStats stats = gpu::run_count_batch(
      device, grid.view, eps, {}, d_counts.device_data(), mode);
  local.modeled_table_seconds += stats.modeled_seconds;
  local.kernel_flops += stats.work.flops;

  const std::uint64_t pairs = cudasim::exclusive_scan(device, d_counts, npts);
  local.modeled_table_seconds += cudasim::modeled_scan_seconds(
      device.config(), npts * sizeof(std::uint32_t));

  cudasim::PooledDeviceBuffer<PointId> d_values(
      device, std::max<std::uint64_t>(1, pairs));
  stats = gpu::run_fill_csr(
      device, grid.view, eps, {}, d_counts.device_data(),
      static_cast<std::uint32_t>(pairs), d_values.device_data(), mode);
  local.modeled_table_seconds += stats.modeled_seconds;
  local.kernel_flops += stats.work.flops;

  const std::uint64_t offset_bytes = npts * sizeof(std::uint32_t);
  const std::uint64_t value_bytes = pairs * sizeof(PointId);
  cudasim::PooledPinnedBuffer<std::uint32_t> offsets_staging(device, npts);
  cudasim::PooledPinnedBuffer<PointId> values_staging(device, pairs);
  device.blocking_transfer(offsets_staging.data(), d_counts.device_data(),
                           offset_bytes, false, true);
  device.blocking_transfer(values_staging.data(), d_values.device_data(),
                           value_bytes, false, true);
  local.modeled_table_seconds +=
      cudasim::modeled_transfer_seconds(device.config(), offset_bytes, true) +
      cudasim::modeled_transfer_seconds(device.config(), value_bytes, true);
  // Page-lock cost only for staging the pool had to freshly pin.
  std::uint64_t fresh_pinned = 0;
  if (offsets_staging.fresh()) fresh_pinned += offset_bytes;
  if (values_staging.fresh()) fresh_pinned += value_bytes;
  local.modeled_table_seconds +=
      cudasim::modeled_pinned_alloc_seconds(device.config(), fresh_pinned);

  NeighborTable table(index.size());
  table.reserve_values(pairs);
  ThreadCpuTimer append_timer;
  table.append_csr_batch(0, 1, {offsets_staging.data(), npts},
                         {values_staging.data(), pairs});
  local.modeled_table_seconds += append_timer.seconds();

  if (mode == ScanMode::kHalf) {
    // The single batch holds forward rows; assembling it restores the
    // back rows.
    std::vector<NeighborTable> parts;
    parts.push_back(std::exchange(table, NeighborTable(index.size())));
    local.expand_seconds = table.assemble(
        std::move(parts), /*expand_half=*/true,
        static_cast<unsigned>(std::max(1, device.config().host_cores)));
    local.modeled_table_seconds += local.expand_seconds;
  }

  local.total_pairs = table.total_pairs();
  local.table_seconds = total_timer.seconds();
  if (report != nullptr) *report = local;
  return table;
}

ClusterResult hybrid_dbscan3(cudasim::Device& device,
                             std::span<const Point3> points, float eps,
                             int minpts, Build3Report* report,
                             ScanMode mode) {
  const GridIndex3 index = build_grid_index3(points, eps);
  const NeighborTable table =
      build_neighbor_table_device3(device, index, eps, report, mode);
  return unmap_labels(dbscan_neighbor_table(table, minpts),
                      index.original_ids);
}

ClusterResult fused_dbscan3(cudasim::Device& device,
                            std::span<const Point3> points, float eps,
                            int minpts, Build3Report* report,
                            ScanMode mode) {
  WallTimer total_timer;
  Build3Report local;
  const GridIndex3 index = build_grid_index3(points, eps);

  // D, G, A are the only device-resident state the fused passes need;
  // no CSR values, no staging.
  const DeviceGrid3 grid(device, index);
  local.modeled_table_seconds += grid.upload_seconds(device);

  // Two passes as one batch: exact degrees under kFull (the 2-D path
  // caps them), stored straight into the consumer, then unions and
  // border keys under `mode`. Nothing crosses the bus.
  StreamingDbscan consumer(index.size(), minpts);
  std::vector<std::uint32_t> counts(index.size());
  cudasim::KernelStats stats = gpu::run_count_batch(
      device, grid.view, eps, {}, counts.data(), ScanMode::kFull);
  const StreamingDbscan::FusedView view = consumer.fused_view();
  for (PointId i = 0; i < index.size(); ++i) {
    view.degree[i].store(counts[i], std::memory_order_relaxed);
  }
  local.modeled_table_seconds += stats.modeled_seconds;
  local.kernel_flops += stats.work.flops;
  stats = gpu::run_fused_batch(device, grid.view, eps, {},
                               gpu::FusedPass::kUnion, consumer, mode);
  local.modeled_table_seconds += stats.modeled_seconds;
  local.kernel_flops += stats.work.flops;

  const ClusterResult indexed = consumer.finalize();
  local.total_pairs = consumer.cross_pairs();
  local.table_seconds = total_timer.seconds();
  if (report != nullptr) *report = local;
  return unmap_labels(indexed, index.original_ids);
}

}  // namespace hdbscan
