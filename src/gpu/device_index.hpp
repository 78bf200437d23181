// Device-resident copy of the grid index (D, G and the schedule S are
// stored in global memory on the GPU — paper §IV), for either point type.
// Ids are positions in D, so there is no lookup array A to upload.
#pragma once

#include <cstdint>
#include <vector>

#include "cudasim/buffer.hpp"
#include "cudasim/stream.hpp"
#include "index/grid_index.hpp"

namespace hdbscan::gpu {

template <typename Point>
class BasicGridDeviceIndex {
 public:
  /// Allocates device buffers and uploads the index on `stream` (pageable
  /// host memory — the index is uploaded once per epsilon), then
  /// synchronizes `stream`: the copy is resident when the constructor
  /// returns, and no queued transfer outlives the buffers it writes.
  /// `sub_cells`, the index's sub-cell runs (the fused union pass reads
  /// them), go up with it when given and not empty.
  BasicGridDeviceIndex(cudasim::Device& device, cudasim::Stream& stream,
                       const BasicGridIndex<Point>& host_index,
                       const SubCells* sub_cells = nullptr)
      : params_(host_index.params),
        num_points_(static_cast<std::uint32_t>(host_index.points.size())),
        num_nonempty_(
            static_cast<std::uint32_t>(host_index.nonempty_cells.size())),
        max_cell_occupancy_(host_index.max_cell_occupancy),
        points_(device, host_index.points.size()),
        cells_(device, host_index.cells.size()),
        schedule_(device, host_index.nonempty_cells.size()) {
    stream.memcpy_to_device(points_, host_index.points.data(),
                            host_index.points.size());
    stream.memcpy_to_device(cells_, host_index.cells.data(),
                            host_index.cells.size());
    stream.memcpy_to_device(schedule_, host_index.nonempty_cells.data(),
                            host_index.nonempty_cells.size());
    // No allocation at all without runs — a zero-byte buffer would still
    // consume a fault-injection op and shift scripted plans.
    if (sub_cells != nullptr) {
      upload_optional(device, stream, sub_order_, sub_cells->order);
      upload_optional(device, stream, sub_bounds_, sub_cells->bounds);
    }
    stream.synchronize();
  }

  [[nodiscard]] BasicGridView<Point> view() const noexcept {
    return {params_,
            points_.device_data(),
            num_points_,
            cells_.device_data(),
            sub_order_.empty() ? nullptr : sub_order_.device_data(),
            sub_bounds_.empty() ? nullptr : sub_bounds_.device_data()};
  }

  [[nodiscard]] const std::uint32_t* schedule() const noexcept {
    return schedule_.device_data();
  }

  [[nodiscard]] std::uint32_t num_nonempty_cells() const noexcept {
    return num_nonempty_;
  }

  [[nodiscard]] std::uint32_t max_cell_occupancy() const noexcept {
    return max_cell_occupancy_;
  }

  [[nodiscard]] std::uint32_t num_points() const noexcept {
    return num_points_;
  }

  /// Bytes shipped over PCIe by the constructor's uploads (the fixed
  /// modeled cost the planner attributes to the index).
  [[nodiscard]] std::size_t upload_bytes() const noexcept {
    return points_.bytes() + cells_.bytes() + schedule_.bytes() +
           sub_order_.bytes() + sub_bounds_.bytes();
  }

 private:
  /// Allocates and uploads `host` into `buffer` unless it is empty.
  template <typename T>
  static void upload_optional(cudasim::Device& device,
                              cudasim::Stream& stream,
                              cudasim::DeviceBuffer<T>& buffer,
                              const std::vector<T>& host) {
    if (host.empty()) return;
    try {
      buffer = cudasim::DeviceBuffer<T>(device, host.size());
    } catch (...) {
      // Drain the queued uploads before the unwind frees their buffers;
      // the allocation's error is the one reported.
      try {
        stream.synchronize();
      } catch (...) {
      }
      throw;
    }
    stream.memcpy_to_device(buffer, host.data(), host.size());
  }

  BasicGridParams<Point> params_;
  std::uint32_t num_points_;
  std::uint32_t num_nonempty_;
  std::uint32_t max_cell_occupancy_;
  cudasim::DeviceBuffer<Point> points_;
  cudasim::DeviceBuffer<CellRange> cells_;
  cudasim::DeviceBuffer<std::uint32_t> schedule_;
  cudasim::DeviceBuffer<PointId> sub_order_;          ///< may be empty
  cudasim::DeviceBuffer<std::uint32_t> sub_bounds_;   ///< may be empty
};

using GridDeviceIndex = BasicGridDeviceIndex<Point2>;

}  // namespace hdbscan::gpu
