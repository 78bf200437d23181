// Result-set size estimation (paper §VI).
//
// A lightweight kernel counts the neighbors of a uniformly distributed
// sample of f * |D| points (f = 0.01). Because D is spatially sorted at
// index-build time, striding through D samples the space uniformly. The
// kernel returns only the count e_b — no result set, so it runs in
// negligible time — and the total is extrapolated as a_b = e_b / f.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cudasim/device.hpp"
#include "cudasim/metrics.hpp"
#include "gpu/kernels.hpp"
#include "index/grid_index.hpp"

namespace hdbscan {

struct ResultSizeEstimate {
  std::uint64_t sampled_pairs = 0;    ///< e_b, pairs found in the sample
  std::uint64_t estimated_total = 0;  ///< a_b = e_b / f
  std::uint32_t sample_stride = 1;
  /// True when the sample was a full census (stride 1): a_b is exact, so
  /// downstream consumers (e.g. the CSR builder's buffer sizing) know the
  /// alpha over-provision is pure headroom rather than variance cover.
  bool exact = false;
  cudasim::KernelStats kernel_stats;
};

/// Runs the count kernel over every `stride`-th point, stride = round(1/f).
/// `view` (GridView or GridView3) may point at host vectors or device
/// buffers.
template <typename View>
ResultSizeEstimate estimate_result_size(cudasim::Device& device,
                                        const View& view, float eps,
                                        double sample_fraction = 0.01,
                                        unsigned block_size = 256) {
  if (!(sample_fraction > 0.0) || sample_fraction > 1.0) {
    throw std::invalid_argument("estimate_result_size: fraction in (0, 1]");
  }
  ResultSizeEstimate est;
  est.sample_stride = static_cast<std::uint32_t>(
      std::max(1.0, std::round(1.0 / sample_fraction)));
  // Never stride past the whole dataset: tiny inputs fall back to a census.
  est.sample_stride = std::min<std::uint32_t>(
      est.sample_stride, std::max<std::uint32_t>(1, view.num_points));
  est.sampled_pairs = gpu::run_count_kernel(
      device, view, eps, est.sample_stride, &est.kernel_stats, block_size);
  est.estimated_total =
      est.sampled_pairs * static_cast<std::uint64_t>(est.sample_stride);
  est.exact = est.sample_stride == 1;
  return est;
}

}  // namespace hdbscan
