// Packed BVH index (IndexBackend::kBvh): structural invariants of the
// LBVH-style bottom-up packing, query equivalence against brute force,
// the id-ownership rule behind ScanMode::kHalf tree traversal, the device
// upload round-trip, and table equivalence against the grid backend.
#include "index/bvh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/neighbor_table_builder.hpp"
#include "cudasim/device.hpp"
#include "cudasim/stream.hpp"
#include "data/generators.hpp"
#include "dbscan/neighbor_table.hpp"
#include "gpu/bvh_device_index.hpp"
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

std::vector<PointId> brute_circle(std::span<const Point2> pts, const Point2& q,
                                  float eps) {
  std::vector<PointId> out;
  for (PointId i = 0; i < pts.size(); ++i) {
    if (dist2(q, pts[i]) <= eps * eps) out.push_back(i);
  }
  return out;
}

TEST(Bvh, RejectsBadInput) {
  const std::vector<Point2> points{{0, 0}};
  EXPECT_THROW(build_bvh_index({}), std::invalid_argument);
  EXPECT_THROW(build_bvh_index(points, 1), std::invalid_argument);
  EXPECT_THROW(build_bvh_index(points, 16, 1), std::invalid_argument);
}

TEST(Bvh, SinglePoint) {
  const std::vector<Point2> points{{1.0f, 2.0f}};
  const BvhIndex index = build_bvh_index(points);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.height, 1u);
  std::vector<PointId> out;
  bvh_query(index, {1.0f, 2.0f}, 0.1f, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
  out.clear();
  bvh_query(index, {5.0f, 5.0f}, 0.1f, out);
  EXPECT_TRUE(out.empty());
}

/// Every node's MBR must contain its subtree, children must be packed
/// contiguously, max_id must be the true subtree maximum (the kHalf prune
/// key), and the leaves must partition the id space exactly once.
TEST(Bvh, PackedStructureInvariants) {
  const auto points = data::generate_space_weather(
      3000, 31, {.width = 10.0f, .height = 10.0f});
  const BvhIndex index = build_bvh_index(points, 8, 4);
  ASSERT_LT(index.root, index.nodes.size());

  std::vector<std::uint32_t> seen(points.size(), 0);
  std::vector<std::uint32_t> stack{index.root};
  while (!stack.empty()) {
    const BvhNode& node = index.nodes[stack.back()];
    stack.pop_back();
    ASSERT_GT(node.count, 0u);
    if (node.leaf != 0) {
      ASSERT_LE(node.first + node.count, index.leaf_ids.size());
      std::uint32_t max_id = 0;
      for (std::uint32_t k = node.first; k < node.first + node.count; ++k) {
        const PointId id = index.leaf_ids[k];
        ASSERT_LT(id, points.size());
        ++seen[id];
        max_id = std::max<std::uint32_t>(max_id, id);
        // The leaf-packed point copy must match the id-ordered array, and
        // sit inside the leaf MBR.
        EXPECT_EQ(index.leaf_points[k].x, index.points[id].x);
        EXPECT_EQ(index.leaf_points[k].y, index.points[id].y);
        EXPECT_TRUE(node.mbr.contains(index.leaf_points[k]));
      }
      EXPECT_EQ(node.max_id, max_id);
    } else {
      ASSERT_LE(node.first + node.count, index.nodes.size());
      std::uint32_t max_id = 0;
      for (std::uint32_t c = node.first; c < node.first + node.count; ++c) {
        const BvhNode& child = index.nodes[c];
        EXPECT_LE(node.mbr.min_x, child.mbr.min_x);
        EXPECT_LE(node.mbr.min_y, child.mbr.min_y);
        EXPECT_GE(node.mbr.max_x, child.mbr.max_x);
        EXPECT_GE(node.mbr.max_y, child.mbr.max_y);
        max_id = std::max(max_id, child.max_id);
        stack.push_back(c);
      }
      EXPECT_EQ(node.max_id, max_id);
    }
  }
  for (const std::uint32_t count : seen) EXPECT_EQ(count, 1u);
}

class BvhQueryProperty
    : public ::testing::TestWithParam<std::tuple<int, float, unsigned>> {};

TEST_P(BvhQueryProperty, CircleMatchesBruteForce) {
  const auto [family, eps, capacity] = GetParam();
  const std::size_t n = 1200;
  const std::vector<Point2> points =
      family == 0
          ? data::generate_uniform(n, 33, 8.0f, 8.0f)
          : data::generate_space_weather(n, 34, {.width = 8.0f, .height = 8.0f});
  const BvhIndex index = build_bvh_index(points, capacity);
  std::vector<PointId> out;
  for (PointId q = 0; q < n; q += 47) {
    out.clear();
    bvh_query(index, points[q], eps, out);
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, brute_circle(points, points[q], eps));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BvhQueryProperty,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(0.1f, 0.5f, 1.5f),
                       ::testing::Values(2u, 8u, 16u, 64u)));

/// The kHalf id-ownership rule: row i owns exactly the in-range candidates
/// with id >= i. The union of forward rows, transposed, must reconstruct
/// every full eps-neighborhood with each cross pair appearing exactly once
/// — the half-expansion contract the fused and CSR paths rely on.
TEST(Bvh, ForwardQueryCoversEachPairExactlyOnce) {
  const float eps = 0.45f;
  const auto points = data::generate_space_weather(
      1500, 35, {.width = 8.0f, .height = 8.0f});
  const BvhIndex index = build_bvh_index(points, 8);

  std::vector<std::vector<PointId>> full(points.size());
  std::vector<PointId> out;
  for (PointId q = 0; q < points.size(); ++q) {
    out.clear();
    bvh_query_forward(index, q, eps, out);
    bool found_self = false;
    for (const PointId v : out) {
      ASSERT_GE(v, q) << "forward row " << q << " emitted a backward id";
      found_self |= (v == q);
      full[q].push_back(v);
      if (v != q) full[v].push_back(q);  // transpose the cross pair
    }
    EXPECT_TRUE(found_self) << "row " << q << " missing its own point";
  }
  for (PointId q = 0; q < points.size(); ++q) {
    std::sort(full[q].begin(), full[q].end());
    // Exactly-once: a doubled cross pair would surface as a duplicate id.
    EXPECT_EQ(full[q], brute_circle(points, points[q], eps))
        << "reconstructed neighborhood of " << q << " diverges";
  }
}

TEST(Bvh, DuplicatePointsAllFoundOnce) {
  std::vector<Point2> points(500, Point2{2.0f, 2.0f});
  const BvhIndex index = build_bvh_index(points);
  std::vector<PointId> out;
  bvh_query(index, {2.0f, 2.0f}, 0.01f, out);
  EXPECT_EQ(out.size(), 500u);
  // Forward rows under the id rule: row i sees the 500 - i larger ids.
  out.clear();
  bvh_query_forward(index, 499, 0.01f, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 499u);
}

TEST(Bvh, BuildIsDeterministic) {
  const auto points = data::generate_uniform(2000, 36, 9.0f, 9.0f);
  const BvhIndex a = build_bvh_index(points, 16, 4);
  const BvhIndex b = build_bvh_index(points, 16, 4);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(a.leaf_ids, b.leaf_ids);
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].first, b.nodes[i].first);
    EXPECT_EQ(a.nodes[i].count, b.nodes[i].count);
    EXPECT_EQ(a.nodes[i].max_id, b.nodes[i].max_id);
    EXPECT_EQ(a.nodes[i].leaf, b.nodes[i].leaf);
  }
}

/// Device round-trip: the uploaded view must answer exactly like the host
/// index (the simulator's buffers are addressable host memory, so the
/// view's pointers can be walked directly).
TEST(Bvh, DeviceUploadRoundTripsTheView) {
  const auto points = data::generate_uniform(800, 37, 6.0f, 6.0f);
  const BvhIndex host = build_bvh_index(points, 8);
  cudasim::Device device({}, fast_options());
  cudasim::Stream stream(device);
  const gpu::BvhDeviceIndex uploaded(device, stream, host);
  stream.synchronize();

  const BvhView view = uploaded.view();
  EXPECT_EQ(view.num_nodes, host.nodes.size());
  EXPECT_EQ(view.num_points, host.points.size());
  EXPECT_EQ(view.root, host.root);
  EXPECT_GT(uploaded.upload_bytes(), 0u);
  for (std::uint32_t i = 0; i < view.num_nodes; ++i) {
    EXPECT_EQ(view.nodes[i].first, host.nodes[i].first);
    EXPECT_EQ(view.nodes[i].count, host.nodes[i].count);
    EXPECT_EQ(view.nodes[i].leaf, host.nodes[i].leaf);
  }
  for (std::uint32_t i = 0; i < view.num_points; ++i) {
    EXPECT_EQ(view.leaf_ids[i], host.leaf_ids[i]);
    EXPECT_EQ(view.points[i].x, host.points[i].x);
  }
}

/// Backend equivalence at the table layer: a BVH-backed device build must
/// produce a table byte-identical (after canonicalize) to the grid host
/// oracle — same id space, same pair cover, different traversal.
TEST(Bvh, DeviceTableMatchesGridOracleAcrossScanModes) {
  const float eps = 0.4f;
  const auto points = data::generate_space_weather(
      2000, 38, {.width = 10.0f, .height = 10.0f});
  const GridIndex index = build_grid_index(points, eps);
  NeighborTable oracle = build_neighbor_table_host(index, eps);
  oracle.canonicalize();

  cudasim::Device device({}, fast_options());
  for (const ScanMode scan : {ScanMode::kHalf, ScanMode::kFull}) {
    SCOPED_TRACE(scan == ScanMode::kHalf ? "kHalf" : "kFull");
    BatchPolicy policy;
    policy.index_backend = IndexBackend::kBvh;
    policy.scan_mode = scan;
    NeighborTableBuilder builder(device, policy);
    BuildReport report;
    NeighborTable table = builder.build(index, eps, &report);
    table.canonicalize();
    EXPECT_TRUE(table.identical_to(oracle));
    EXPECT_EQ(report.index_backend, IndexBackend::kBvh);
    EXPECT_EQ(report.total_pairs, oracle.total_pairs());
  }
}

}  // namespace
}  // namespace hdbscan
