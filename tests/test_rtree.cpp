#include "index/rtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "data/generators.hpp"

namespace hdbscan {
namespace {

std::vector<PointId> brute_circle(std::span<const Point2> pts, const Point2& q,
                                  float eps) {
  std::vector<PointId> out;
  for (PointId i = 0; i < pts.size(); ++i) {
    if (dist2(q, pts[i]) <= eps * eps) out.push_back(i);
  }
  return out;
}

TEST(RTree, RejectsBadInput) {
  const std::vector<Point2> points{{0, 0}};
  EXPECT_THROW(RTree({}, 16), std::invalid_argument);
  EXPECT_THROW(RTree(points, 1), std::invalid_argument);
}

TEST(RTree, SinglePoint) {
  const std::vector<Point2> points{{1.0f, 2.0f}};
  const RTree tree(points);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  std::vector<PointId> out;
  tree.query_circle({1.0f, 2.0f}, 0.1f, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
  out.clear();
  tree.query_circle({5.0f, 5.0f}, 0.1f, out);
  EXPECT_TRUE(out.empty());
}

TEST(RTree, HeightGrowsLogarithmically) {
  const auto points = data::generate_uniform(10000, 3, 10.0f, 10.0f);
  const RTree tree(points, 16);
  // 10000 / 16 = 625 leaves; /16 = 40; /16 = 3; /16 = 1 -> height 4.
  EXPECT_EQ(tree.height(), 4u);
  EXPECT_GT(tree.node_count(), 625u);
}

class RTreeQueryProperty
    : public ::testing::TestWithParam<std::tuple<int, float, unsigned>> {};

TEST_P(RTreeQueryProperty, CircleMatchesBruteForce) {
  const auto [family, eps, capacity] = GetParam();
  const std::size_t n = 1200;
  const std::vector<Point2> points =
      family == 0
          ? data::generate_uniform(n, 91, 8.0f, 8.0f)
          : data::generate_space_weather(n, 92, {.width = 8.0f, .height = 8.0f});
  const RTree tree(points, capacity);
  std::vector<PointId> out;
  for (PointId q = 0; q < n; q += 53) {
    out.clear();
    tree.query_circle(points[q], eps, out);
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, brute_circle(points, points[q], eps));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeQueryProperty,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(0.1f, 0.5f, 1.5f),
                       ::testing::Values(2u, 8u, 16u, 64u)));

TEST(RTree, RectQueryMatchesBruteForce) {
  const auto points = data::generate_uniform(2000, 6, 10.0f, 10.0f);
  const RTree tree(points);
  const Rect2 rect{2.0f, 3.0f, 5.0f, 6.5f};
  std::vector<PointId> out;
  tree.query_rect(rect, out);
  std::sort(out.begin(), out.end());
  std::vector<PointId> expected;
  for (PointId i = 0; i < points.size(); ++i) {
    if (rect.contains(points[i])) expected.push_back(i);
  }
  EXPECT_EQ(out, expected);
}

TEST(RTree, QueryChargesAccumulator) {
  const auto points = data::generate_uniform(5000, 7, 10.0f, 10.0f);
  const RTree tree(points);
  TimeAccumulator acc;
  std::vector<PointId> out;
  for (int i = 0; i < 50; ++i) {
    out.clear();
    tree.query_circle(points[static_cast<std::size_t>(i) * 13], 0.5f, out,
                      &acc);
  }
  EXPECT_EQ(acc.count(), 50u);
  EXPECT_GT(acc.total_seconds(), 0.0);
}

TEST(RTree, DuplicatePoints) {
  std::vector<Point2> points(500, Point2{2.0f, 2.0f});
  const RTree tree(points);
  std::vector<PointId> out;
  tree.query_circle({2.0f, 2.0f}, 0.01f, out);
  EXPECT_EQ(out.size(), 500u);
}

TEST(RTree, EmptyResultOutsideExtent) {
  const auto points = data::generate_uniform(100, 8, 1.0f, 1.0f);
  const RTree tree(points);
  std::vector<PointId> out;
  tree.query_circle({50.0f, 50.0f}, 0.5f, out);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Build variants: incremental query equivalence
// ---------------------------------------------------------------------------

/// Guttman's incremental build packs a generally different — and worse —
/// tree, but every circle query must return exactly the same id set.
TEST(RTreeBuilds, IncrementalBuildAnswersIdentically) {
  const std::size_t n = 1500;
  for (const int family : {0, 1}) {
    SCOPED_TRACE("family " + std::to_string(family));
    const std::vector<Point2> points =
        family == 0 ? data::generate_uniform(n, 94, 8.0f, 8.0f)
                    : data::generate_space_weather(
                          n, 95, {.width = 8.0f, .height = 8.0f});
    const RTree str(points, 8, RTreeBuild::kStrSerial);
    const RTree incremental(points, 8, RTreeBuild::kIncremental);
    EXPECT_EQ(incremental.size(), n);
    std::vector<PointId> got, want;
    for (PointId q = 0; q < n; q += 37) {
      for (const float eps : {0.2f, 0.9f}) {
        got.clear();
        want.clear();
        incremental.query_circle(points[q], eps, got);
        str.query_circle(points[q], eps, want);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << "q=" << q << " eps=" << eps;
        EXPECT_EQ(got, brute_circle(points, points[q], eps));
      }
    }
  }
}

TEST(RTreeBuilds, IncrementalHandlesDuplicatesAndSinglePoint) {
  const std::vector<Point2> one{{1.0f, 1.0f}};
  const RTree single(one, 4, RTreeBuild::kIncremental);
  std::vector<PointId> out;
  single.query_circle({1.0f, 1.0f}, 0.1f, out);
  EXPECT_EQ(out.size(), 1u);

  // Coincident points force repeated linear splits of zero-area nodes.
  const std::vector<Point2> dupes(300, Point2{2.0f, 2.0f});
  const RTree tree(dupes, 4, RTreeBuild::kIncremental);
  out.clear();
  tree.query_circle({2.0f, 2.0f}, 0.01f, out);
  EXPECT_EQ(out.size(), 300u);
}

TEST(RTreeBuilds, RectQueriesAgreeAcrossBuilds) {
  const auto points = data::generate_uniform(2000, 96, 10.0f, 10.0f);
  const Rect2 rect{1.5f, 2.5f, 6.0f, 7.0f};
  std::vector<std::vector<PointId>> results;
  for (const RTreeBuild build :
       {RTreeBuild::kStrSerial, RTreeBuild::kIncremental}) {
    const RTree tree(points, 16, build);
    std::vector<PointId> out;
    tree.query_rect(rect, out);
    std::sort(out.begin(), out.end());
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_FALSE(results[0].empty());
}

}  // namespace
}  // namespace hdbscan
