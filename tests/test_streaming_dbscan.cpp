// Streaming DBSCAN (intra-variant overlap): the union-find consumer that
// ingests CSR batches on the builder's stream threads must produce a
// clustering equivalent to batch DBSCAN over the materialized table —
// including under randomized fault plans, where retried / split / failed-
// over batches must be delivered exactly once (checked via degree parity
// against the host oracle).
#include "dbscan/streaming_dbscan.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/hybrid_dbscan.hpp"
#include "core/neighbor_table_builder.hpp"
#include "core/pipeline.hpp"
#include "core/reuse.hpp"
#include "cudasim/fault.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan_parallel.hpp"
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

cudasim::SimulationOptions faulted_options(cudasim::FaultPlan plan) {
  cudasim::SimulationOptions opt = fast_options();
  opt.fault = std::make_shared<cudasim::FaultInjector>(std::move(plan));
  return opt;
}

struct Scenario {
  std::vector<Point2> points;
  GridIndex index;
  NeighborTable oracle;  ///< full symmetric table, index point order
  float eps = 0.0f;
};

Scenario make_scenario(std::size_t n, float eps, std::uint64_t seed) {
  Scenario s;
  s.eps = eps;
  s.points = data::generate_space_weather(
      n, seed, {.width = 10.0f, .height = 10.0f});
  s.index = build_grid_index(s.points, eps);
  s.oracle = build_neighbor_table_host(s.index, eps);
  return s;
}

/// Many small batches so deliveries interleave across streams (and faults
/// reliably land mid-build).
BatchPolicy many_batch_policy(const Scenario& s, ScanMode scan) {
  BatchPolicy policy;
  policy.scan_mode = scan;
  policy.estimated_total_override = s.oracle.total_pairs();
  policy.static_threshold_pairs = 1;
  policy.static_buffer_pairs =
      std::max<std::uint64_t>(1, s.oracle.total_pairs() / 12);
  return policy;
}

/// Streams a build into a StreamingDbscan and checks the result against
/// batch DBSCAN over the oracle table, plus exactly-once degree parity.
void expect_streaming_equivalent(NeighborTableBuilder& builder,
                                 const Scenario& s, int minpts) {
  StreamingDbscan consumer(s.index.size(), minpts);
  BuildReport report;
  builder.build(s.index, s.eps, &report, &consumer,
                /*materialize_table=*/false);
  EXPECT_TRUE(report.streamed);
  EXPECT_FALSE(report.table_materialized);
  EXPECT_GT(report.sink_batches, 0u);

  // Exactly-once: every retry / split / failover path must deliver each
  // row's contribution once. Any drop or double-delivery skews a degree.
  for (PointId i = 0; i < s.index.size(); ++i) {
    ASSERT_EQ(consumer.degree(i), s.oracle.neighbor_count(i))
        << "degree mismatch at point " << i;
  }

  const ClusterResult got = consumer.finalize();
  const ClusterResult want = dbscan_parallel(s.oracle, minpts);
  const auto outcome = compare_clusterings(got, want, s.oracle, minpts);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
  // One border rule and one numbering: the very same label vector.
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.noise_count(), want.noise_count());
  EXPECT_EQ(consumer.stats().edges_seen,
            consumer.stats().edges_streamed + consumer.stats().edges_deferred);
}

class StreamingScanMode : public ::testing::TestWithParam<ScanMode> {};

TEST_P(StreamingScanMode, EquivalentToBatchDbscan) {
  const Scenario s = make_scenario(2500, 0.35f, 91);
  cudasim::Device device({}, fast_options());
  NeighborTableBuilder builder(device, many_batch_policy(s, GetParam()));
  expect_streaming_equivalent(builder, s, 4);
}

TEST_P(StreamingScanMode, EquivalentAcrossMinpts) {
  const Scenario s = make_scenario(1800, 0.3f, 92);
  cudasim::Device device({}, fast_options());
  for (const int minpts : {1, 2, 8, 40}) {
    NeighborTableBuilder builder(device, many_batch_policy(s, GetParam()));
    expect_streaming_equivalent(builder, s, minpts);
  }
}

TEST_P(StreamingScanMode, EquivalentUnderRandomizedFaultPlans) {
  const Scenario s = make_scenario(2000, 0.35f, 93);
  BatchPolicy policy = many_batch_policy(s, GetParam());
  policy.resilience.host_fallback = true;  // survive whatever the plan stacks
  for (const std::uint64_t seed : {11ull, 23ull, 37ull, 58ull}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    cudasim::Device dev0(
        {}, faulted_options(cudasim::FaultPlan::randomized(seed)));
    cudasim::Device dev1(
        {}, faulted_options(cudasim::FaultPlan::randomized(seed + 1000)));
    NeighborTableBuilder builder({&dev0, &dev1}, policy);
    expect_streaming_equivalent(builder, s, 4);
  }
}

TEST_P(StreamingScanMode, EquivalentUnderDeviceLossFailover) {
  const Scenario s = make_scenario(2500, 0.35f, 94);
  BatchPolicy policy = many_batch_policy(s, GetParam());
  cudasim::FaultPlan lost;
  lost.lost_at_op = 25;
  cudasim::Device dev0({}, fast_options());
  cudasim::Device dev1({}, faulted_options(lost));
  NeighborTableBuilder builder({&dev0, &dev1}, policy);
  expect_streaming_equivalent(builder, s, 4);
}

TEST_P(StreamingScanMode, EquivalentUnderHostFallback) {
  const Scenario s = make_scenario(1500, 0.3f, 95);
  BatchPolicy policy = many_batch_policy(s, GetParam());
  policy.resilience.host_fallback = true;
  cudasim::FaultPlan lost;
  lost.lost_at_op = 20;  // sole device dies -> host drain delivers the rows
  cudasim::Device device({}, faulted_options(lost));
  NeighborTableBuilder builder(device, policy);
  expect_streaming_equivalent(builder, s, 4);
}

INSTANTIATE_TEST_SUITE_P(ScanModes, StreamingScanMode,
                         ::testing::Values(ScanMode::kHalf, ScanMode::kFull));

TEST(StreamingDbscan, SinkAndMaterializedTableCanCoexist) {
  // materialize_table=true with a sink: the caller gets T *and* the
  // streamed labels (the reuse scheme's OPTICS-style callers need both).
  const Scenario s = make_scenario(1200, 0.3f, 96);
  cudasim::Device device({}, fast_options());
  NeighborTableBuilder builder(device,
                               many_batch_policy(s, ScanMode::kHalf));
  StreamingDbscan consumer(s.index.size(), 4);
  BuildReport report;
  NeighborTable table =
      builder.build(s.index, s.eps, &report, &consumer,
                    /*materialize_table=*/true);
  EXPECT_TRUE(report.table_materialized);
  table.canonicalize();
  NeighborTable want = s.oracle;
  want.canonicalize();
  EXPECT_TRUE(table.identical_to(want));
  const ClusterResult got = consumer.finalize();
  const ClusterResult banded = dbscan_parallel(s.oracle, 4);
  const auto outcome = compare_clusterings(got, banded, s.oracle, 4);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
  EXPECT_EQ(got.labels, banded.labels);
}

TEST(StreamingDbscan, RejectsBadArgs) {
  const Scenario s = make_scenario(300, 0.3f, 97);
  cudasim::Device device({}, fast_options());
  // No sink and no table: nothing to produce.
  NeighborTableBuilder csr(device, many_batch_policy(s, ScanMode::kHalf));
  EXPECT_THROW(csr.build(s.index, s.eps, nullptr, nullptr, false),
               std::invalid_argument);
  EXPECT_THROW(StreamingDbscan(10, 0), std::invalid_argument);
  StreamingDbscan done(4, 1);
  (void)done.finalize();
  EXPECT_THROW((void)done.finalize(), std::logic_error);
}

TEST(StreamingDbscan, HybridStreamingModeMatchesBatchMode) {
  const auto points = data::generate_sky_survey(
      3000, 98, {.width = 10.0f, .height = 10.0f});
  const float eps = 0.35f;
  const int minpts = 4;
  cudasim::Device dev_a({}, fast_options());
  cudasim::Device dev_b({}, fast_options());

  HybridTimings batch_t;
  const ClusterResult batch = hybrid_dbscan(dev_a, points, eps, minpts,
                                            &batch_t, BatchPolicy{},
                                            ClusterMode::kBatchTable);
  HybridTimings stream_t;
  const ClusterResult stream = hybrid_dbscan(dev_b, points, eps, minpts,
                                             &stream_t, BatchPolicy{},
                                             ClusterMode::kStreaming);

  EXPECT_FALSE(batch_t.streamed);
  EXPECT_TRUE(stream_t.streamed);
  EXPECT_FALSE(stream_t.build_report.table_materialized);
  EXPECT_GT(stream_t.peak_consumer_bytes, 0u);

  // Labels are in input order on both paths; compare over an input-order
  // oracle table.
  const GridIndex index = build_grid_index(points, eps);
  NeighborTable oracle(points.size());
  {
    std::vector<PointId> neighbors;
    std::vector<NeighborPair> pairs;
    for (PointId i = 0; i < points.size(); ++i) {
      grid_query(index, points[i], eps, neighbors);
      pairs.clear();
      for (const PointId v : neighbors) {
        pairs.push_back({i, index.original_ids[v]});
      }
      oracle.append_sorted_batch(pairs);
    }
  }
  const auto outcome = compare_clusterings(stream, batch, oracle, minpts);
  EXPECT_TRUE(outcome.equivalent) << outcome.diagnostic;
}

TEST(StreamingDbscan, ReuseSweepStreamsAllMinpts) {
  const auto points = data::generate_space_weather(
      2000, 99, {.width = 10.0f, .height = 10.0f});
  const float eps = 0.35f;
  const std::vector<int> minpts{2, 4, 16};
  cudasim::Device dev_a({}, fast_options());
  cudasim::Device dev_b({}, fast_options());

  std::vector<ClusterResult> batch_results;
  const ReuseReport batch =
      cluster_minpts_sweep(dev_a, points, eps, minpts, 3, {}, &batch_results);
  std::vector<ClusterResult> stream_results;
  const ReuseReport stream =
      cluster_minpts_sweep(dev_b, points, eps, minpts, 3, {}, &stream_results,
                           ClusterMode::kStreaming);

  EXPECT_FALSE(batch.streamed);
  EXPECT_TRUE(stream.streamed);
  const GridIndex index = build_grid_index(points, eps);
  for (std::size_t i = 0; i < minpts.size(); ++i) {
    EXPECT_TRUE(stream.outcomes[i].ok);
    EXPECT_EQ(stream.variant_clusters[i], batch.variant_clusters[i]);
    // Labels are input-order; rebuild an input-order oracle.
    NeighborTable oracle(points.size());
    std::vector<PointId> neighbors;
    std::vector<NeighborPair> pairs;
    for (PointId p = 0; p < points.size(); ++p) {
      grid_query(index, points[p], eps, neighbors);
      pairs.clear();
      for (const PointId v : neighbors) {
        pairs.push_back({p, index.original_ids[v]});
      }
      oracle.append_sorted_batch(pairs);
    }
    const auto outcome = compare_clusterings(
        stream_results[i], batch_results[i], oracle, minpts[i]);
    EXPECT_TRUE(outcome.equivalent)
        << "minpts " << minpts[i] << ": " << outcome.diagnostic;
    // The batch sweep's banded pass and the streaming consumers share one
    // border rule: identical label vectors.
    EXPECT_EQ(stream_results[i].labels, batch_results[i].labels)
        << "minpts " << minpts[i];
  }
}

TEST(StreamingDbscan, ReuseSweepRecordsInvalidMinptsAndKeepsSiblings) {
  const auto points = data::generate_uniform(800, 100, 8.0f, 8.0f);
  const std::vector<int> minpts{4, 0, 8};  // 0 is invalid
  cudasim::Device device({}, fast_options());
  const ReuseReport report = cluster_minpts_sweep(
      device, points, 0.3f, minpts, 2, {}, nullptr, ClusterMode::kStreaming);
  EXPECT_TRUE(report.outcomes[0].ok);
  EXPECT_FALSE(report.outcomes[1].ok);
  EXPECT_FALSE(report.outcomes[1].error.empty());
  EXPECT_TRUE(report.outcomes[2].ok);
  EXPECT_GT(report.variant_clusters[0], 0);
}

TEST(StreamingDbscan, PipelineStreamingModeMatchesBatchMode) {
  const auto points = data::generate_space_weather(
      2000, 101, {.width = 10.0f, .height = 10.0f});
  const std::vector<Variant> variants{{0.25f, 4}, {0.35f, 8}, {0.45f, 4}};
  cudasim::Device dev_a({}, fast_options());
  cudasim::Device dev_b({}, fast_options());

  PipelineOptions batch_opts;
  batch_opts.keep_results = true;
  batch_opts.cluster_mode = ClusterMode::kBatchTable;
  const PipelineReport batch =
      run_multi_clustering(dev_a, points, variants, batch_opts);
  PipelineOptions stream_opts;
  stream_opts.keep_results = true;
  stream_opts.cluster_mode = ClusterMode::kStreaming;
  const PipelineReport stream =
      run_multi_clustering(dev_b, points, variants, stream_opts);

  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_TRUE(stream.variants[i].streamed) << "variant " << i;
    EXPECT_EQ(stream.variants[i].num_clusters, batch.variants[i].num_clusters);
    EXPECT_EQ(stream.variants[i].noise_count, batch.variants[i].noise_count);
    const GridIndex index = build_grid_index(points, variants[i].eps);
    NeighborTable oracle(points.size());
    std::vector<PointId> neighbors;
    std::vector<NeighborPair> pairs;
    for (PointId p = 0; p < points.size(); ++p) {
      grid_query(index, points[p], variants[i].eps, neighbors);
      pairs.clear();
      for (const PointId v : neighbors) {
        pairs.push_back({p, index.original_ids[v]});
      }
      oracle.append_sorted_batch(pairs);
    }
    const auto outcome =
        compare_clusterings(stream.results[i], batch.results[i], oracle,
                            variants[i].minpts);
    EXPECT_TRUE(outcome.equivalent)
        << "variant " << i << ": " << outcome.diagnostic;
  }
}

TEST(StreamingDbscan, FanoutSinkReplicatesDeliveries) {
  const Scenario s = make_scenario(900, 0.3f, 102);
  cudasim::Device device({}, fast_options());
  NeighborTableBuilder builder(device,
                               many_batch_policy(s, ScanMode::kHalf));
  StreamingDbscan a(s.index.size(), 2);
  StreamingDbscan b(s.index.size(), 10);
  FanoutSink fanout;
  fanout.add(&a);
  fanout.add(&b);
  builder.build(s.index, s.eps, nullptr, &fanout, /*materialize_table=*/false);
  for (PointId i = 0; i < s.index.size(); ++i) {
    ASSERT_EQ(a.degree(i), s.oracle.neighbor_count(i));
    ASSERT_EQ(b.degree(i), s.oracle.neighbor_count(i));
  }
  const ClusterResult got_a = a.finalize();
  const ClusterResult got_b = b.finalize();
  const std::vector<int> minpts{2, 10};
  const std::vector<ClusterResult> want = dbscan_parallel(s.oracle, minpts);
  const auto out_a = compare_clusterings(got_a, want[0], s.oracle, 2);
  const auto out_b = compare_clusterings(got_b, want[1], s.oracle, 10);
  EXPECT_TRUE(out_a.equivalent) << out_a.diagnostic;
  EXPECT_TRUE(out_b.equivalent) << out_b.diagnostic;
  EXPECT_EQ(got_a.labels, want[0].labels);
  EXPECT_EQ(got_b.labels, want[1].labels);
}

}  // namespace
}  // namespace hdbscan
