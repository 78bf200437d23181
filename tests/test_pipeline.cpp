#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/cell_graph.hpp"
#include "core/hybrid_dbscan.hpp"
#include "core/neighbor_table_builder.hpp"
#include "data/generators.hpp"
#include "dbscan/cluster_compare.hpp"
#include "dbscan/dbscan.hpp"
#include "dbscan/dbscan_parallel.hpp"
#include "dbscan/neighbor_table.hpp"
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

std::vector<Variant> test_variants() {
  return {{0.2f, 4}, {0.3f, 4}, {0.4f, 4}, {0.5f, 4}, {0.6f, 4}};
}

NeighborTable input_order_table(std::span<const Point2> points, float eps) {
  const GridIndex index = build_grid_index(points, eps);
  NeighborTable table(points.size());
  std::vector<PointId> neighbors;
  std::vector<NeighborPair> pairs;
  for (PointId i = 0; i < points.size(); ++i) {
    grid_query(index, points[i], eps, neighbors);
    pairs.clear();
    for (const PointId v : neighbors) {
      pairs.push_back({i, index.original_ids[v]});
    }
    table.append_sorted_batch(pairs);
  }
  return table;
}

/// A skewed sweep: dense hot spots and sparse background, so borders that
/// touch two clusters occur and the border rule decides them.
std::vector<Point2> skewed_points() {
  return data::generate_space_weather(2500, 80,
                                      {.width = 10.0f, .height = 10.0f});
}

/// The one-value banded pass in input order, with ids (cluster numbering,
/// border ties) in the grid index's point order as the pipeline uses them.
std::vector<std::int32_t> banded_labels(std::span<const Point2> points,
                                        float eps, int minpts) {
  const GridIndex index = build_grid_index(points, eps);
  const int values[] = {minpts};
  return dbscan_parallel(build_neighbor_table_host(index, eps), values, 0,
                         index.original_ids)
      .front()
      .labels;
}

TEST(Pipeline, DefaultVariantsRunFusedAndMatchBandedPass) {
  const auto points = skewed_points();
  const auto variants = test_variants();
  cudasim::Device dev({}, fast_options());
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "sequential");
    PipelineOptions opts;
    opts.pipelined = pipelined;
    opts.keep_results = true;
    const PipelineReport report =
        run_multi_clustering(dev, points, variants, opts);
    ASSERT_EQ(report.results.size(), variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const VariantTiming& t = report.variants[i];
      ASSERT_TRUE(t.outcome.ok) << t.outcome.error;
      EXPECT_TRUE(t.fused) << "variant " << i;
      EXPECT_FALSE(t.outcome.host_fallback) << "variant " << i;
      EXPECT_EQ(report.results[i].labels,
                banded_labels(points, variants[i].eps, variants[i].minpts))
          << "variant " << i;
    }
  }
}

TEST(Pipeline, BatchTableVariantsMatchBfsOverTheirTable) {
  const auto points = skewed_points();
  const auto variants = test_variants();
  cudasim::Device dev({}, fast_options());
  PipelineOptions opts;
  opts.keep_results = true;
  opts.cluster_mode = ClusterMode::kBatchTable;
  const PipelineReport report =
      run_multi_clustering(dev, points, variants, opts);
  ASSERT_EQ(report.results.size(), variants.size());
  cudasim::Device ref_dev({}, fast_options());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const VariantTiming& t = report.variants[i];
    ASSERT_TRUE(t.outcome.ok) << t.outcome.error;
    EXPECT_FALSE(t.fused) << "variant " << i;
    const GridIndex index = build_grid_index(points, variants[i].eps);
    NeighborTableBuilder builder(ref_dev, opts.policy);
    const NeighborTable table = builder.build(index, variants[i].eps);
    const ClusterResult want = unmap_labels(
        dbscan_neighbor_table(table, variants[i].minpts), index.original_ids);
    EXPECT_EQ(report.results[i].labels, want.labels) << "variant " << i;
  }
}

TEST(Pipeline, CellGraphQualityServedUnderTheDefaultMode) {
  const auto points = skewed_points();
  const auto variants = test_variants();
  cudasim::Device dev({}, fast_options());
  PipelineOptions opts;
  opts.keep_results = true;
  opts.policy.quality.mode = ClusterQuality::kCellGraph;
  const PipelineReport report =
      run_multi_clustering(dev, points, variants, opts);
  ASSERT_EQ(report.results.size(), variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    ASSERT_TRUE(report.variants[i].outcome.ok)
        << report.variants[i].outcome.error;
    EXPECT_FALSE(report.variants[i].fused) << "variant " << i;
    const ClusterResult want = cell_graph_dbscan(
        points, variants[i].eps, variants[i].minpts, dev.config());
    EXPECT_EQ(report.results[i].labels, want.labels) << "variant " << i;
  }
}

TEST(Pipeline, PipelinedMatchesNonPipelined) {
  const auto points = data::generate_space_weather(
      2500, 71, {.width = 10.0f, .height = 10.0f});
  const auto variants = test_variants();
  cudasim::Device dev({}, fast_options());

  PipelineOptions seq_opts;
  seq_opts.pipelined = false;
  seq_opts.keep_results = true;
  const PipelineReport seq =
      run_multi_clustering(dev, points, variants, seq_opts);

  PipelineOptions pipe_opts;
  pipe_opts.pipelined = true;
  pipe_opts.keep_results = true;
  const PipelineReport pipe =
      run_multi_clustering(dev, points, variants, pipe_opts);

  ASSERT_EQ(seq.results.size(), variants.size());
  ASSERT_EQ(pipe.results.size(), variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const NeighborTable oracle = input_order_table(points, variants[i].eps);
    const auto outcome = compare_clusterings(
        seq.results[i], pipe.results[i], oracle, variants[i].minpts);
    EXPECT_TRUE(outcome.equivalent)
        << "variant " << i << ": " << outcome.diagnostic;
  }
}

TEST(Pipeline, TimingsPopulatedPerVariant) {
  const auto points = data::generate_sky_survey(
      2000, 72, {.width = 10.0f, .height = 10.0f});
  const auto variants = test_variants();
  cudasim::Device dev({}, fast_options());
  const PipelineReport report =
      run_multi_clustering(dev, points, variants, {});
  ASSERT_EQ(report.variants.size(), variants.size());
  for (const VariantTiming& t : report.variants) {
    EXPECT_GT(t.table_seconds, 0.0);
    EXPECT_GT(t.dbscan_seconds, 0.0);
  }
  EXPECT_GT(report.total_seconds, 0.0);
  // Without keep_results no labels are retained.
  EXPECT_TRUE(report.results.empty());
}

TEST(Pipeline, VariantMetadataPreserved) {
  const auto points = data::generate_uniform(1000, 73, 8.0f, 8.0f);
  const std::vector<Variant> variants{{0.3f, 2}, {0.5f, 10}};
  cudasim::Device dev({}, fast_options());
  const PipelineReport report =
      run_multi_clustering(dev, points, variants, {});
  EXPECT_EQ(report.variants[0].variant.eps, 0.3f);
  EXPECT_EQ(report.variants[0].variant.minpts, 2);
  EXPECT_EQ(report.variants[1].variant.eps, 0.5f);
  EXPECT_EQ(report.variants[1].variant.minpts, 10);
}

TEST(Pipeline, SingleConsumerWorks) {
  const auto points = data::generate_uniform(1500, 74, 8.0f, 8.0f);
  cudasim::Device dev({}, fast_options());
  PipelineOptions opts;
  opts.num_consumers = 1;
  opts.queue_capacity = 1;
  const PipelineReport report =
      run_multi_clustering(dev, points, test_variants(), opts);
  for (const auto& t : report.variants) EXPECT_GT(t.dbscan_seconds, 0.0);
}

TEST(Pipeline, EmptyVariantListIsNoop) {
  const auto points = data::generate_uniform(500, 75, 8.0f, 8.0f);
  cudasim::Device dev({}, fast_options());
  const PipelineReport report = run_multi_clustering(dev, points, {}, {});
  EXPECT_TRUE(report.variants.empty());
}

TEST(Pipeline, ProducerErrorPropagates) {
  const auto points = data::generate_uniform(500, 76, 8.0f, 8.0f);
  cudasim::Device dev({}, fast_options());
  const std::vector<Variant> bad{{-1.0f, 4}};  // invalid eps
  EXPECT_THROW(run_multi_clustering(dev, points, bad, {}),
               std::invalid_argument);
}

TEST(Pipeline, ByteBudgetAdmitsAsymmetricTables) {
  // Two-variant sweep with very different table sizes: eps=0.15 yields a
  // small table, eps=0.7 a much larger one. A budget well below the large
  // table's payload must still admit it (one-item minimum) and the sweep
  // must finish with the same labels as the unbudgeted run.
  const auto points = data::generate_space_weather(
      2000, 78, {.width = 10.0f, .height = 10.0f});
  const std::vector<Variant> variants{{0.15f, 4}, {0.7f, 4}};
  cudasim::Device dev_a({}, fast_options());
  cudasim::Device dev_b({}, fast_options());

  // The byte budget bounds in-flight tables: the paper's table path.
  PipelineOptions unbudgeted;
  unbudgeted.keep_results = true;
  unbudgeted.cluster_mode = ClusterMode::kBatchTable;
  const PipelineReport want =
      run_multi_clustering(dev_a, points, variants, unbudgeted);

  PipelineOptions budgeted;
  budgeted.keep_results = true;
  budgeted.cluster_mode = ClusterMode::kBatchTable;
  budgeted.queue_capacity = 4;
  budgeted.queue_bytes_budget = 1024;  // below either table's payload
  const PipelineReport got =
      run_multi_clustering(dev_b, points, variants, budgeted);

  for (std::size_t i = 0; i < variants.size(); ++i) {
    ASSERT_TRUE(got.variants[i].outcome.ok) << got.variants[i].outcome.error;
    const NeighborTable oracle = input_order_table(points, variants[i].eps);
    const auto outcome = compare_clusterings(
        got.results[i], want.results[i], oracle, variants[i].minpts);
    EXPECT_TRUE(outcome.equivalent)
        << "variant " << i << ": " << outcome.diagnostic;
  }
}

TEST(Pipeline, ByteBudgetZeroIsLegacyCountOnly) {
  const auto points = data::generate_uniform(1200, 79, 8.0f, 8.0f);
  cudasim::Device dev({}, fast_options());
  PipelineOptions opts;
  opts.cluster_mode = ClusterMode::kBatchTable;
  opts.queue_bytes_budget = 0;  // legacy: only queue_capacity bounds
  const PipelineReport report =
      run_multi_clustering(dev, points, test_variants(), opts);
  for (const auto& t : report.variants) {
    EXPECT_TRUE(t.outcome.ok) << t.outcome.error;
    EXPECT_GT(t.dbscan_seconds, 0.0);
  }
}

TEST(Pipeline, ClusterCountsMonotoneInMinpts) {
  // Same eps, rising minpts: noise can only grow.
  const auto points = data::generate_sky_survey(
      3000, 77, {.width = 10.0f, .height = 10.0f});
  const std::vector<Variant> variants{{0.35f, 2}, {0.35f, 8}, {0.35f, 32}};
  cudasim::Device dev({}, fast_options());
  const PipelineReport report =
      run_multi_clustering(dev, points, variants, {});
  EXPECT_LE(report.variants[0].noise_count, report.variants[1].noise_count);
  EXPECT_LE(report.variants[1].noise_count, report.variants[2].noise_count);
}

}  // namespace
}  // namespace hdbscan
