// Scripted fault injection (cudasim::FaultInjector) and the consumers'
// degradation ladder: retry transient faults, shrink on allocation
// failure, fail work over from lost devices, and fall back to the host —
// all without ever producing a wrong table.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "core/neighbor_table_builder.hpp"
#include "core/pipeline.hpp"
#include "core/reuse.hpp"
#include "cudasim/buffer.hpp"
#include "cudasim/error.hpp"
#include "cudasim/fault.hpp"
#include "cudasim/kernel.hpp"
#include "data/generators.hpp"
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

cudasim::SimulationOptions faulted_options(
    cudasim::FaultPlan plan,
    std::shared_ptr<cudasim::FaultInjector>* injector_out = nullptr) {
  cudasim::SimulationOptions opt = fast_options();
  auto injector = std::make_shared<cudasim::FaultInjector>(std::move(plan));
  if (injector_out != nullptr) *injector_out = injector;
  opt.fault = std::move(injector);
  return opt;
}

/// Byte-level equality after canonicalization: same neighborhoods, however
/// the batches were split, retried or failed over.
void expect_identical(NeighborTable got, NeighborTable want) {
  got.canonicalize();
  want.canonicalize();
  EXPECT_EQ(got.total_pairs(), want.total_pairs());
  EXPECT_TRUE(got.identical_to(want));
}

struct Scenario {
  std::vector<Point2> points;
  GridIndex index;
  NeighborTable oracle;
  float eps = 0.0f;
};

Scenario make_scenario(std::size_t n, float eps) {
  Scenario s;
  s.eps = eps;
  s.points = data::generate_space_weather(
      n, 77, {.width = 10.0f, .height = 10.0f});
  s.index = build_grid_index(s.points, eps);
  s.oracle = build_neighbor_table_host(s.index, eps);
  return s;
}

/// Deterministic single-context policy with enough batches that mid-build
/// faults reliably leave unfinished work behind.
BatchPolicy many_batch_policy(const Scenario& s) {
  BatchPolicy policy;
  policy.num_streams = 1;
  policy.estimated_total_override = s.oracle.total_pairs();
  policy.static_threshold_pairs = 1;  // force the static-buffer path
  policy.static_buffer_pairs =
      std::max<std::uint64_t>(1, s.oracle.total_pairs() / 12);
  return policy;
}

// ---------------------------------------------------------------------------
// FaultInjector unit behavior through the Device hooks.
// ---------------------------------------------------------------------------

TEST(FaultInjector, OomFiresOnScriptedAllocOnly) {
  cudasim::FaultPlan plan;
  plan.oom_allocs = {2};
  cudasim::Device device({}, faulted_options(plan));
  cudasim::DeviceBuffer<int> first(device, 1024);  // alloc 1: fine
  EXPECT_THROW((void)cudasim::DeviceBuffer<int>(device, 1024),  // alloc 2
               cudasim::DeviceOutOfMemory);
  cudasim::DeviceBuffer<int> third(device, 1024);  // alloc 3: fine again
  EXPECT_EQ(device.metrics().injected_oom_faults, 1u);
  // The failed allocation consumed no capacity.
  EXPECT_EQ(device.used_global_bytes(), 2u * 1024u * sizeof(int));
}

TEST(FaultInjector, TransientLaunchFailsOnceBeforeAnyBlockRuns) {
  cudasim::FaultPlan plan;
  plan.transient_launches = {1};
  cudasim::Device device({}, faulted_options(plan));
  std::atomic<int> ran{0};
  auto body = [&](cudasim::ThreadCtx&) {
    ran.fetch_add(1, std::memory_order_relaxed);
  };
  EXPECT_THROW(cudasim::run_flat_kernel(device, 1, 32, body),
               cudasim::TransientKernelFault);
  EXPECT_EQ(ran.load(), 0);  // the faulted launch did no work
  cudasim::run_flat_kernel(device, 1, 32, body);  // re-issue succeeds
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(device.metrics().injected_transient_faults, 1u);
}

TEST(FaultInjector, DegradedPcieSlowsModeledTransfers) {
  std::vector<float> host(1 << 16);
  auto run = [&](cudasim::SimulationOptions opt) {
    cudasim::Device device({}, std::move(opt));
    cudasim::DeviceBuffer<float> buf(device, host.size());
    device.blocking_transfer(buf.device_data(), host.data(),
                             host.size() * sizeof(float),
                             /*to_device=*/true, /*pinned_host=*/false);
    return device.metrics();
  };
  const auto clean = run(fast_options());
  cudasim::FaultPlan plan;
  plan.degrade_from_transfer = 1;
  plan.degrade_factor = 4.0;
  const auto degraded = run(faulted_options(plan));
  EXPECT_EQ(clean.degraded_transfers, 0u);
  EXPECT_EQ(degraded.degraded_transfers, 1u);
  // 4x less bandwidth -> markedly more modeled transfer time.
  EXPECT_GT(degraded.transfer_seconds, 2.0 * clean.transfer_seconds);
}

TEST(FaultInjector, DeviceLossRefusesEveryLaterOp) {
  cudasim::FaultPlan plan;
  plan.lost_at_op = 2;
  std::shared_ptr<cudasim::FaultInjector> injector;
  cudasim::Device device({}, faulted_options(plan, &injector));
  cudasim::DeviceBuffer<int> survivor(device, 16);  // op 1: fine
  EXPECT_FALSE(device.lost());
  EXPECT_THROW((void)cudasim::DeviceBuffer<int>(device, 16),  // op 2: lost
               cudasim::DeviceLost);
  EXPECT_TRUE(device.lost());
  EXPECT_THROW(
      cudasim::run_flat_kernel(device, 1, 1, [](cudasim::ThreadCtx&) {}),
      cudasim::DeviceLost);
  std::vector<int> host(16);
  EXPECT_THROW(device.blocking_transfer(survivor.device_data(), host.data(),
                                        host.size() * sizeof(int), true,
                                        false),
               cudasim::DeviceLost);
  EXPECT_TRUE(device.metrics().device_lost);
  EXPECT_GE(device.metrics().refused_ops, 2u);
  EXPECT_GE(injector->ops(), 4u);
  // Cleanup still works on a lost device: freeing must not throw.
}

// ---------------------------------------------------------------------------
// NeighborTableBuilder under the ResiliencePolicy ladder.
// ---------------------------------------------------------------------------

TEST(ResilientBuild, TransientFaultsAreRetriedAndTableMatches) {
  const Scenario s = make_scenario(3000, 0.35f);
  cudasim::FaultPlan plan;
  plan.transient_launches = {2, 5};
  cudasim::Device device({}, faulted_options(plan));
  NeighborTableBuilder builder(device, many_batch_policy(s));
  BuildReport report;
  const NeighborTable table = builder.build(s.index, s.eps, &report);
  EXPECT_GE(report.transient_retries, 2u);
  EXPECT_TRUE(report.degraded());
  EXPECT_FALSE(report.used_host_fallback);
  EXPECT_EQ(device.metrics().injected_transient_faults, 2u);
  expect_identical(table, s.oracle);
}

TEST(ResilientBuild, SameSeedAndPlanReplayIdentically) {
  const Scenario s = make_scenario(2500, 0.35f);
  const cudasim::FaultPlan plan = cudasim::FaultPlan::randomized(42);
  const BatchPolicy policy = many_batch_policy(s);

  auto run = [&](BuildReport* report) {
    cudasim::SimulationOptions opt = faulted_options(plan);
    cudasim::Device device(cudasim::DeviceConfig{}, opt);
    BatchPolicy p = policy;
    p.resilience.host_fallback = true;  // survive whatever the plan stacks
    NeighborTableBuilder builder(device, p);
    return builder.build(s.index, s.eps, report);
  };
  BuildReport a_report;
  BuildReport b_report;
  NeighborTable a = run(&a_report);
  NeighborTable b = run(&b_report);

  // Deterministic accounting: the same plan on the same single-context
  // policy fires at the same ordinals both times.
  EXPECT_EQ(a_report.transient_retries, b_report.transient_retries);
  EXPECT_EQ(a_report.alloc_retries, b_report.alloc_retries);
  EXPECT_EQ(a_report.devices_lost, b_report.devices_lost);
  EXPECT_EQ(a_report.failover_batches, b_report.failover_batches);
  EXPECT_EQ(a_report.host_fallback_batches, b_report.host_fallback_batches);
  EXPECT_EQ(a_report.used_host_fallback, b_report.used_host_fallback);
  EXPECT_EQ(a_report.batches_run, b_report.batches_run);
  EXPECT_EQ(a_report.total_pairs, b_report.total_pairs);
  // And both degraded builds still produced the exact table.
  expect_identical(std::move(a), s.oracle);
  expect_identical(std::move(b), s.oracle);
}

TEST(ResilientBuild, TwoDeviceAcceptanceScenario) {
  // The PR's acceptance scenario: device 0 takes a transient kernel fault
  // and runs on degraded PCIe, device 1 is lost mid-build. The build must
  // complete without throwing, record the retries and the failover, and
  // produce a table byte-identical (canonicalized) to a fault-free build.
  const Scenario s = make_scenario(4000, 0.35f);
  const BatchPolicy policy = many_batch_policy(s);

  // Fault-free reference on the same 2-device topology.
  cudasim::Device ref0({}, fast_options());
  cudasim::Device ref1({}, fast_options());
  NeighborTableBuilder ref_builder({&ref0, &ref1}, policy);
  const NeighborTable reference = ref_builder.build(s.index, s.eps);

  cudasim::FaultPlan plan0;
  plan0.transient_launches = {4};
  plan0.degrade_from_transfer = 3;
  plan0.degrade_factor = 3.0;
  cudasim::FaultPlan plan1;
  plan1.lost_at_op = 25;  // after setup, well before its batches finish
  cudasim::Device dev0({}, faulted_options(plan0));
  cudasim::Device dev1({}, faulted_options(plan1));
  NeighborTableBuilder builder({&dev0, &dev1}, policy);
  BuildReport report;
  const NeighborTable table = builder.build(s.index, s.eps, &report);

  EXPECT_TRUE(report.degraded());
  EXPECT_GE(report.transient_retries, 1u);
  EXPECT_EQ(report.devices_lost, 1u);
  EXPECT_GE(report.failover_batches, 1u);
  EXPECT_FALSE(report.used_host_fallback);
  EXPECT_GT(dev0.metrics().degraded_transfers, 0u);
  EXPECT_TRUE(dev1.metrics().device_lost);
  expect_identical(table, reference);
  expect_identical(table, s.oracle);
}

TEST(ResilientBuild, AllDevicesLostFallsBackToHost) {
  const Scenario s = make_scenario(3000, 0.35f);
  BatchPolicy policy = many_batch_policy(s);
  policy.resilience.host_fallback = true;
  cudasim::FaultPlan plan0;
  plan0.lost_at_op = 20;
  cudasim::FaultPlan plan1;
  plan1.lost_at_op = 24;
  cudasim::Device dev0({}, faulted_options(plan0));
  cudasim::Device dev1({}, faulted_options(plan1));
  NeighborTableBuilder builder({&dev0, &dev1}, policy);
  BuildReport report;
  const NeighborTable table = builder.build(s.index, s.eps, &report);
  EXPECT_TRUE(report.used_host_fallback);
  EXPECT_EQ(report.devices_lost, 2u);
  expect_identical(table, s.oracle);
}

TEST(ResilientBuild, HostFallbackDisabledSurfacesDeviceLoss) {
  const Scenario s = make_scenario(3000, 0.35f);
  const BatchPolicy policy = many_batch_policy(s);  // fallback off
  cudasim::FaultPlan plan;
  plan.lost_at_op = 20;
  cudasim::Device device({}, faulted_options(plan));
  NeighborTableBuilder builder(device, policy);
  EXPECT_THROW((void)builder.build(s.index, s.eps), cudasim::DeviceLost);
  // Loss never leaks device memory: every buffer was released.
  EXPECT_EQ(device.used_global_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Pipelines keep going when one variant fails.
// ---------------------------------------------------------------------------

TEST(PipelineResilience, ContinuesAfterDeviceLossMidVariant) {
  const auto points = data::generate_space_weather(
      2000, 33, {.width = 10.0f, .height = 10.0f});
  PipelineOptions options;
  options.policy.num_streams = 1;

  // Probe run: measure how many device ops one variant consumes, so the
  // loss can be scripted to land inside variant 2 of 5.
  std::shared_ptr<cudasim::FaultInjector> probe;
  {
    cudasim::Device probe_device({},
                                 faulted_options(cudasim::FaultPlan{},
                                                 &probe));
    const std::vector<Variant> one{{0.3f, 4}};
    (void)run_multi_clustering(probe_device, points, one, options);
  }
  const std::uint64_t ops_per_variant = probe->ops();
  ASSERT_GT(ops_per_variant, 0u);

  cudasim::FaultPlan plan;
  plan.lost_at_op = ops_per_variant + 3;
  cudasim::Device device({}, faulted_options(plan));
  const std::vector<Variant> variants(5, Variant{0.3f, 4});
  const PipelineReport report =
      run_multi_clustering(device, points, variants, options);

  ASSERT_EQ(report.variants.size(), 5u);
  EXPECT_TRUE(report.variants[0].outcome.ok);
  EXPECT_FALSE(report.variants[0].outcome.host_fallback);
  EXPECT_FALSE(report.variants[1].outcome.ok);  // the device died here
  EXPECT_FALSE(report.variants[1].outcome.error.empty());
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_TRUE(report.variants[i].outcome.ok) << "variant " << i;
    EXPECT_TRUE(report.variants[i].outcome.host_fallback) << "variant " << i;
    // Identical parameters must keep producing identical clusterings.
    EXPECT_EQ(report.variants[i].num_clusters,
              report.variants[0].num_clusters);
    EXPECT_EQ(report.variants[i].noise_count,
              report.variants[0].noise_count);
  }
}

TEST(ReuseResilience, SweepSurvivesOneInvalidMinpts) {
  const auto points = data::generate_space_weather(
      1500, 9, {.width = 8.0f, .height = 8.0f});
  cudasim::Device device({}, fast_options());
  const std::vector<int> minpts{4, 0, 8};  // the middle one is invalid
  const ReuseReport report =
      cluster_minpts_sweep(device, points, 0.3f, minpts, 2);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_TRUE(report.outcomes[0].ok);
  EXPECT_FALSE(report.outcomes[1].ok);
  EXPECT_FALSE(report.outcomes[1].error.empty());
  EXPECT_TRUE(report.outcomes[2].ok);
  EXPECT_GE(report.variant_clusters[0], 0);
  EXPECT_GE(report.variant_clusters[2], 0);

  // An all-failing sweep still throws (single-variant callers keep their
  // exception).
  const std::vector<int> all_bad{0, 0};
  EXPECT_THROW(
      (void)cluster_minpts_sweep(device, points, 0.3f, all_bad, 2),
      std::invalid_argument);
}

}  // namespace
}  // namespace hdbscan
