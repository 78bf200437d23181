// Clustering service front-end: cancellation plumbing, the structured
// failure taxonomy, the eps-keyed table cache, admission control /
// shedding, the circuit breaker, and the cache-hit == fresh-build
// bit-identity invariant.
#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "core/cell_graph.hpp"
#include "core/failure.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/error.hpp"
#include "cudasim/fault.hpp"
#include "data/generators.hpp"
#include "dbscan/dbscan_parallel.hpp"
#include "index/grid_index.hpp"
#include "obs/registry.hpp"
#include "service/circuit_breaker.hpp"
#include "service/table_cache.hpp"
#include "service/workload.hpp"

namespace hdbscan {
namespace {

using service::ClusterService;
using service::JobResult;
using service::JobSpec;
using service::JobState;
using service::Priority;
using service::ServiceOptions;
using service::TableCache;

cudasim::SimulationOptions fast_options() {
  cudasim::SimulationOptions opt;
  opt.throttle_transfers = false;
  opt.throttle_pinned_alloc = false;
  opt.executor_threads = 2;
  return opt;
}

// ---------------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------------

TEST(CancelToken, CancelLatchesAndCheckThrowsWithReason) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  try {
    token.check();
    FAIL() << "check() must throw after cancel()";
  } catch (const OperationCancelled& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
  }
}

TEST(CancelToken, ExpiredDeadlineLatchesDeadlineReason) {
  CancelToken token;
  token.set_deadline_after(0.0);  // already expired
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_THROW(token.check(), OperationCancelled);
}

TEST(CancelToken, FutureDeadlineDoesNotFirePrematurely) {
  CancelToken token;
  token.set_deadline_after(3600.0);
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, FirstReasonWins) {
  CancelToken token;
  token.cancel();
  token.set_deadline_after(0.0);
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
}

TEST(CancelToken, CheckCancelHelperToleratesNull) {
  EXPECT_NO_THROW(check_cancel(nullptr));
  CancelToken token;
  token.cancel();
  EXPECT_THROW(check_cancel(&token), OperationCancelled);
}

// ---------------------------------------------------------------------------
// FailureReason classification
// ---------------------------------------------------------------------------

FailureReason classify(std::exception_ptr ep) {
  try {
    std::rethrow_exception(std::move(ep));
  } catch (...) {
    return classify_current_exception();
  }
}

TEST(FailureReason, ClassifiesTheExceptionTaxonomy) {
  EXPECT_EQ(classify(std::make_exception_ptr(
                OperationCancelled(CancelReason::kCancelled))),
            FailureReason::kCancelled);
  EXPECT_EQ(classify(std::make_exception_ptr(
                OperationCancelled(CancelReason::kDeadline))),
            FailureReason::kDeadlineExceeded);
  EXPECT_EQ(classify(std::make_exception_ptr(
                cudasim::TransientKernelFault("kernel fault"))),
            FailureReason::kTransientExhausted);
  EXPECT_EQ(classify(std::make_exception_ptr(
                cudasim::DeviceOutOfMemory(64, 0, 32))),
            FailureReason::kOutOfMemory);
  EXPECT_EQ(
      classify(std::make_exception_ptr(cudasim::DeviceLost("device lost"))),
      FailureReason::kDeviceLost);
  EXPECT_EQ(classify(std::make_exception_ptr(std::runtime_error("misc"))),
            FailureReason::kOther);
}

TEST(FailureReason, NamesAreStable) {
  EXPECT_STREQ(failure_reason_name(FailureReason::kNone), "none");
  EXPECT_STREQ(failure_reason_name(FailureReason::kDeviceLost),
               "device_lost");
  EXPECT_STREQ(failure_reason_name(FailureReason::kDeadlineExceeded),
               "deadline_exceeded");
}

// ---------------------------------------------------------------------------
// TableCache
// ---------------------------------------------------------------------------

service::CachedTable make_entry(std::size_t n, std::size_t bytes) {
  service::CachedTable e;
  e.table = NeighborTable(n);
  e.original_ids.resize(n);
  for (std::size_t i = 0; i < n; ++i) e.original_ids[i] = PointId(i);
  e.bytes = bytes;
  return e;
}

TEST(TableCacheTest, DisabledCacheNeverStores) {
  TableCache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.insert({"d", 1}, make_entry(4, 100)));
  EXPECT_FALSE(cache.find({"d", 1}));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TableCacheTest, LruEvictionUnderByteBudget) {
  TableCache cache(250);
  { auto h = cache.insert({"d", 1}, make_entry(4, 100)); }
  { auto h = cache.insert({"d", 2}, make_entry(4, 100)); }
  EXPECT_EQ(cache.resident_bytes(), 200u);
  // Touch key 1 so key 2 is the LRU victim.
  { auto h = cache.find({"d", 1}); EXPECT_TRUE(h); }
  { auto h = cache.insert({"d", 3}, make_entry(4, 100)); }
  EXPECT_TRUE(cache.contains({"d", 1}));
  EXPECT_FALSE(cache.contains({"d", 2}));
  EXPECT_TRUE(cache.contains({"d", 3}));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.resident_bytes(), 250u);
}

TEST(TableCacheTest, PinnedEntryIsNeverEvictedWhileInFlight) {
  TableCache cache(150);
  // The in-flight coalesced build holds its handle across the insert of
  // a competing over-budget entry.
  TableCache::Handle pinned = cache.insert({"d", 1}, make_entry(4, 100));
  ASSERT_TRUE(pinned);
  TableCache::Handle second = cache.insert({"d", 2}, make_entry(4, 100));
  // Both pinned: budget exceeded but nothing evictable.
  EXPECT_TRUE(cache.contains({"d", 1}));
  EXPECT_TRUE(cache.contains({"d", 2}));
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_GT(cache.resident_bytes(), 150u);
  // Releasing the older pin lets the budget reassert itself.
  pinned = TableCache::Handle();
  EXPECT_FALSE(cache.contains({"d", 1}));
  EXPECT_TRUE(cache.contains({"d", 2}));
  EXPECT_LE(cache.resident_bytes(), 150u);
}

TEST(TableCacheTest, RacingInsertAdoptsThePinnedIncumbent) {
  TableCache cache(1000);
  TableCache::Handle first = cache.insert({"d", 1}, make_entry(4, 100));
  TableCache::Handle racer = cache.insert({"d", 1}, make_entry(4, 100));
  // Same storage: the second group adopted the incumbent entry.
  EXPECT_EQ(first.get(), racer.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 100u);
  // Another dataset at the same eps is a key of its own: it neither hits
  // the incumbent nor adopts it.
  EXPECT_FALSE(cache.find({"e", 1}));
  TableCache::Handle other = cache.insert({"e", 1}, make_entry(4, 100));
  EXPECT_NE(other.get(), first.get());
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndProbesAfterCooldown) {
  service::CircuitBreaker breaker(1, /*failure_threshold=*/2,
                                  /*cooldown_dispatches=*/3);
  EXPECT_TRUE(breaker.allow(0));
  breaker.record_failure(0);
  EXPECT_TRUE(breaker.allow(0));
  breaker.record_failure(0);  // second consecutive -> open
  EXPECT_EQ(breaker.state(0), service::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  // Cooldown counted in dispatch attempts.
  EXPECT_FALSE(breaker.allow(0));
  EXPECT_FALSE(breaker.allow(0));
  EXPECT_FALSE(breaker.allow(0));
  // Cooldown elapsed: half-open, exactly one probe.
  EXPECT_TRUE(breaker.allow(0));
  EXPECT_EQ(breaker.state(0), service::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(0));  // probe already in flight
  breaker.record_success(0);
  EXPECT_EQ(breaker.state(0), service::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(0));
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  service::CircuitBreaker breaker(1, 1, 1);
  breaker.record_failure(0);
  EXPECT_EQ(breaker.state(0), service::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(0));
  EXPECT_TRUE(breaker.allow(0));  // probe
  breaker.record_failure(0);
  EXPECT_EQ(breaker.state(0), service::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
}

// ---------------------------------------------------------------------------
// Workload sources
// ---------------------------------------------------------------------------

TEST(Workload, ZipfGenerationIsDeterministicAndSkewed) {
  service::WorkloadSpec spec;
  spec.num_jobs = 200;
  const auto a = service::make_zipf_workload(spec);
  const auto b = service::make_zipf_workload(spec);
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].eps, b[i].eps);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
  }
  // Zipf skew: the hottest eps must dominate the coldest.
  std::size_t hot = 0, cold = 0;
  for (const JobSpec& j : a) {
    if (j.eps == spec.eps_choices.front()) ++hot;
    if (j.eps == spec.eps_choices.back()) ++cold;
  }
  EXPECT_GT(hot, cold * 2);
}

TEST(Workload, ParsesJobLinesAndRejectsMalformedOnes) {
  const auto jobs = service::parse_jobs(
      "# comment\n"
      "t0 sky 0.4 4\n"
      "\n"
      "t1 sky 0.6 8 interactive 0.25 1.5\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].tenant, "t0");
  EXPECT_EQ(jobs[0].priority, Priority::kNormal);
  EXPECT_EQ(jobs[1].priority, Priority::kInteractive);
  EXPECT_DOUBLE_EQ(jobs[1].deadline_seconds, 0.25);
  EXPECT_DOUBLE_EQ(jobs[1].wall_deadline_seconds, 1.5);
  EXPECT_THROW(service::parse_jobs("t0 sky 0.4\n"), std::runtime_error);
  EXPECT_THROW(service::parse_jobs("t0 sky 0.4 4 urgent\n"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// ClusterService
// ---------------------------------------------------------------------------

struct ServiceFixture {
  std::unique_ptr<cudasim::Device> device =
      std::make_unique<cudasim::Device>(cudasim::DeviceConfig{},
                                        fast_options());
  std::vector<Point2> points =
      data::generate_uniform(1500, 5, 12.0f, 12.0f);

  std::unique_ptr<ClusterService> make(ServiceOptions opt,
                                       float reference_eps = 0.8f) {
    auto svc = std::make_unique<ClusterService>(
        std::vector<cudasim::Device*>{device.get()}, opt);
    svc->register_dataset("sky", points, reference_eps);
    return svc;
  }

  /// Replaces the device with one that dies at its first op: the
  /// dataset's calibration, before any job dispatches.
  void lose_the_fleet() {
    cudasim::FaultPlan lost;
    lost.lost_at_op = 1;
    cudasim::SimulationOptions sim = fast_options();
    sim.fault = std::make_shared<cudasim::FaultInjector>(lost);
    device = std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, sim);
  }
};

/// 2,000 points on a 0.2 lattice plus one far point at (20000, 20000): at
/// eps 0.3 the dense grid would need about 4.4e9 cells, past its capacity
/// (kMaxGridCells), while the cell graph's sparse key holds the extent.
/// Registered at eps 20, where the grid has 1e6 cells.
constexpr float kPastTheGridEps = 0.3f;
constexpr float kWideReferenceEps = 20.0f;
std::vector<Point2> lattice_with_far_point() {
  std::vector<Point2> points;
  for (int i = 0; i < 2000; ++i) {
    points.push_back({0.2f * static_cast<float>(i % 50),
                      0.2f * static_cast<float>(i / 50)});
  }
  points.push_back({20000.0f, 20000.0f});
  return points;
}

/// The union-find paths' labels (fused, the banded pass) in
/// input order: the banded pass over the host table of the grid index.
std::vector<std::int32_t> union_find_labels(std::span<const Point2> points,
                                            float eps, int minpts) {
  const GridIndex index = build_grid_index(points, eps);
  const int values[] = {minpts};
  return dbscan_parallel(build_neighbor_table_host(index, eps), values, 0,
                         index.original_ids)
      .front()
      .labels;
}

JobSpec job(float eps, int minpts = 4, Priority prio = Priority::kNormal,
            const std::string& tenant = "t0") {
  JobSpec j;
  j.tenant = tenant;
  j.dataset = "sky";
  j.eps = eps;
  j.minpts = minpts;
  j.priority = prio;
  return j;
}

TEST(ClusterServiceTest, UnknownDatasetIsRejectedWithReason) {
  ServiceFixture f;
  auto svc = f.make({});
  JobSpec bad = job(0.4f);
  bad.dataset = "nope";
  const auto results = svc->replay({bad});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, JobState::kRejected);
  EXPECT_NE(results[0].reject_reason.find("nope"), std::string::npos);
  EXPECT_EQ(svc->stats().rejected, 1u);
}

/// A point with a NaN coordinate has no grid cell: registration throws,
/// naming the point, and the service keeps serving the datasets it has.
TEST(ClusterServiceTest, RegisterDatasetRejectsANonFiniteCoordinate) {
  ServiceFixture f;
  auto svc = f.make({});
  std::vector<Point2> bad = f.points;
  bad[7].y = std::numeric_limits<float>::quiet_NaN();
  try {
    svc->register_dataset("bad", bad, 0.8f);
    ADD_FAILURE() << "a NaN coordinate was registered";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("point 7"), std::string::npos)
        << e.what();
  }
  JobSpec on_bad = job(0.5f);
  on_bad.dataset = "bad";
  const auto results = svc->replay({on_bad, job(0.5f)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].state, JobState::kRejected);
  EXPECT_EQ(results[1].state, JobState::kCompleted);
}

/// A minpts below 1, or an eps that is not positive and finite, is
/// refused at admission with a reason — before it can throw inside a
/// worker for its whole coalesced group, or burn retries and trip the
/// breaker on a healthy device — and the valid job beside it completes.
TEST(ClusterServiceTest, BadMinptsOrEpsIsRejectedWithReason) {
  JobSpec zero_minpts = job(0.5f, 0, Priority::kNormal, "t1");
  JobSpec negative_minpts = job(0.5f, -3, Priority::kNormal, "t2");
  JobSpec zero_eps = job(0.0f, 4, Priority::kNormal, "t3");
  JobSpec negative_eps = job(-1.0f, 4, Priority::kNormal, "t4");
  JobSpec nan_eps = job(std::numeric_limits<float>::quiet_NaN());
  JobSpec inf_eps = job(std::numeric_limits<float>::infinity());
  JobSpec fused_zero_minpts = job(0.5f, 0, Priority::kNormal, "t5");
  fused_zero_minpts.fused = true;
  const std::vector<JobSpec> jobs = {job(0.5f, 4),   zero_minpts,
                                     negative_minpts, zero_eps,
                                     negative_eps,    nan_eps,
                                     inf_eps,         fused_zero_minpts};
  for (const std::uint64_t cache_bytes : {256ull << 20, 0ull}) {
    SCOPED_TRACE(cache_bytes == 0 ? "cache off" : "cache on");
    ServiceFixture f;
    ServiceOptions opt;
    opt.num_workers = 1;
    opt.cache_bytes_budget = cache_bytes;
    auto svc = f.make(opt);
    const auto results = svc->replay(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    EXPECT_EQ(results[0].state, JobState::kCompleted);
    EXPECT_GT(results[0].num_clusters, 0);
    for (std::size_t i = 1; i < jobs.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      EXPECT_EQ(results[i].state, JobState::kRejected);
      const char* named = jobs[i].minpts < 1 ? "minpts" : "eps";
      EXPECT_NE(results[i].reject_reason.find(named), std::string::npos)
          << results[i].reject_reason;
    }
    EXPECT_NE(results[1].reject_reason.find("got 0"), std::string::npos);
    EXPECT_NE(results[4].reject_reason.find("got -1"), std::string::npos);
    const service::ServiceStats s = svc->stats();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.rejected, jobs.size() - 1);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.breaker_opens, 0u);
  }
}

TEST(ClusterServiceTest, PricingScalesQuadraticallyWithEps) {
  ServiceFixture f;
  auto svc = f.make({});
  const auto [pairs_small, bytes_small] = svc->price("sky", 0.4f);
  const auto [pairs_large, bytes_large] = svc->price("sky", 0.8f);
  EXPECT_GT(pairs_small, 0u);
  // (0.8/0.4)^2 = 4x, exact by construction of the pricing formula.
  EXPECT_EQ(pairs_large, pairs_small * 4);
  EXPECT_GT(bytes_large, bytes_small);
  EXPECT_EQ(svc->price("nope", 0.4f).first, 0u);
}

TEST(ClusterServiceTest, OneItemMinimumAdmitsExactlyOneOverBudgetJob) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.queue_bytes_budget = 1;  // every job is over budget
  opt.num_workers = 1;
  auto svc = f.make(opt);
  const auto results =
      svc->replay({job(0.4f), job(0.5f), job(0.6f)});
  ASSERT_EQ(results.size(), 3u);
  // The empty queue admits the first job whatever its price; with no
  // lower class to shed, the rest are rejected.
  EXPECT_EQ(results[0].state, JobState::kCompleted);
  EXPECT_EQ(results[1].state, JobState::kRejected);
  EXPECT_EQ(results[2].state, JobState::kRejected);
  EXPECT_EQ(svc->stats().admitted, 1u);
}

TEST(ClusterServiceTest, HigherPriorityArrivalShedsQueuedLowerClass) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.queue_depth_limit = 2;
  opt.num_workers = 1;
  auto svc = f.make(opt);
  const auto results = svc->replay({
      job(0.4f, 4, Priority::kBatch),
      job(0.5f, 4, Priority::kBatch),
      job(0.6f, 4, Priority::kInteractive),
  });
  ASSERT_EQ(results.size(), 3u);
  // The interactive arrival evicts the most recently queued batch job.
  EXPECT_EQ(results[0].state, JobState::kCompleted);
  EXPECT_EQ(results[1].state, JobState::kShed);
  EXPECT_FALSE(results[1].reject_reason.empty());
  EXPECT_EQ(results[2].state, JobState::kCompleted);
  EXPECT_EQ(svc->stats().shed, 1u);
  // Shed work never touched a device.
  EXPECT_EQ(results[1].modeled_device_seconds, 0.0);
  EXPECT_EQ(results[1].device_id, -1);
}

TEST(ClusterServiceTest, AbandonedJobIsCancelledWithoutDeviceTime) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  auto svc = f.make(opt);
  JobSpec gone = job(0.4f);
  gone.abandoned = true;
  const auto results = svc->replay({gone});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, JobState::kCancelled);
  EXPECT_EQ(results[0].failure, FailureReason::kCancelled);
  EXPECT_EQ(results[0].modeled_device_seconds, 0.0);
  EXPECT_EQ(results[0].device_id, -1);
}

TEST(ClusterServiceTest, ExpiredWallDeadlineCancelsMidBuildAndFreesPool) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 64ull << 20;
  auto svc = f.make(opt);
  JobSpec late = job(0.5f);
  late.wall_deadline_seconds = 1e-9;
  const auto results = svc->replay({late});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, JobState::kDeadlineExceeded);
  EXPECT_EQ(results[0].failure, FailureReason::kDeadlineExceeded);
  // The cooperative unwind returned every pooled buffer.
  f.device->pool().trim();
  EXPECT_EQ(f.device->used_global_bytes(), 0u);
  // And the aborted build never populated the cache.
  EXPECT_EQ(svc->cache().size(), 0u);
}

TEST(ClusterServiceTest, ModeledDeadlineAlreadyMissedSkipsTheDevice) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  auto svc = f.make(opt);
  JobSpec overdue = job(0.4f);
  overdue.deadline_seconds = 1e-12;
  overdue.arrival_seconds = 1.0;  // arrived after its own deadline
  const auto results = svc->replay({overdue});
  EXPECT_EQ(results[0].state, JobState::kDeadlineExceeded);
  EXPECT_EQ(results[0].modeled_device_seconds, 0.0);
}

/// Cache-hit labels must be byte-identical to the fresh build's, across
/// scan modes and minpts: both servings run the same host DBSCAN over the
/// same rows, which every build emits canonical (ascending) as built.
TEST(ClusterServiceTest, CacheHitLabelsBitIdenticalAcrossScanModesAndMinpts) {
  ServiceFixture f;
  std::vector<std::vector<std::int32_t>> label_sets;
  for (const ScanMode scan : {ScanMode::kHalf, ScanMode::kFull}) {
    ServiceOptions opt;
    opt.num_workers = 1;
    opt.cache_bytes_budget = 256ull << 20;
    opt.coalesce = false;  // force the second same-eps job to hit the cache
    opt.keep_labels = true;
    opt.policy.scan_mode = scan;
    auto svc = f.make(opt);
    const auto results = svc->replay({
        job(0.5f, 4),   // fresh build
        job(0.5f, 4),   // cache hit, same minpts
        job(0.5f, 12),  // cache hit, different minpts
    });
    ASSERT_EQ(results.size(), 3u);
    for (const JobResult& r : results) {
      ASSERT_EQ(r.state, JobState::kCompleted);
    }
    EXPECT_FALSE(results[0].cache_hit);
    EXPECT_TRUE(results[1].cache_hit);
    EXPECT_TRUE(results[2].cache_hit);
    EXPECT_EQ(svc->stats().cache_hits, 2u);
    // Same (eps, minpts): bit-identical labels.
    EXPECT_EQ(results[0].labels, results[1].labels);
    // Different minpts: a different clustering of the same table.
    EXPECT_FALSE(results[2].labels.empty());
    label_sets.push_back(results[0].labels);
    label_sets.push_back(results[2].labels);
  }
  // Across scan modes the tables hold the same canonical rows, so the
  // labels must be identical too (kHalf run vs kFull run, matched by
  // minpts).
  ASSERT_EQ(label_sets.size(), 4u);
  EXPECT_EQ(label_sets[0], label_sets[2]);  // minpts 4
  EXPECT_EQ(label_sets[1], label_sets[3]);  // minpts 12
}

TEST(ClusterServiceTest, CoalescedGroupSharesOneBuild) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 0;  // cache off: one table, one banded pass
  opt.keep_labels = true;
  auto svc = f.make(opt);
  const auto results = svc->replay({
      job(0.5f, 4, Priority::kNormal, "t0"),
      job(0.5f, 8, Priority::kNormal, "t1"),
      job(0.5f, 4, Priority::kBatch, "t2"),
  });
  ASSERT_EQ(results.size(), 3u);
  const service::ServiceStats s = svc->stats();
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.coalesced_builds, 1u);
  EXPECT_EQ(s.coalesced_jobs, 2u);
  // One clustering per distinct minpts (4 and 8) from the banded pass.
  EXPECT_EQ(s.clusterings_run, 2u);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.state, JobState::kCompleted);
    EXPECT_TRUE(r.coalesced);
  }
  // Same minpts in one group: identical labels from one build.
  EXPECT_EQ(results[0].labels, results[2].labels);
}

/// A coalesced group clusters once per distinct minpts, and each job gets
/// the labels an uncoalesced run gives for its own minpts, bit for bit:
/// served from a fresh build, as a cache hit, and with the cache off.
TEST(ClusterServiceTest, CoalescedGroupClustersOncePerDistinctMinpts) {
  ServiceFixture f;
  const std::vector<JobSpec> jobs = {
      job(0.5f, 4, Priority::kNormal, "t0"),
      job(0.5f, 8, Priority::kBatch, "t1"),
      job(0.5f, 4, Priority::kInteractive, "t2"),
      job(0.5f, 12, Priority::kNormal, "t3"),
      job(0.5f, 8, Priority::kInteractive, "t1"),
  };
  for (const std::uint64_t cache_bytes : {256ull << 20, 0ull}) {
    SCOPED_TRACE(cache_bytes == 0 ? "cache off" : "cache on");
    ServiceOptions opt;
    opt.num_workers = 1;
    opt.cache_bytes_budget = cache_bytes;
    opt.keep_labels = true;

    // Reference: every job served on its own.
    ServiceOptions alone = opt;
    alone.coalesce = false;
    auto ref_svc = f.make(alone);
    const auto reference = ref_svc->replay(jobs);
    ASSERT_EQ(reference.size(), jobs.size());
    for (const JobResult& r : reference) {
      ASSERT_EQ(r.state, JobState::kCompleted);
      EXPECT_FALSE(r.coalesced);
    }
    EXPECT_EQ(ref_svc->stats().clusterings_run, ref_svc->stats().completed);
    // The three minpts give three different clusterings here, so a job
    // handed another minpts' labels cannot match its reference.
    EXPECT_NE(reference[0].labels, reference[1].labels);
    EXPECT_NE(reference[0].labels, reference[3].labels);
    EXPECT_NE(reference[1].labels, reference[3].labels);

    auto svc = f.make(opt);
    // With the cache on, the second replay is served from the first's
    // table.
    const int replays = cache_bytes == 0 ? 1 : 2;
    for (int rep = 0; rep < replays; ++rep) {
      SCOPED_TRACE(rep == 0 ? "fresh build" : "cache hit");
      const service::ServiceStats before = svc->stats();
      const auto results = svc->replay(jobs);
      const service::ServiceStats after = svc->stats();
      ASSERT_EQ(results.size(), jobs.size());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(results[i].state, JobState::kCompleted);
        EXPECT_TRUE(results[i].coalesced);
        EXPECT_EQ(results[i].cache_hit, rep == 1);
        EXPECT_EQ(results[i].labels, reference[i].labels) << "job " << i;
        EXPECT_EQ(results[i].num_clusters, reference[i].num_clusters);
        EXPECT_EQ(results[i].noise_count, reference[i].noise_count);
      }
      EXPECT_EQ(after.clusterings_run - before.clusterings_run, 3u);
      EXPECT_EQ(after.coalesced_jobs - before.coalesced_jobs, 4u);
      EXPECT_EQ(after.coalesced_builds - before.coalesced_builds, 1u);
    }
  }
}

/// With no device left, a fused group is served by the fused passes on
/// the host, with no table: the labels its device run gives (the banded
/// pass's), and it still counts as fused; a table group on the same rung
/// labels with BFS, as a healthy device's build would.
TEST(ClusterServiceTest, FusedJobOnALostFleetMatchesTheFusedPath) {
  ServiceFixture f;
  f.lose_the_fleet();
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;  // table jobs take the BFS path
  opt.keep_labels = true;
  ASSERT_TRUE(opt.host_fallback);
  auto svc = f.make(opt);
  ASSERT_TRUE(f.device->lost());

  JobSpec f1 = job(0.5f, 8, Priority::kNormal, "t0");
  JobSpec f2 = job(0.5f, 8, Priority::kNormal, "t1");
  f1.fused = f2.fused = true;
  const auto results =
      svc->replay({f1, f2, job(0.5f, 8, Priority::kNormal, "t2")});
  ASSERT_EQ(results.size(), 3u);
  for (const JobResult& r : results) {
    ASSERT_EQ(r.state, JobState::kCompleted);
    EXPECT_TRUE(r.host_fallback);
    EXPECT_EQ(r.device_id, -1);
  }
  EXPECT_TRUE(results[0].fused);
  EXPECT_TRUE(results[1].fused);
  EXPECT_FALSE(results[2].fused);
  const std::vector<std::int32_t> banded =
      union_find_labels(f.points, 0.5f, 8);
  EXPECT_EQ(results[0].labels, banded);
  EXPECT_EQ(results[1].labels, banded);
  const service::ServiceStats s = svc->stats();
  EXPECT_EQ(s.host_fallback_jobs, 3u);
  EXPECT_EQ(s.fused_jobs, 2u);
  EXPECT_EQ(s.coalesced_jobs, 1u);
  EXPECT_EQ(s.clusterings_run, 2u);  // one banded pass, one BFS

  ServiceFixture healthy;
  const auto want = healthy.make(opt)->replay({job(0.5f, 8)});
  ASSERT_EQ(want[0].state, JobState::kCompleted);
  EXPECT_FALSE(want[0].host_fallback);
  EXPECT_EQ(results[2].labels, want[0].labels);
}

/// With the cache off, a live device labels a table group through the
/// labels-only path's union-find consumer; with no device left, the host
/// rung gives the same labels with the one-value banded pass (BFS would
/// give some borders to another cluster).
TEST(ClusterServiceTest, CacheOffJobOnALostFleetMatchesTheLiveDevice) {
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 0;
  opt.keep_labels = true;
  const std::vector<JobSpec> jobs = {job(0.5f, 8),
                                     job(0.5f, 4, Priority::kNormal, "t1")};
  ServiceFixture healthy;
  const auto want = healthy.make(opt)->replay(jobs);

  ServiceFixture f;
  f.lose_the_fleet();
  auto svc = f.make(opt);
  ASSERT_TRUE(f.device->lost());
  const auto results = svc->replay(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("minpts " + std::to_string(jobs[i].minpts));
    ASSERT_EQ(want[i].state, JobState::kCompleted);
    ASSERT_EQ(results[i].state, JobState::kCompleted);
    EXPECT_FALSE(want[i].host_fallback);
    EXPECT_TRUE(results[i].host_fallback);
    EXPECT_FALSE(results[i].fused);
    EXPECT_EQ(results[i].labels, want[i].labels);
    EXPECT_EQ(results[i].labels,
              union_find_labels(f.points, 0.5f, jobs[i].minpts));
  }
  const service::ServiceStats s = svc->stats();
  EXPECT_EQ(s.host_fallback_jobs, 2u);
  EXPECT_EQ(s.coalesced_builds, 1u);
  EXPECT_EQ(s.clusterings_run, 2u);  // one banded pass per minpts
}

/// A coalesced group whose build fails and is requeued shares one build
/// when it is finally served: the failed dispatch adds nothing to the
/// coalescing counters.
TEST(ClusterServiceTest, RequeuedGroupCountsItsCoalescingOnce) {
  ServiceFixture f;
  // Launch 1 is the dataset's calibration. On one lane the fused core
  // pass alternates its two batches, so launches 2-6 fault batch 0 three
  // times: past its retry budget (2), which fails the first dispatch.
  cudasim::FaultPlan plan;
  plan.transient_launches = {2, 3, 4, 5, 6};
  cudasim::SimulationOptions sim = fast_options();
  sim.fault = std::make_shared<cudasim::FaultInjector>(plan);
  f.device = std::make_unique<cudasim::Device>(cudasim::DeviceConfig{}, sim);
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.policy.num_streams = 1;
  opt.keep_labels = true;
  auto svc = f.make(opt);
  JobSpec f1 = job(0.5f, 4);
  JobSpec f2 = job(0.5f, 4, Priority::kNormal, "t1");
  f1.fused = f2.fused = true;
  const auto results = svc->replay({f1, f2});
  ASSERT_EQ(results.size(), 2u);
  for (const JobResult& r : results) {
    ASSERT_EQ(r.state, JobState::kCompleted);
    EXPECT_TRUE(r.coalesced);
    EXPECT_EQ(r.labels, union_find_labels(f.points, 0.5f, 4));
  }
  const service::ServiceStats s = svc->stats();
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(f.device->metrics().injected_transient_faults, 5u);
  EXPECT_EQ(s.coalesced_builds, 1u);
  EXPECT_EQ(s.coalesced_jobs, 1u);
  EXPECT_EQ(s.clusterings_run, 1u);
}

/// Fused jobs coalesce only with fused jobs of the same (eps, minpts) —
/// the union-find threshold is baked into the traversal — and a plain job
/// with the same eps never rides the fused build.
TEST(ClusterServiceTest, FusedJobsCoalesceByMinptsAndSkipTableJobs) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.keep_labels = true;
  auto svc = f.make(opt);
  JobSpec f1 = job(0.5f, 4);
  JobSpec f2 = job(0.5f, 4, Priority::kNormal, "t1");
  JobSpec f3 = job(0.5f, 8, Priority::kNormal, "t2");  // different minpts
  f1.fused = f2.fused = f3.fused = true;
  const auto results = svc->replay({f1, f2, f3, job(0.5f, 4)});
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& r : results) {
    ASSERT_EQ(r.state, JobState::kCompleted);
  }
  EXPECT_TRUE(results[0].fused);
  EXPECT_TRUE(results[1].fused);
  EXPECT_TRUE(results[2].fused);
  EXPECT_FALSE(results[3].fused);
  const service::ServiceStats s = svc->stats();
  EXPECT_EQ(s.fused_jobs, 3u);
  // Only the matched (eps, minpts) fused pair shared a build.
  EXPECT_EQ(s.coalesced_builds, 1u);
  EXPECT_EQ(s.coalesced_jobs, 1u);
  // One clustering per fused group, one for the table job.
  EXPECT_EQ(s.clusterings_run, 3u);
  // Fused builds never populate the cache; the plain job's build did.
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(svc->cache().size(), 1u);
  // The fused labels are the union-find paths' (the banded pass over the
  // host table, label for label) and agree with the table path's on
  // clusters and noise: its Alg. 4 BFS may give a border point touching
  // two clusters to the other one.
  EXPECT_EQ(results[0].labels, union_find_labels(f.points, 0.5f, 4));
  EXPECT_EQ(results[0].labels, results[1].labels);
  EXPECT_EQ(results[0].num_clusters, results[3].num_clusters);
  EXPECT_EQ(results[0].noise_count, results[3].noise_count);
}

/// A fused job must bypass the cache even when a matching-key table is
/// already resident: serving a no-table request from a table would skew
/// every measurement the fused path exists to make.
TEST(ClusterServiceTest, FusedJobsBypassAResidentCacheEntry) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.coalesce = false;
  opt.keep_labels = true;
  auto svc = f.make(opt);
  JobSpec fused_job = job(0.5f, 4, Priority::kNormal, "t1");
  fused_job.fused = true;
  const auto results =
      svc->replay({job(0.5f, 4), job(0.5f, 4), fused_job});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].cache_hit);  // fresh build, inserts
  EXPECT_TRUE(results[1].cache_hit);   // same key, plain job: hit
  EXPECT_FALSE(results[2].cache_hit);  // fused: bypassed the entry
  EXPECT_TRUE(results[2].fused);
  EXPECT_EQ(svc->stats().cache_hits, 1u);
  EXPECT_EQ(results[2].labels, union_find_labels(f.points, 0.5f, 4));
  EXPECT_EQ(results[2].num_clusters, results[0].num_clusters);
  EXPECT_EQ(results[2].noise_count, results[0].noise_count);
}

// ---------------------------------------------------------------------------
// Run kinds and the grid's capacity (DESIGN.md §13, §16)
// ---------------------------------------------------------------------------

/// An exact job and a cell-graph job on one (dataset, eps) never share
/// work: the cell-graph job runs the fused passes, which build no table
/// and never probe or fill the cache, while the exact job's table is
/// cached and later hit.
TEST(ClusterServiceTest,
     ExactAndCellGraphJobsOnOneEpsNeverShareABuildOrCacheEntry) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.keep_labels = true;
  auto svc = f.make(opt);
  JobSpec cg = job(0.5f, 8);
  cg.quality.mode = ClusterQuality::kCellGraph;
  const JobSpec exact = job(0.5f, 8);
  const auto first = svc->replay({cg, exact});
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(first[0].state, JobState::kCompleted);
  ASSERT_EQ(first[1].state, JobState::kCompleted);
  EXPECT_FALSE(first[0].coalesced);
  EXPECT_FALSE(first[1].coalesced);
  EXPECT_TRUE(first[0].fused);
  EXPECT_FALSE(first[1].fused);
  EXPECT_EQ(svc->stats().coalesced_builds, 0u);
  EXPECT_EQ(svc->stats().fused_jobs, 1u);
  EXPECT_EQ(svc->stats().cell_graph_jobs, 0u);
  EXPECT_EQ(svc->cache().size(), 1u);  // the exact table only

  // The cell-graph job runs its own pass again, even with the exact
  // table for its (dataset, eps) resident.
  const auto cg_again = svc->replay({cg});
  ASSERT_EQ(cg_again[0].state, JobState::kCompleted);
  EXPECT_FALSE(cg_again[0].cache_hit);
  EXPECT_EQ(svc->stats().fused_jobs, 2u);
  EXPECT_EQ(cg_again[0].labels, first[0].labels);

  const auto exact_again = svc->replay({exact});
  ASSERT_EQ(exact_again[0].state, JobState::kCompleted);
  EXPECT_TRUE(exact_again[0].cache_hit);
  EXPECT_EQ(exact_again[0].labels, first[1].labels);
  EXPECT_EQ(svc->cache().size(), 1u);
}

/// A cell-graph job and a fused job at one (dataset, eps, minpts) are one
/// run: one fused build, one finalize, and the banded pass's labels for
/// both, bit for bit.
TEST(ClusterServiceTest, CellGraphAndFusedJobsShareOneFusedRun) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.keep_labels = true;
  auto svc = f.make(opt);
  JobSpec cg = job(0.5f, 4, Priority::kNormal, "t0");
  cg.quality.mode = ClusterQuality::kCellGraph;
  JobSpec fused = job(0.5f, 4, Priority::kBatch, "t1");
  fused.fused = true;
  const service::ServiceStats before = svc->stats();
  const auto results = svc->replay({cg, fused});
  const service::ServiceStats after = svc->stats();
  ASSERT_EQ(results.size(), 2u);
  const std::vector<std::int32_t> banded = union_find_labels(f.points, 0.5f, 4);
  for (const JobResult& r : results) {
    ASSERT_EQ(r.state, JobState::kCompleted);
    EXPECT_TRUE(r.fused);
    EXPECT_TRUE(r.coalesced);
    EXPECT_FALSE(r.cache_hit);
    EXPECT_EQ(r.device_id, 0);
    EXPECT_EQ(r.labels, banded);
  }
  EXPECT_EQ(after.clusterings_run - before.clusterings_run, 1u);
  EXPECT_EQ(after.coalesced_builds - before.coalesced_builds, 1u);
  EXPECT_EQ(after.fused_jobs - before.fused_jobs, 2u);
  EXPECT_EQ(after.cell_graph_jobs, before.cell_graph_jobs);
  EXPECT_EQ(svc->cache().size(), 0u);
}

/// A cell-graph job whose eps already has an exact table cached neither
/// hits that entry nor adds one: it runs the fused passes.
TEST(ClusterServiceTest, CellGraphJobBypassesAResidentCacheEntry) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.keep_labels = true;
  auto svc = f.make(opt);
  ASSERT_EQ(svc->replay({job(0.5f, 4)})[0].state, JobState::kCompleted);
  ASSERT_EQ(svc->cache().size(), 1u);
  const service::ServiceStats before = svc->stats();
  JobSpec cg = job(0.5f, 4, Priority::kNormal, "t1");
  cg.quality.mode = ClusterQuality::kCellGraph;
  const auto results = svc->replay({cg});
  const service::ServiceStats after = svc->stats();
  ASSERT_EQ(results[0].state, JobState::kCompleted);
  EXPECT_FALSE(results[0].cache_hit);
  EXPECT_TRUE(results[0].fused);
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  EXPECT_EQ(svc->cache().size(), 1u);
  EXPECT_EQ(results[0].labels, union_find_labels(f.points, 0.5f, 4));
}

/// With no device left, a cell-graph group the fused passes serve is
/// served like a fused group: those passes on the host, with the banded
/// pass's labels and no table.
TEST(ClusterServiceTest, CellGraphJobOnALostFleetMatchesTheFusedPath) {
  ServiceFixture f;
  f.lose_the_fleet();
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.keep_labels = true;
  ASSERT_TRUE(opt.host_fallback);
  auto svc = f.make(opt);
  ASSERT_TRUE(f.device->lost());
  JobSpec c1 = job(0.5f, 8, Priority::kNormal, "t0");
  JobSpec c2 = job(0.5f, 8, Priority::kInteractive, "t1");
  c1.quality.mode = c2.quality.mode = ClusterQuality::kCellGraph;
  const auto results = svc->replay({c1, c2});
  ASSERT_EQ(results.size(), 2u);
  const std::vector<std::int32_t> banded = union_find_labels(f.points, 0.5f, 8);
  for (const JobResult& r : results) {
    ASSERT_EQ(r.state, JobState::kCompleted);
    EXPECT_TRUE(r.host_fallback);
    EXPECT_TRUE(r.fused);
    EXPECT_EQ(r.device_id, -1);
    EXPECT_EQ(r.labels, banded);
  }
  const service::ServiceStats s = svc->stats();
  EXPECT_EQ(s.host_fallback_jobs, 2u);
  EXPECT_EQ(s.fused_jobs, 2u);
  EXPECT_EQ(s.cell_graph_jobs, 0u);
  EXPECT_EQ(s.clusterings_run, 1u);
  EXPECT_EQ(svc->cache().size(), 0u);
}

/// A cell-graph job never asked for a device: with the fleet lost and the
/// host rung off, it still completes through the fused passes on the
/// host, while the fused and exact jobs beside it fail with kDeviceLost.
TEST(ClusterServiceTest, CellGraphJobOnALostFleetCompletesWithoutHostFallback) {
  ServiceFixture f;
  f.lose_the_fleet();
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.keep_labels = true;
  opt.host_fallback = false;
  auto svc = f.make(opt);
  ASSERT_TRUE(f.device->lost());
  JobSpec cg = job(0.5f, 8, Priority::kNormal, "t0");
  cg.quality.mode = ClusterQuality::kCellGraph;
  JobSpec fused = job(0.5f, 8, Priority::kNormal, "t1");
  fused.fused = true;
  const auto results =
      svc->replay({cg, fused, job(0.5f, 8, Priority::kNormal, "t2")});
  ASSERT_EQ(results.size(), 3u);
  ASSERT_EQ(results[0].state, JobState::kCompleted);
  EXPECT_TRUE(results[0].fused);
  EXPECT_TRUE(results[0].host_fallback);
  EXPECT_FALSE(results[0].coalesced);  // its fused twin failed
  EXPECT_EQ(results[0].device_id, -1);
  EXPECT_EQ(results[0].labels, union_find_labels(f.points, 0.5f, 8));
  for (std::size_t i = 1; i < 3; ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(results[i].state, JobState::kFailed);
    EXPECT_EQ(results[i].failure, FailureReason::kDeviceLost);
  }
  const service::ServiceStats s = svc->stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.host_fallback_jobs, 1u);
  EXPECT_EQ(s.fused_jobs, 1u);
  EXPECT_EQ(s.cell_graph_jobs, 0u);
  EXPECT_EQ(s.clusterings_run, 1u);
  EXPECT_EQ(s.coalesced_builds, 0u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(svc->cache().size(), 0u);
}

/// Past the grid's capacity the host cell graph is a cell-graph job's only
/// run: the pair coalesces into one pass that occupies no device and
/// caches nothing, and gets the cell graph's labels.
TEST(ClusterServiceTest, CellGraphJobCompletesWithoutTableOrDevice) {
  ServiceFixture f;
  f.points = lattice_with_far_point();
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.keep_labels = true;
  auto svc = f.make(opt, kWideReferenceEps);
  JobSpec cg = job(kPastTheGridEps, 4);
  cg.quality.mode = ClusterQuality::kCellGraph;
  const auto results = svc->replay({cg, cg});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].state, JobState::kCompleted);
  ASSERT_EQ(results[1].state, JobState::kCompleted);
  // One host-side cell-graph pass served the coalesced pair; no device
  // was occupied and nothing was cached.
  EXPECT_EQ(results[0].device_id, -1);
  EXPECT_EQ(results[0].modeled_device_seconds, 0.0);
  EXPECT_FALSE(results[0].fused);
  EXPECT_TRUE(results[0].coalesced);
  EXPECT_EQ(results[0].labels, results[1].labels);
  EXPECT_EQ(results[0].labels,
            cell_graph_dbscan(f.points, kPastTheGridEps, 4,
                              cudasim::DeviceConfig{})
                .labels);
  EXPECT_EQ(svc->cache().size(), 0u);
  EXPECT_EQ(svc->stats().cell_graph_jobs, 2u);
  EXPECT_EQ(svc->stats().fused_jobs, 0u);
  EXPECT_EQ(svc->stats().clusterings_run, 1u);
  EXPECT_EQ(results[0].num_clusters, 1);
  EXPECT_EQ(results[0].noise_count, 1u);
}

/// Past the grid's capacity the cell graph is a cell-graph job's only
/// run, on no device; the service picks it for that (dataset, eps) whatever
/// the density says.
TEST(ClusterServiceTest, CellGraphJobPastTheGridStillRunsTheCellGraph) {
  ServiceFixture f;
  f.points = lattice_with_far_point();
  ServiceOptions opt;
  opt.num_workers = 1;
  auto svc = f.make(opt, kWideReferenceEps);
  JobSpec past = job(kPastTheGridEps, 4);
  past.quality.mode = ClusterQuality::kCellGraph;
  Rect2 extent;
  for (const Point2& p : f.points) extent.expand(p);
  ASSERT_THROW((void)grid_params(extent, kPastTheGridEps),
               std::invalid_argument);
  ASSERT_LT(cell_graph_dense_share(f.points, kPastTheGridEps, 4), 0.8);

  const service::ServiceStats before = svc->stats();
  const auto results = svc->replay({past});
  const service::ServiceStats after = svc->stats();
  ASSERT_EQ(results[0].state, JobState::kCompleted);
  EXPECT_EQ(results[0].device_id, -1);
  EXPECT_FALSE(results[0].fused);
  EXPECT_EQ(after.cell_graph_jobs - before.cell_graph_jobs, 1u);
  EXPECT_EQ(after.fused_jobs, before.fused_jobs);
}

/// 2,000 points on a 2.0 lattice plus one far point at (20000, 20000): at
/// eps 2.5 the dense grid fits its capacity with about 6.4e7 cells, 3.2e4
/// per point, while every eps/sqrt(2) cell holds one lattice point.
constexpr float kWideSparseEps = 2.5f;
std::vector<Point2> sparse_lattice_with_far_point() {
  std::vector<Point2> points;
  for (int i = 0; i < 2000; ++i) {
    points.push_back({2.0f * static_cast<float>(i % 50),
                      2.0f * static_cast<float>(i / 50)});
  }
  points.push_back({20000.0f, 20000.0f});
  return points;
}

/// A dense grid far bigger than its points is the cell graph's to serve,
/// though the grid could index the eps and no cell is dense: the fused
/// passes would build and upload one cell range per cell, where the cell
/// graph's key costs O(n + cells per axis). The job occupies no device.
TEST(ClusterServiceTest, CellGraphJobOnAWideSparseGridRunsTheCellGraph) {
  ServiceFixture f;
  f.points = sparse_lattice_with_far_point();
  Rect2 extent;
  for (const Point2& p : f.points) extent.expand(p);
  const std::uint64_t cells = grid_params(extent, kWideSparseEps).num_cells();
  ASSERT_LE(cells, kMaxGridCells);
  ASSERT_GT(cells, 1000 * f.points.size());
  ASSERT_EQ(cell_graph_dense_share(f.points, kWideSparseEps, 4), 0.0);
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.keep_labels = true;
  auto svc = f.make(opt, kWideReferenceEps);
  JobSpec cg = job(kWideSparseEps, 4);
  cg.quality.mode = ClusterQuality::kCellGraph;
  const service::ServiceStats before = svc->stats();
  const auto results = svc->replay({cg});
  const service::ServiceStats after = svc->stats();
  ASSERT_EQ(results[0].state, JobState::kCompleted);
  EXPECT_EQ(results[0].device_id, -1);
  EXPECT_FALSE(results[0].fused);
  EXPECT_EQ(results[0].labels,
            cell_graph_dbscan(f.points, kWideSparseEps, 4,
                              cudasim::DeviceConfig{})
                .labels);
  EXPECT_EQ(results[0].num_clusters, 1);
  EXPECT_EQ(results[0].noise_count, 1u);
  EXPECT_EQ(after.cell_graph_jobs - before.cell_graph_jobs, 1u);
  EXPECT_EQ(after.fused_jobs, before.fused_jobs);
}

/// Where most points sit in dense eps/sqrt(2) cells, the cell graph makes
/// them core with no distance test and beats the fused passes, so a
/// cell-graph job runs it, on no device; at a small eps on the same
/// dataset the fused passes serve it. A fused job beside the dense one
/// keeps its own run: the two never share one.
TEST(ClusterServiceTest, CellGraphJobOnDenseCellsRunsTheCellGraph) {
  ServiceFixture f;
  constexpr float kDenseEps = 1.5f;
  ASSERT_GE(cell_graph_dense_share(f.points, kDenseEps, 4), 0.8);
  ASSERT_LT(cell_graph_dense_share(f.points, 0.5f, 4), 0.8);
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.keep_labels = true;
  auto svc = f.make(opt);
  JobSpec dense = job(kDenseEps, 4, Priority::kNormal, "t0");
  dense.quality.mode = ClusterQuality::kCellGraph;
  JobSpec fused = job(kDenseEps, 4, Priority::kNormal, "t1");
  fused.fused = true;
  JobSpec sparse = job(0.5f, 4, Priority::kNormal, "t2");
  sparse.quality.mode = ClusterQuality::kCellGraph;
  const auto results = svc->replay({dense, fused, sparse});
  ASSERT_EQ(results.size(), 3u);
  for (const JobResult& r : results) {
    ASSERT_EQ(r.state, JobState::kCompleted);
    EXPECT_FALSE(r.coalesced);
  }
  EXPECT_EQ(results[0].device_id, -1);
  EXPECT_FALSE(results[0].fused);
  EXPECT_EQ(results[0].labels,
            cell_graph_dbscan(f.points, kDenseEps, 4, cudasim::DeviceConfig{})
                .labels);
  EXPECT_EQ(results[1].device_id, 0);
  EXPECT_TRUE(results[1].fused);
  EXPECT_EQ(results[1].labels, union_find_labels(f.points, kDenseEps, 4));
  EXPECT_EQ(results[2].device_id, 0);
  EXPECT_TRUE(results[2].fused);
  EXPECT_EQ(results[2].labels, union_find_labels(f.points, 0.5f, 4));
  const service::ServiceStats s = svc->stats();
  EXPECT_EQ(s.cell_graph_jobs, 1u);
  EXPECT_EQ(s.fused_jobs, 2u);
  EXPECT_EQ(s.clusterings_run, 3u);
  EXPECT_EQ(s.coalesced_builds, 0u);
}

/// An exact or fused job whose eps the dense grid cannot index is an input
/// fault: admission rejects it with a reason naming the grid's capacity,
/// so it costs no retry and strikes no breaker, and the cell-graph job
/// beside it completes. On a lost fleet the same jobs must not reach the
/// host rung's grid build, whose throw would end the worker thread.
TEST(ClusterServiceTest, JobsPastTheGridAreRejectedAtAdmissionOnBothFleets) {
  for (const bool lost : {false, true}) {
    SCOPED_TRACE(lost ? "lost fleet" : "live fleet");
    ServiceFixture f;
    f.points = lattice_with_far_point();
    if (lost) f.lose_the_fleet();
    ServiceOptions opt;
    opt.num_workers = 1;
    opt.cache_bytes_budget = 256ull << 20;
    ASSERT_TRUE(opt.host_fallback);
    auto svc = f.make(opt, kWideReferenceEps);
    ASSERT_EQ(f.device->lost(), lost);
    JobSpec exact = job(kPastTheGridEps, 4, Priority::kNormal, "t0");
    JobSpec fused = job(kPastTheGridEps, 4, Priority::kNormal, "t1");
    fused.fused = true;
    JobSpec cg = job(kPastTheGridEps, 4, Priority::kNormal, "t2");
    cg.quality.mode = ClusterQuality::kCellGraph;
    const auto results = svc->replay({exact, fused, cg});
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 0; i < 2; ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      EXPECT_EQ(results[i].state, JobState::kRejected);
      EXPECT_EQ(results[i].retries, 0u);
      EXPECT_EQ(results[i].device_id, -1);
      const std::string& why = results[i].reject_reason;
      EXPECT_NE(why.find("eps 0.3"), std::string::npos) << why;
      EXPECT_NE(why.find("capacity of " + std::to_string(kMaxGridCells)),
                std::string::npos)
          << why;
    }
    EXPECT_EQ(results[2].state, JobState::kCompleted);
    EXPECT_EQ(results[2].device_id, -1);
    EXPECT_EQ(results[2].noise_count, 1u);
    const service::ServiceStats s = svc->stats();
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.breaker_opens, 0u);
    EXPECT_EQ(s.cell_graph_jobs, 1u);
  }
}

/// One far point at (2e6, 0) puts the extent past the cell key's 2^21
/// cells per axis at eps 1, but inside the dense grid's capacity (2e6
/// cells), so a cell-graph job there completes through the fused passes,
/// however big that grid is for its points. Only an input past both
/// limits has no run: admission rejects the job with a reason naming
/// both (no retry, no breaker strike, no failed request: the input will
/// not change), while a table job on the same dataset still completes.
TEST(ClusterServiceTest, CellGraphJobPastTheCellKeyRunsFusedOrIsRejected) {
  {
    SCOPED_TRACE("past the cell key only");
    ServiceFixture f;
    f.points = data::generate_uniform(200, 5, 12.0f, 0.9f);
    f.points.push_back({2e6f, 0.0f});
    ServiceOptions opt;
    opt.num_workers = 2;
    opt.keep_labels = true;
    auto svc = f.make(opt);
    JobSpec cg = job(1.0f, 4);
    cg.quality.mode = ClusterQuality::kCellGraph;
    const auto results = svc->replay({cg, job(1.0f, 4)});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].state, JobState::kCompleted);
    EXPECT_TRUE(results[0].fused);
    EXPECT_EQ(results[0].noise_count, 1u);
    EXPECT_EQ(results[0].labels, union_find_labels(f.points, 1.0f, 4));
    EXPECT_EQ(results[1].state, JobState::kCompleted);
    EXPECT_EQ(results[1].noise_count, 1u);
    EXPECT_EQ(svc->stats().fused_jobs, 1u);
    EXPECT_EQ(svc->stats().cell_graph_jobs, 0u);
    EXPECT_EQ(svc->stats().failed, 0u);
  }
  SCOPED_TRACE("past both limits");
  ServiceFixture f;
  f.points = data::generate_uniform(200, 5, 12.0f, 0.9f);
  f.points.push_back({2e6f, 2e6f});
  constexpr float kTableEps = 4000.0f;  // a 500 x 500 grid
  ServiceOptions opt;
  opt.num_workers = 2;
  opt.keep_labels = true;
  auto svc = f.make(opt, kTableEps);
  JobSpec cg = job(1.0f, 4);
  cg.quality.mode = ClusterQuality::kCellGraph;
  const auto results = svc->replay({cg, job(kTableEps, 4)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].state, JobState::kRejected);
  EXPECT_EQ(results[0].retries, 0u);
  const std::string& why = results[0].reject_reason;
  EXPECT_NE(why.find("eps 1 on dataset 'sky'"), std::string::npos) << why;
  EXPECT_NE(why.find("capacity of " + std::to_string(kMaxGridCells)),
            std::string::npos)
      << why;
  EXPECT_NE(why.find("cell key"), std::string::npos) << why;
  EXPECT_EQ(results[1].state, JobState::kCompleted);
  EXPECT_EQ(results[1].noise_count, 1u);
  EXPECT_EQ(svc->stats().retries, 0u);
  EXPECT_EQ(svc->stats().breaker_opens, 0u);
  EXPECT_EQ(svc->stats().cell_graph_jobs, 0u);

  const auto again = svc->replay({job(kTableEps, 8), cg});
  EXPECT_EQ(again[0].state, JobState::kCompleted);
  EXPECT_EQ(again[1].state, JobState::kRejected);
  EXPECT_EQ(svc->stats().rejected, 2u);
  EXPECT_EQ(svc->stats().failed, 0u);
}

/// A job that is both fused and cell-graph asks for one thing: the fused
/// run, with the banded pass's labels.
TEST(ClusterServiceTest, FusedCellGraphJobCompletesAsAFusedRun) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.keep_labels = true;
  auto svc = f.make(opt);
  JobSpec both = job(0.5f, 4);
  both.fused = true;
  both.quality.mode = ClusterQuality::kCellGraph;
  const auto results = svc->replay({both});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, JobState::kCompleted);
  EXPECT_TRUE(results[0].fused);
  EXPECT_EQ(results[0].labels, union_find_labels(f.points, 0.5f, 4));
  EXPECT_EQ(svc->stats().fused_jobs, 1u);
  EXPECT_EQ(svc->stats().cell_graph_jobs, 0u);
}

TEST(ClusterServiceTest, PublishesRequestOutcomeCounters) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset_values();
  ServiceFixture f;
  ServiceOptions opt;
  opt.queue_bytes_budget = 1;
  opt.num_workers = 1;
  auto svc = f.make(opt);
  (void)svc->replay({job(0.4f), job(0.5f)});
  EXPECT_EQ(reg.counter("service_requests", "outcome=completed").value(), 1u);
  EXPECT_EQ(reg.counter("service_requests", "outcome=rejected").value(), 1u);
  EXPECT_EQ(reg.counter("service_requests", "outcome=admitted").value(), 1u);
}

// ---------------------------------------------------------------------------
// Grid-index cache and re-registration
// ---------------------------------------------------------------------------

/// Grid indexes the service built since `before`.
std::uint64_t index_builds_since(const ClusterService& svc,
                                 const service::ServiceStats& before) {
  return svc.stats().index_builds - before.index_builds;
}

/// One index per (dataset, eps) serves every run at that eps: table,
/// fused and fused-routed cell-graph groups build it once between them,
/// the calibration grid serves the reference eps, and a repeated job list
/// builds nothing. Labels stay those of an index built per group.
TEST(ClusterServiceTest, IndexIsBuiltOncePerEpsAndSharedByEveryRun) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.coalesce = false;  // every job is a group of its own
  opt.keep_labels = true;
  constexpr float kRef = 0.8f;
  auto svc = f.make(opt, kRef);
  EXPECT_EQ(svc->stats().index_builds, 1u);  // the calibration grid

  for (const float eps : {0.5f, kRef}) {
    SCOPED_TRACE("eps " + std::to_string(eps));
    // Two exact jobs, a fused one and a cell-graph one, whose cheaper run
    // on these sparse points is the fused passes.
    JobSpec fused = job(eps, 4, Priority::kNormal, "t1");
    fused.fused = true;
    JobSpec cg = job(eps, 8, Priority::kNormal, "t2");
    cg.quality.mode = ClusterQuality::kCellGraph;
    const std::vector<JobSpec> jobs = {job(eps, 4), job(eps, 8), fused, cg};
    service::ServiceStats before = svc->stats();
    const auto results = svc->replay(jobs);
    EXPECT_EQ(index_builds_since(*svc, before), eps == kRef ? 0u : 1u);
    for (const JobResult& r : results) {
      ASSERT_EQ(r.state, JobState::kCompleted);
    }
    EXPECT_TRUE(results[2].fused);
    EXPECT_TRUE(results[3].fused);
    EXPECT_EQ(svc->stats().cell_graph_jobs, 0u);
    EXPECT_EQ(results[2].labels, union_find_labels(f.points, eps, 4));
    EXPECT_EQ(results[3].labels, union_find_labels(f.points, eps, 8));

    before = svc->stats();
    const auto again = svc->replay(jobs);
    EXPECT_EQ(index_builds_since(*svc, before), 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_EQ(again[i].state, JobState::kCompleted);
      EXPECT_EQ(again[i].labels, results[i].labels) << "job " << i;
    }
    EXPECT_TRUE(again[0].cache_hit);
  }
}

/// A dataset keeps the indexes of its kMaxDatasetIndexes most recently
/// used eps: one eps more evicts the least recently used one, which the
/// next job at that eps builds again.
TEST(ClusterServiceTest, IndexCacheEvictsTheLeastRecentlyUsedEps) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  auto svc = f.make(opt, 0.8f);
  constexpr std::size_t kBound = ClusterService::kMaxDatasetIndexes;
  std::vector<JobSpec> fill;
  for (std::size_t i = 0; i < kBound; ++i) {
    fill.push_back(job(0.3f + 0.02f * static_cast<float>(i)));
  }
  const auto builds = [&](const std::vector<JobSpec>& jobs) {
    const service::ServiceStats before = svc->stats();
    for (const JobResult& r : svc->replay(jobs)) {
      EXPECT_EQ(r.state, JobState::kCompleted);
    }
    return index_builds_since(*svc, before);
  };
  // kBound new eps: the calibration grid at 0.8 was the least recently
  // used, so it is out.
  EXPECT_EQ(builds(fill), kBound);
  EXPECT_EQ(builds({job(0.8f)}), 1u);
  // 0.8 took the place of fill[0], the least recently used since; the
  // rest are resident.
  EXPECT_EQ(builds({fill.begin() + 1, fill.end()}), 0u);
  EXPECT_EQ(builds({fill.front()}), 1u);
}

/// Registering a name again replaces its dataset and the indexes built
/// from it: the calibration grid of the new registration is the only one
/// it holds.
TEST(ClusterServiceTest, ReRegisteredDatasetRebuildsItsIndexes) {
  ServiceFixture f;
  ServiceOptions opt;
  opt.num_workers = 1;
  auto svc = f.make(opt, 0.8f);
  service::ServiceStats before = svc->stats();
  ASSERT_EQ(svc->replay({job(0.5f)})[0].state, JobState::kCompleted);
  EXPECT_EQ(index_builds_since(*svc, before), 1u);

  before = svc->stats();
  svc->register_dataset("sky", f.points, 0.8f);
  EXPECT_EQ(index_builds_since(*svc, before), 1u);  // its calibration grid
  before = svc->stats();
  ASSERT_EQ(svc->replay({job(0.5f), job(0.8f)})[0].state,
            JobState::kCompleted);
  EXPECT_EQ(index_builds_since(*svc, before), 1u);  // 0.5 only
}

/// Re-registering a name with other points drops the old points' tables:
/// the same exact job then misses the cache and gets the labels a fresh
/// service gives the new points.
TEST(ClusterServiceTest, ReRegisteredDatasetMissesItsOldTables) {
  cudasim::Device device(cudasim::DeviceConfig{}, fast_options());
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.keep_labels = true;
  JobSpec exact = job(0.3f, 4);
  exact.dataset = "d";
  const std::vector<Point2> old_points =
      data::generate_uniform(2000, 31, 12.0f, 12.0f);
  const std::vector<Point2> new_points =
      data::generate_uniform(3000, 32, 12.0f, 12.0f);

  ClusterService svc({&device}, opt);
  svc.register_dataset("d", old_points, 0.8f);
  const auto first = svc.replay({exact});
  ASSERT_EQ(first[0].state, JobState::kCompleted);
  EXPECT_EQ(first[0].labels.size(), old_points.size());
  EXPECT_EQ(svc.cache().size(), 1u);

  svc.register_dataset("d", new_points, 0.8f);
  EXPECT_EQ(svc.cache().size(), 0u);
  const auto second = svc.replay({exact});
  ASSERT_EQ(second[0].state, JobState::kCompleted);
  EXPECT_FALSE(second[0].cache_hit);
  ASSERT_EQ(second[0].labels.size(), new_points.size());

  ClusterService fresh({&device}, opt);
  fresh.register_dataset("d", new_points, 0.8f);
  const auto want = fresh.replay({exact});
  ASSERT_EQ(want[0].state, JobState::kCompleted);
  EXPECT_EQ(second[0].labels, want[0].labels);
}

/// With no device left, the host rung runs over the cached index too: a
/// table group builds it, and a fused group at the same eps and any job
/// at the reference eps reuse it.
TEST(ClusterServiceTest, LostFleetHostRungReusesTheCachedIndex) {
  ServiceFixture f;
  f.lose_the_fleet();
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.cache_bytes_budget = 256ull << 20;
  opt.keep_labels = true;
  auto svc = f.make(opt, 0.8f);
  ASSERT_TRUE(f.device->lost());
  JobSpec fused = job(0.5f, 4, Priority::kNormal, "t1");
  fused.fused = true;
  const service::ServiceStats before = svc->stats();
  const auto results = svc->replay({job(0.5f, 4), fused, job(0.8f, 4)});
  EXPECT_EQ(index_builds_since(*svc, before), 1u);
  for (const JobResult& r : results) {
    ASSERT_EQ(r.state, JobState::kCompleted);
    EXPECT_TRUE(r.host_fallback);
  }
  EXPECT_TRUE(results[1].fused);
  EXPECT_EQ(results[1].labels, union_find_labels(f.points, 0.5f, 4));
  EXPECT_EQ(svc->stats().host_fallback_jobs, 3u);
}

}  // namespace
}  // namespace hdbscan
