#include "core/neighbor_table_builder.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/report_metrics.hpp"
#include "cudasim/buffer_pool.hpp"
#include "cudasim/error.hpp"
#include "cudasim/sort.hpp"
#include "cudasim/stream.hpp"
#include "gpu/bvh_device_index.hpp"
#include "gpu/device_index.hpp"
#include "gpu/kernels.hpp"
#include "index/bvh.hpp"
#include "index/rtree.hpp"
#include "obs/trace.hpp"

namespace hdbscan {

namespace {

/// Everything one (device, stream) pair needs to process its batches.
/// All tallies are context-private: the stream thread appends into its own
/// shard of T lock-free, and the builder harvests the numbers after the
/// streams synchronize — the shared mutex never sits on the batch path.
/// Every device buffer a batch touches is checked out here, so once the
/// context exists the batch path allocates no device memory at all.
struct StreamContext {
  StreamContext(cudasim::Device& device_in, const GridView& view_in,
                std::uint64_t buffer_pairs, std::uint32_t max_batch_points,
                unsigned timeline_id_in)
      : device(device_in),
        view(view_in),
        timeline_id(timeline_id_in),
        stream(device_in),
        shard(view_in.num_points),
        counts(device_in, max_batch_points),
        values(device_in, buffer_pairs),
        offsets_staging(device_in, max_batch_points),
        values_staging(device_in, buffer_pairs) {}

  /// Pinned staging bytes that required a *fresh* page-lock this build
  /// (pool hits were locked by an earlier build and cost nothing now).
  /// Feeds the modeled page-lock charge, which is why the N-variant reuse
  /// sweep pays the pinned-allocation cost only on its first variant.
  [[nodiscard]] std::uint64_t fresh_pinned_bytes() const noexcept {
    std::uint64_t b = 0;
    if (offsets_staging.fresh()) b += offsets_staging.bytes();
    if (values_staging.fresh()) b += values_staging.bytes();
    return b;
  }

  cudasim::Device& device;
  GridView view;
  /// Which index the traversal kernels run against. kBvh contexts also
  /// carry a device BVH view; the grid view stays for the batch-domain
  /// arithmetic (query_count) and the estimation kernel.
  IndexBackend backend = IndexBackend::kGrid;
  BvhView bvh_view{};
  /// Per-pair Bernoulli filter the traversal kernels apply (exact builds
  /// carry the default no-op spec). Copied from the policy when the
  /// context is created so retries and failover re-run the same sample.
  QualitySpec quality{};
  unsigned timeline_id;  ///< index into the per-context model timelines
  cudasim::Stream stream;

  /// Private fraction of T; merged into the final table exactly once.
  NeighborTable shard;

  // --- two-pass CSR pipeline state (pool-backed: returned to the device's
  // BufferPool on destruction, so the next build over the same device
  // checks the same memory back out instead of re-allocating) ---
  cudasim::PooledDeviceBuffer<std::uint32_t> counts;
  cudasim::PooledDeviceBuffer<PointId> values;
  cudasim::PooledPinnedBuffer<std::uint32_t> offsets_staging;
  cudasim::PooledPinnedBuffer<PointId> values_staging;

  // --- streaming delivery state (CSR + sink builds) ---
  /// Host scratch for reconstructing pass-1 counts from the scanned
  /// offsets (counts[g] = offsets[g+1] - offsets[g]); reused per batch.
  std::vector<std::uint32_t> counts_scratch;

  // --- context-private tallies (harvested after synchronize) ---
  double device_model = 0.0;    ///< modeled device seconds on this timeline
  double consume_seconds = 0.0; ///< measured host CPU inside sink callbacks
  std::uint64_t sink_batches = 0;
  std::uint64_t sink_count_batches = 0;
  double append_seconds = 0.0;  ///< measured host CPU time appending into T
  double kernel_modeled = 0.0;
  double scan_modeled = 0.0;
  std::uint64_t total_pairs = 0;
  std::uint64_t max_batch_pairs = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t kernel_flops = 0;
  std::uint64_t kernel_global_bytes = 0;
  std::uint32_t batches_run = 0;
  std::uint32_t overflow_splits = 0;
};

/// One unit of batch work. Strided batches cover disjoint key sets and a
/// batch's shard append is its final step, so an item that faulted mid-way
/// can always be re-run in full — on the same context, a surviving one, or
/// the host — without duplicating keys.
struct WorkItem {
  gpu::BatchSpec spec;
  unsigned depth = 0;              ///< overflow splits applied
  unsigned transient_retries = 0;  ///< TransientKernelFault retries so far
  /// The sink already received this lineage's pass-1 counts. The flag
  /// rides through retries, splits and failover (push_halves and the
  /// orphan pool copy the item), which is what makes count delivery
  /// exactly-once: a split half or a retried launch re-runs its kernels
  /// but never re-adds degrees the parent item already delivered.
  bool counts_delivered = false;
};

/// Mutex-protected batch queue shared by every context's pump. Each
/// context owns a sub-queue (the round-robin assignment, so every device
/// keeps its share of the work and the modeled timelines stay balanced)
/// plus one orphan pool holding work pushed back by dead contexts — the
/// only items a foreign pump will pick up. Items only leave the queue for
/// the duration of one processing attempt; any failure that is not a hard
/// error pushes the item (or its two halves) back.
class WorkQueue {
 public:
  explicit WorkQueue(std::size_t num_contexts) : owned_(num_contexts) {}

  /// Queue an item on `ctx`'s own sub-queue (initial assignment, splits,
  /// transient retries — work that stays with its context).
  void push(std::size_t ctx, WorkItem item) {
    std::lock_guard lock(mutex_);
    owned_[ctx].push_back(item);
  }

  /// Queue an item for whoever gets to it first (failover).
  void push_orphan(WorkItem item) {
    std::lock_guard lock(mutex_);
    orphans_.push_back(item);
  }

  /// Move everything `ctx` still owns into the orphan pool — called when
  /// its device is lost, so survivors inherit the unfinished share.
  void orphan_context(std::size_t ctx) {
    std::lock_guard lock(mutex_);
    while (!owned_[ctx].empty()) {
      orphans_.push_back(owned_[ctx].front());
      owned_[ctx].pop_front();
    }
  }

  /// Pop `ctx`'s next item, falling back to the orphan pool.
  bool pop(std::size_t ctx, WorkItem& out) {
    std::lock_guard lock(mutex_);
    if (!owned_[ctx].empty()) {
      out = owned_[ctx].front();
      owned_[ctx].pop_front();
      return true;
    }
    if (!orphans_.empty()) {
      out = orphans_.front();
      orphans_.pop_front();
      return true;
    }
    return false;
  }

  [[nodiscard]] bool empty() {
    std::lock_guard lock(mutex_);
    if (!orphans_.empty()) return false;
    for (const auto& q : owned_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  /// Removes and returns everything still queued (the host-fallback path).
  [[nodiscard]] std::vector<WorkItem> drain() {
    std::lock_guard lock(mutex_);
    std::vector<WorkItem> v(orphans_.begin(), orphans_.end());
    orphans_.clear();
    for (auto& q : owned_) {
      v.insert(v.end(), q.begin(), q.end());
      q.clear();
    }
    return v;
  }

 private:
  std::mutex mutex_;
  std::vector<std::deque<WorkItem>> owned_;
  std::deque<WorkItem> orphans_;
};

/// State shared by all pumps: the first non-recoverable error plus the
/// cross-context resilience tallies (appends stay shard-local; this mutex
/// is touched only on faults and errors, never on the happy path).
struct SharedBuildState {
  std::mutex mutex;
  std::exception_ptr hard_error;
  std::uint32_t transient_retries = 0;
  std::uint32_t failover_batches = 0;

  void set_hard_error(std::exception_ptr e) {
    std::lock_guard lock(mutex);
    if (!hard_error) hard_error = std::move(e);
  }

  [[nodiscard]] bool has_hard_error() {
    std::lock_guard lock(mutex);
    return hard_error != nullptr;
  }
};

[[noreturn]] void throw_split_exhausted(const gpu::BatchSpec& spec,
                                        unsigned depth,
                                        unsigned max_split_depth) {
  throw std::runtime_error(
      "neighbor table build: batch " + std::to_string(spec.batch) + "/" +
      std::to_string(spec.num_batches) + " exceeds the result buffer at "
      "split depth " + std::to_string(depth) + " (max_split_depth=" +
      std::to_string(max_split_depth) +
      "); buffer too small for the data density");
}

/// (l, n_b) == (l, 2 n_b) u (l + n_b, 2 n_b): same points, half each.
/// The halves stay on the splitting context's sub-queue.
void push_halves(WorkQueue& queue, std::size_t ctx, const WorkItem& item) {
  WorkItem half = item;
  half.depth = item.depth + 1;
  half.spec = {item.spec.batch, item.spec.num_batches * 2};
  queue.push(ctx, half);
  half.spec = {item.spec.batch + item.spec.num_batches,
               item.spec.num_batches * 2};
  queue.push(ctx, half);
}

/// Two-pass CSR pipeline: count kernel -> exclusive scan (exact batch
/// size) -> D2H offsets (+ count delivery to the sink) -> fill kernel into
/// exact slots -> D2H values -> shard append -> row delivery to the sink.
/// A batch whose exact size exceeds the value buffer splits *before* any
/// fill work runs — and before anything is delivered, so split halves
/// deliver themselves. Under ScanMode::kHalf both passes walk only the
/// forward half of the stencil (counts stay atomic-free) and the CSR rows
/// that cross PCIe are forward rows.
void process_batch_csr(StreamContext& sc, ScanMode scan, float eps,
                       WorkItem& item, unsigned block_size,
                       WorkQueue& queue, unsigned max_split_depth,
                       BatchSink* sink, bool materialize) {
  const gpu::BatchSpec spec = item.spec;
  // Query domain, not resident count: on a shard slab the ghost points
  // hold no batch slots (the kernels never write counts for them).
  const std::uint32_t pts = spec.points_in_batch(sc.view.query_count());
  if (pts == 0) return;
  TRACE_SPAN("batch", "batch %u/%u d%u", spec.batch, spec.num_batches,
             sc.device.id());

  const cudasim::KernelStats count_stats =
      sc.backend == IndexBackend::kBvh
          ? gpu::run_count_batch(sc.device, sc.bvh_view, eps, spec,
                                 sc.counts.device_data(), scan, block_size,
                                 sc.quality)
          : gpu::run_count_batch(sc.device, sc.view, eps, spec,
                                 sc.counts.device_data(), scan, block_size,
                                 sc.quality);
  ++sc.batches_run;
  sc.kernel_modeled += count_stats.modeled_seconds;
  sc.device_model += count_stats.modeled_seconds;
  sc.atomic_ops += count_stats.work.atomic_ops;
  sc.kernel_flops += count_stats.work.flops;
  sc.kernel_global_bytes += count_stats.work.global_bytes;

  // Exact batch size; counts become exclusive CSR offsets in place.
  const std::uint64_t total = cudasim::exclusive_scan(sc.device, sc.counts,
                                                      pts);
  const double scan_s = cudasim::modeled_scan_seconds(
      sc.device.config(), pts * sizeof(std::uint32_t));
  sc.scan_modeled += scan_s;
  sc.device_model += scan_s;

  if (total > sc.values.size()) {
    if (item.depth >= max_split_depth) {
      throw_split_exhausted(spec, item.depth, max_split_depth);
    }
    ++sc.overflow_splits;
    TRACE_INSTANT("resilience", "overflow_split %u/%u", spec.batch,
                  spec.num_batches);
    push_halves(queue, sc.timeline_id, item);
    return;
  }

  // Ship the scanned offsets now — they are final before the fill pass
  // runs (the fill kernel reads them as const), and shipping them early
  // lets a streaming sink resolve per-key degrees (hence core flags)
  // while the fill kernel is still distance-testing. Same bytes as the
  // old post-fill offsets transfer, just earlier on the timeline.
  const std::uint64_t offset_bytes = pts * sizeof(std::uint32_t);
  sc.device.blocking_transfer(sc.offsets_staging.data(),
                              sc.counts.device_data(), offset_bytes,
                              /*to_device=*/false, /*pinned_host=*/true);
  sc.device_model += cudasim::modeled_transfer_seconds(
      sc.device.config(), offset_bytes, /*pinned=*/true);
  sc.d2h_bytes += offset_bytes;

  if (sink != nullptr && !item.counts_delivered) {
    // Exclusive offsets + the exact total reconstruct the pass-1 counts
    // without a second transfer: counts[g] = offsets[g+1] - offsets[g].
    sc.counts_scratch.resize(pts);
    const std::uint32_t* offs = sc.offsets_staging.data();
    for (std::uint32_t g = 0; g + 1 < pts; ++g) {
      sc.counts_scratch[g] = offs[g + 1] - offs[g];
    }
    sc.counts_scratch[pts - 1] =
        static_cast<std::uint32_t>(total) - offs[pts - 1];
    hdbscan::ThreadCpuTimer consume_timer;
    sink->consume_counts(CountDelivery{
        spec.batch, spec.num_batches, scan,
        {sc.counts_scratch.data(), pts}, {}});
    sc.consume_seconds += consume_timer.seconds();
    ++sc.sink_count_batches;
    item.counts_delivered = true;
  }

  const cudasim::KernelStats fill_stats =
      sc.backend == IndexBackend::kBvh
          ? gpu::run_fill_csr(sc.device, sc.bvh_view, eps, spec,
                              sc.counts.device_data(),
                              sc.values.device_data(), scan, block_size,
                              sc.quality)
          : gpu::run_fill_csr(sc.device, sc.view, eps, spec,
                              sc.counts.device_data(),
                              sc.values.device_data(), scan, block_size,
                              sc.quality);
  sc.kernel_modeled += fill_stats.modeled_seconds;
  sc.device_model += fill_stats.modeled_seconds;
  sc.atomic_ops += fill_stats.work.atomic_ops;
  sc.kernel_flops += fill_stats.work.flops;
  sc.kernel_global_bytes += fill_stats.work.global_bytes;

  // D2H: bare values only — the per-point offsets are already host-side
  // and no keys cross the wire.
  const std::uint64_t value_bytes = total * sizeof(PointId);
  sc.device.blocking_transfer(sc.values_staging.data(),
                              sc.values.device_data(), value_bytes,
                              /*to_device=*/false, /*pinned_host=*/true);
  sc.device_model += cudasim::modeled_transfer_seconds(
      sc.device.config(), value_bytes, /*pinned=*/true);
  sc.d2h_bytes += value_bytes;

  if (materialize) {
    hdbscan::ThreadCpuTimer append_timer;
    sc.shard.append_csr_batch(spec.batch, spec.num_batches,
                              {sc.offsets_staging.data(), pts},
                              {sc.values_staging.data(), total});
    sc.append_seconds += append_timer.seconds();
  }
  if (sink != nullptr) {
    // Row delivery is the batch's last step: any fault before this point
    // re-runs the item without the sink ever having seen these rows.
    hdbscan::ThreadCpuTimer consume_timer;
    sink->consume(BatchDelivery{spec.batch, spec.num_batches, scan,
                                item.counts_delivered,
                                {sc.offsets_staging.data(), pts},
                                {sc.values_staging.data(), total}, {}});
    sc.consume_seconds += consume_timer.seconds();
    ++sc.sink_batches;
  }
  sc.total_pairs += total;
  sc.max_batch_pairs = std::max(sc.max_batch_pairs, total);
}

/// One context's work pump, run on its stream thread. Pops items until the
/// queue is dry, applying the degradation ladder on faults:
///   * TransientKernelFault — the launch did no work; retry the item up to
///     max_transient_retries times before it becomes a hard error.
///   * DeviceLost          — the context is dead; requeue the item for a
///     survivor (or the host) and exit the pump.
/// Anything else is a hard error: recorded once, every pump winds down,
/// and build() rethrows only after all streams have drained. (A batch
/// allocates no device memory, so out-of-memory is a setup-time rung.)
void pump(StreamContext& sc, WorkQueue& queue, SharedBuildState& state,
          ScanMode scan, float eps, unsigned block_size,
          const ResiliencePolicy& res, unsigned max_split_depth,
          BatchSink* sink, bool materialize, const CancelToken* cancel) {
  const std::size_t ctx = sc.timeline_id;
  WorkItem item;
  while (queue.pop(ctx, item)) {
    if (state.has_hard_error()) {
      queue.push(ctx, item);
      return;
    }
    // Cooperative cancellation, polled once per batch: becomes a hard
    // error so every pump winds down, streams drain, and the unwind
    // returns the pooled buffers. The item goes back so the unfinished
    // count in diagnostics stays truthful.
    if (cancel != nullptr && cancel->cancelled()) {
      queue.push(ctx, item);
      state.set_hard_error(
          std::make_exception_ptr(OperationCancelled(cancel->reason())));
      return;
    }
    try {
      process_batch_csr(sc, scan, eps, item, block_size, queue,
                        max_split_depth, sink, materialize);
    } catch (const cudasim::TransientKernelFault&) {
      if (item.transient_retries < res.max_transient_retries) {
        ++item.transient_retries;
        TRACE_INSTANT("resilience", "retry %u/%u try=%u", item.spec.batch,
                      item.spec.num_batches, item.transient_retries);
        {
          std::lock_guard lock(state.mutex);
          ++state.transient_retries;
        }
        queue.push(ctx, item);
        continue;
      }
      state.set_hard_error(std::current_exception());
      return;
    } catch (const cudasim::DeviceLost&) {
      if (res.failover || res.host_fallback) {
        TRACE_INSTANT("resilience", "failover %u/%u", item.spec.batch,
                      item.spec.num_batches);
        {
          std::lock_guard lock(state.mutex);
          ++state.failover_batches;
        }
        // The in-flight item and everything this context still owned go
        // to the orphan pool, where a surviving context inherits them.
        queue.push_orphan(item);
        queue.orphan_context(ctx);
        return;
      }
      state.set_hard_error(std::current_exception());
      return;
    } catch (...) {
      state.set_hard_error(std::current_exception());
      return;
    }
  }
}

}  // namespace

NeighborTableBuilder::NeighborTableBuilder(
    std::vector<cudasim::Device*> devices, BatchPolicy policy)
    : devices_(std::move(devices)), policy_(policy) {
  if (devices_.empty()) {
    throw std::invalid_argument("NeighborTableBuilder: no devices");
  }
  for (const cudasim::Device* d : devices_) {
    if (d == nullptr) {
      throw std::invalid_argument("NeighborTableBuilder: null device");
    }
  }
}

NeighborTable NeighborTableBuilder::build(const GridIndex& index, float eps,
                                          BuildReport* report,
                                          BatchSink* sink,
                                          bool materialize_table) {
  try {
    return build_impl(index, eps, report, sink, materialize_table);
  } catch (...) {
    // Stamp the structured cause for callers that isolate the failure
    // (pipeline variants, the chaos CLI, the service) before they lose the
    // exception's type to a catch-all.
    if (report != nullptr) report->failure = classify_current_exception();
    throw;
  }
}

NeighborTable NeighborTableBuilder::build_impl(const GridIndex& index,
                                               float eps, BuildReport* report,
                                               BatchSink* sink,
                                               bool materialize_table) {
  TRACE_SPAN("build", "table_build n=%zu", index.size());
  if (!materialize_table && sink == nullptr) {
    throw std::invalid_argument(
        "NeighborTableBuilder: materialize_table=false without a sink "
        "would discard the build");
  }
  const bool use_bvh = policy_.index_backend == IndexBackend::kBvh;
  if (use_bvh &&
      (!index.emit_ids.empty() || index.query_count() != index.size())) {
    throw std::invalid_argument(
        "NeighborTableBuilder: IndexBackend::kBvh supports whole-index "
        "builds only; sharded slabs keep the grid backend");
  }
  const bool materialize = materialize_table;
  check_cancel(policy_.cancel);  // cheapest point to abandon: no device work yet
  WallTimer total_timer;
  BuildReport local_report;
  local_report.scan_mode = policy_.scan_mode;
  local_report.index_backend = policy_.index_backend;
  local_report.streamed = sink != nullptr;
  local_report.table_materialized = materialize;
  const ResiliencePolicy& res = policy_.resilience;

  // When every rung of the ladder above it has failed (or every device
  // failed setup), the whole table is built host-side in one go.
  auto full_host_fallback = [&]() -> NeighborTable {
    TRACE_SPAN("host", "host_fallback_full");
    check_cancel(policy_.cancel);
    local_report.used_host_fallback = true;
    // The parallel host builder queries full neighborhoods directly, so
    // no half-table expansion applies on this rung.
    local_report.scan_mode = ScanMode::kFull;
    NeighborTable t = build_neighbor_table_host_parallel(
        index, eps, /*num_threads=*/0, policy_.quality);
    local_report.total_pairs = t.total_pairs();
    if (sink != nullptr) {
      // This rung only fires before any batch ran, so the sink has seen
      // nothing: deliver the whole table, one (symmetric) row per key.
      hdbscan::ThreadCpuTimer consume_timer;
      const std::uint32_t zero = 0;
      const auto nq = static_cast<std::uint32_t>(index.query_count());
      for (std::uint32_t k = 0; k < nq; ++k) {
        sink->consume(BatchDelivery{k, /*key_stride=*/1, ScanMode::kFull,
                                    /*counts_delivered=*/false,
                                    {&zero, 1}, t.neighbors(k), {}});
      }
      local_report.sink_consume_seconds += consume_timer.seconds();
      local_report.sink_batches += nq;
    }
    local_report.table_seconds = total_timer.seconds();
    publish_build_report(local_report, policy_.metrics_labels);
    if (report != nullptr) *report = local_report;
    if (!materialize) return NeighborTable(index.size());
    return t;
  };

  // Upload the index once per device (pageable host memory, as in the
  // paper: only the result set uses the pinned staging path). Multi-device
  // mode replicates the index, exactly like a GPU-per-node deployment
  // (the direction of Mr. Scan, the paper's citation [7]). A device that
  // cannot even hold the index — or dies during the upload — is dropped;
  // the remaining devices absorb its share of the batches. The failure
  // only becomes the caller's problem when no device survives setup.
  struct DeviceSlot {
    cudasim::Device* device;
    std::unique_ptr<gpu::GridDeviceIndex> dev_index;
    std::unique_ptr<gpu::BvhDeviceIndex> bvh_index;  ///< kBvh builds only
  };
  // The host BVH is built once over the index's reordered point array (so
  // ids agree with the grid's), then replicated to every device exactly
  // like the grid arrays. The grid index still uploads alongside it: the
  // estimation kernel always samples through the grid, keeping e_b a
  // property of the data rather than of the traversal structure.
  std::optional<BvhIndex> host_bvh;
  if (use_bvh) {
    TRACE_SPAN("build", "bvh_build n=%zu", index.size());
    host_bvh.emplace(build_bvh_index(index.points));
  }
  std::vector<DeviceSlot> slots;
  slots.reserve(devices_.size());
  std::exception_ptr setup_error;
  for (cudasim::Device* device : devices_) {
    try {
      TRACE_SPAN("build", "index_upload d%u", device->id());
      cudasim::Stream upload_stream(*device);
      auto di = std::make_unique<gpu::GridDeviceIndex>(*device, upload_stream,
                                                       index);
      std::unique_ptr<gpu::BvhDeviceIndex> bi;
      if (host_bvh) {
        bi = std::make_unique<gpu::BvhDeviceIndex>(*device, upload_stream,
                                                   *host_bvh);
      }
      upload_stream.synchronize();
      slots.push_back(DeviceSlot{device, std::move(di), std::move(bi)});
    } catch (const cudasim::DeviceOutOfMemory&) {
      ++local_report.devices_lost;
      if (!setup_error) setup_error = std::current_exception();
    } catch (const cudasim::DeviceLost&) {
      ++local_report.devices_lost;
      if (!setup_error) setup_error = std::current_exception();
    }
  }
  if (slots.empty()) {
    if (res.host_fallback) return full_host_fallback();
    std::rethrow_exception(setup_error);
  }

  // Estimate the result-set size from a 1% sample (negligible cost), or
  // take the caller's figure when provided. Estimation fails over device
  // by device: transient faults retry in place, a lost or out-of-memory
  // device passes the baton to the next one.
  if (policy_.estimated_total_override != 0) {
    local_report.estimate.estimated_total = policy_.estimated_total_override;
    local_report.estimate.sampled_pairs = policy_.estimated_total_override;
    local_report.estimate.sample_stride = 1;
  } else {
    TRACE_SPAN("build", "estimate");
    WallTimer est_timer;
    bool estimated = false;
    std::exception_ptr est_error;
    for (DeviceSlot& slot : slots) {
      if (slot.device->lost()) continue;
      unsigned retries = 0;
      while (!estimated) {
        check_cancel(policy_.cancel);
        try {
          local_report.estimate = estimate_result_size(
              *slot.device, slot.dev_index->view(), eps,
              policy_.sample_fraction, policy_.block_size);
          estimated = true;
        } catch (const cudasim::TransientKernelFault&) {
          if (retries < res.max_transient_retries) {
            ++retries;
            ++local_report.transient_retries;
            continue;
          }
          if (!est_error) est_error = std::current_exception();
          break;
        } catch (const cudasim::DeviceLost&) {
          if (!est_error) est_error = std::current_exception();
          break;
        } catch (const cudasim::DeviceOutOfMemory&) {
          if (!est_error) est_error = std::current_exception();
          break;
        }
      }
      if (estimated) break;
    }
    if (!estimated) {
      if (res.host_fallback) return full_host_fallback();
      std::rethrow_exception(est_error);
    }
    local_report.estimate_seconds = est_timer.seconds();
    local_report.atomic_ops +=
        local_report.estimate.kernel_stats.work.atomic_ops;
  }
  // The estimation kernel always counts the exact neighborhood — e_b is a
  // property of the data, not of the quality mode — so a subsampled build
  // plans its buffers for the expected kept fraction instead. The planner's
  // alpha slack absorbs the Bernoulli variance on top.
  if (policy_.quality.sampled()) {
    const double r = std::clamp(policy_.quality.sample_rate, 0.0f, 1.0f);
    local_report.estimate.estimated_total = std::max<std::uint64_t>(
        index.size(),
        static_cast<std::uint64_t>(
            static_cast<double>(local_report.estimate.estimated_total) * r));
  }

  // Drop slots whose device died since the last check, tallying each loss
  // exactly once (later phases only ever see surviving slots).
  auto drop_lost_slots = [&] {
    for (auto it = slots.begin(); it != slots.end();) {
      if (it->device->lost()) {
        ++local_report.devices_lost;
        it = slots.erase(it);
      } else {
        ++it;
      }
    }
  };

  // Plan n_b and b_b, capping the buffers so that num_streams value
  // buffers and the per-point counts never exceed any surviving device's
  // free memory. A slot is a bare PointId. `shrink_shift` halves the
  // buffer cap per out-of-memory retry of the context setup.
  const std::uint64_t bytes_per_slot = sizeof(PointId);
  const std::uint64_t counts_reserve_bytes =
      static_cast<std::uint64_t>(index.size()) * sizeof(std::uint32_t);
  auto compute_plan = [&](unsigned shrink_shift) {
    std::uint64_t min_free_bytes =
        std::numeric_limits<std::uint64_t>::max();
    for (const DeviceSlot& slot : slots) {
      min_free_bytes = std::min(min_free_bytes,
                                slot.device->free_global_bytes());
    }
    const std::uint64_t budget_bytes =
        min_free_bytes * 9 / 10 -
        std::min(min_free_bytes * 9 / 10, counts_reserve_bytes);
    std::uint64_t max_buffer_pairs = std::max<std::uint64_t>(
        1, budget_bytes /
               (std::max(1u, policy_.num_streams) * bytes_per_slot));
    max_buffer_pairs =
        std::max<std::uint64_t>(1, max_buffer_pairs >> shrink_shift);
    // With several devices, plan one batch per (device, stream) context so
    // every device contributes even on the variable-buffer path.
    BatchPolicy planning_policy = policy_;
    planning_policy.num_streams = std::max(1u, policy_.num_streams) *
                                  static_cast<unsigned>(slots.size());
    return plan_batches(local_report.estimate.estimated_total,
                        planning_policy, max_buffer_pairs);
  };

  NeighborTable table(index.size());

  // Modeled fixed costs on the reference hardware: index upload over the
  // pageable link (parallel across devices -> counted once), the
  // estimation kernel, and page-locking the staging buffers (spread across
  // the devices' hosts in multi-device mode).
  cudasim::Device& first_device = *slots.front().device;
  const auto& cfg = first_device.config();
  const std::uint64_t upload_bytes =
      index.points.size() * sizeof(Point2) +
      index.cells.size() * sizeof(CellRange) +
      index.lookup.size() * sizeof(PointId) +
      index.nonempty_cells.size() * sizeof(std::uint32_t) +
      index.emit_ids.size() * sizeof(PointId) +
      (slots.front().bvh_index ? slots.front().bvh_index->upload_bytes() : 0);
  double modeled_fixed =
      cudasim::modeled_transfer_seconds(cfg, upload_bytes, /*pinned=*/false) +
      local_report.estimate.kernel_stats.modeled_seconds;

  // One context (stream + device buffers + pinned staging + private
  // shard) per (device, stream) pair. Creating them allocates the big
  // result buffers, so this is where a tight device first runs out of
  // memory: each retry halves the buffer cap (growing n_b to match) —
  // bounded by max_alloc_retries — and a device that dies here is
  // dropped and planning redone for the survivors.
  std::vector<std::unique_ptr<StreamContext>> contexts;
  unsigned shrink = 0;
  for (;;) {
    drop_lost_slots();
    if (slots.empty()) {
      if (res.host_fallback) return full_host_fallback();
      throw cudasim::DeviceLost(
          "neighbor table build: every device was lost before batching "
          "started");
    }
    local_report.plan = compute_plan(shrink);
    const std::uint32_t max_batch_points =
        (static_cast<std::uint32_t>(index.size()) +
         local_report.plan.num_batches - 1) /
        local_report.plan.num_batches;
    const auto num_contexts = static_cast<unsigned>(slots.size()) *
                              std::max(1u, policy_.num_streams);
    try {
      for (DeviceSlot& slot : slots) {
        for (unsigned s = 0; s < std::max(1u, policy_.num_streams); ++s) {
          const auto id = static_cast<unsigned>(contexts.size());
          contexts.push_back(std::make_unique<StreamContext>(
              *slot.device, slot.dev_index->view(),
              local_report.plan.buffer_pairs, std::max(1u, max_batch_points),
              id));
          contexts.back()->backend = policy_.index_backend;
          contexts.back()->quality = policy_.quality;
          if (slot.bvh_index) {
            contexts.back()->bvh_view = slot.bvh_index->view();
          }
          contexts.back()->shard.reserve_values(
              local_report.plan.estimated_total_pairs / num_contexts);
        }
      }
      break;
    } catch (const cudasim::DeviceOutOfMemory&) {
      contexts.clear();
      if (shrink >= res.max_alloc_retries) throw;
      ++shrink;
      ++local_report.alloc_retries;
    } catch (const cudasim::DeviceLost&) {
      contexts.clear();  // next iteration drops the dead slot and replans
    }
  }
  const BatchPlan& plan = local_report.plan;
  for (const auto& sc : contexts) {
    // Only buffers the pool had to freshly page-lock are charged; reuse
    // sweeps over N parameter variants pay this once, on the first one.
    modeled_fixed += cudasim::modeled_pinned_alloc_seconds(
                         cfg, sc->fresh_pinned_bytes()) /
                     static_cast<double>(slots.size());
  }

  // All batches start in a shared work queue; each context's pump pops,
  // processes into the private shard, and applies the degradation ladder
  // on faults (see pump()). The rounds loop re-arms pumps on surviving
  // contexts until the queue is dry — this is what makes failover work:
  // an item a dying context pushed back is picked up next round by a
  // survivor, and the strided key sets stay disjoint whoever runs it.
  WorkQueue queue(contexts.size());
  for (std::uint32_t l = 0; l < plan.num_batches; ++l) {
    queue.push(l % contexts.size(),
               WorkItem{gpu::BatchSpec{l, plan.num_batches}});
  }
  SharedBuildState state;
  const ScanMode scan = policy_.scan_mode;
  while (!queue.empty()) {
    bool any_live = false;
    for (auto& sc : contexts) {
      if (sc->device.lost()) {
        // A sibling stream's fault may have killed this device before
        // this context's pump ever ran — surface its share regardless.
        queue.orphan_context(sc->timeline_id);
        continue;
      }
      any_live = true;
      StreamContext* scp = sc.get();
      sc->stream.host_fn([scp, &queue, &state, scan, eps,
                          block = policy_.block_size, &res,
                          depth_max = policy_.max_split_depth, sink,
                          materialize, cancel = policy_.cancel,
                          ctx = policy_.trace] {
        // Stream threads outlive any one build; attribute this pump's
        // spans to the request the build serves.
        RequestScope scope(ctx);
        pump(*scp, queue, state, scan, eps, block, res, depth_max, sink,
             materialize, cancel);
      });
    }
    if (!any_live) break;
    // Drain every stream — on every device — before looking at the
    // outcome: an error on one context must never leave another
    // context's in-flight work racing the cleanup below.
    for (auto& sc : contexts) {
      try {
        sc->stream.synchronize();
      } catch (...) {
        state.set_hard_error(std::current_exception());
      }
    }
    if (state.has_hard_error()) break;
  }
  {
    std::lock_guard lock(state.mutex);
    local_report.transient_retries += state.transient_retries;
    local_report.failover_batches += state.failover_batches;
  }
  if (state.hard_error) {
    // Streams are already drained (the rounds loop synchronizes every
    // context before breaking), so rethrowing here unwinds contexts and
    // device indexes with no op left in flight anywhere.
    std::rethrow_exception(state.hard_error);
  }

  // Whatever is still queued could not run on any device (every context
  // is dead). The last rung: finish exactly those batches on the host —
  // their key sets are disjoint from everything the devices completed,
  // so the shards absorb like any other.
  std::vector<NeighborTable> host_shards;
  if (!queue.empty()) {
    if (!res.host_fallback) {
      const std::size_t unfinished = queue.drain().size();
      throw cudasim::DeviceLost(
          "neighbor table build: all devices lost with " +
          std::to_string(unfinished) + " batches unfinished");
    }
    local_report.used_host_fallback = true;
    // A degraded BVH build must finish its batches under the kernels'
    // *id-based* kHalf cover, not the grid stencil's — mixing ownership
    // rules within one build double-counts the cross pairs whose stencil
    // owner differs from their id owner once the merged table expands.
    // The host rung for the tree backends is the packed STR R-tree
    // (parallel bulk load), searched through the same reordered ids.
    std::optional<RTree> fallback_rtree;
    for (const WorkItem& item : queue.drain()) {
      check_cancel(policy_.cancel);  // host batches are slow; poll each one
      TRACE_SPAN("host", "host_fallback %u/%u", item.spec.batch,
                 item.spec.num_batches);
      if (use_bvh) {
        if (!fallback_rtree) {
          fallback_rtree.emplace(index.points, /*node_capacity=*/16u,
                                 RTreeBuild::kStrParallel);
        }
        host_shards.push_back(build_neighbor_table_host_strided_idrule(
            index, *fallback_rtree, eps, item.spec.batch,
            item.spec.num_batches, policy_.scan_mode, policy_.quality));
      } else {
        host_shards.push_back(build_neighbor_table_host_strided(
            index, eps, item.spec.batch, item.spec.num_batches,
            policy_.scan_mode, policy_.quality));
      }
      ++local_report.host_fallback_batches;
      local_report.total_pairs += host_shards.back().total_pairs();
      if (sink != nullptr) {
        // Deliver the host-built rows one key at a time (the shard's
        // value layout is private). An item whose counts already went
        // out on a device that died later keeps its flag, so the sink
        // derives degrees from the rows only when it must.
        hdbscan::ThreadCpuTimer consume_timer;
        const NeighborTable& shard = host_shards.back();
        const std::uint32_t zero = 0;
        const auto n = static_cast<std::uint32_t>(index.query_count());
        for (std::uint32_t k = item.spec.batch; k < n;
             k += item.spec.num_batches) {
          sink->consume(BatchDelivery{k, /*key_stride=*/1,
                                      policy_.scan_mode,
                                      item.counts_delivered,
                                      {&zero, 1}, shard.neighbors(k), {}});
          ++local_report.sink_batches;
        }
        local_report.sink_consume_seconds += consume_timer.seconds();
      }
    }
  }

  // Merge the per-stream shards into T exactly once (deterministic
  // order), and harvest the context-private tallies. The fan-in is
  // parallel (absorb_shards: disjoint value regions + key ranges, one
  // exact allocation) and skips the collision sweep — the strided
  // batch assignment makes the contexts' and host shards' key sets
  // disjoint by construction, splits and failover included, and the
  // property tests compare the result against serial absorption. A
  // streaming-only build (materialize_table=false) skips the merge
  // entirely: the sink already consumed every row, so T is never
  // assembled and the shard memory is simply dropped.
  double merge_seconds = 0.0;
  if (materialize) {
    TRACE_SPAN("build", "shard_merge");
    std::vector<NeighborTable> parts;
    parts.reserve(contexts.size() + host_shards.size());
    for (auto& sc : contexts) {
      parts.push_back(std::move(sc->shard));
    }
    for (auto& shard : host_shards) {
      parts.push_back(std::move(shard));
    }
    merge_seconds = table.absorb_shards(
        std::move(parts), static_cast<unsigned>(std::max(1, cfg.host_cores)),
        /*check_collisions=*/false);
  }
  double slowest_stream = 0.0;
  for (const auto& sc : contexts) {
    local_report.total_pairs += sc->total_pairs;
    local_report.max_batch_pairs =
        std::max(local_report.max_batch_pairs, sc->max_batch_pairs);
    local_report.batches_run += sc->batches_run;
    local_report.overflow_splits += sc->overflow_splits;
    local_report.kernel_modeled_seconds += sc->kernel_modeled;
    local_report.scan_modeled_seconds += sc->scan_modeled;
    local_report.atomic_ops += sc->atomic_ops;
    local_report.d2h_bytes += sc->d2h_bytes;
    local_report.kernel_flops += sc->kernel_flops;
    local_report.kernel_global_bytes += sc->kernel_global_bytes;
    local_report.sink_batches += sc->sink_batches;
    local_report.sink_count_batches += sc->sink_count_batches;
    local_report.sink_consume_seconds += sc->consume_seconds;
    slowest_stream = std::max(slowest_stream,
                              sc->device_model + sc->append_seconds);
  }
  // The final merge runs after the streams drain; like expand_half it
  // parallelizes on the reference host, so the model charges its
  // critical path (absorb_shards' slowest worker), not its CPU sum.
  modeled_fixed += merge_seconds;

  // Half-scan builds merged *forward* rows; one host transpose restores
  // the back rows and makes the table identical to a full-scan build.
  // Like the merge it runs after the streams drain, but it parallelizes
  // across rows, so the model charges its critical path over the
  // reference host's cores rather than this machine's. A streaming sink
  // consumed forward rows directly (it unions both directions as rows
  // arrive), so a non-materialized build never pays the transpose.
  if (policy_.scan_mode == ScanMode::kHalf && materialize &&
      policy_.expand_half) {
    TRACE_SPAN("build", "expand_half");
    local_report.expand_seconds = table.expand_half_table(
        static_cast<unsigned>(std::max(1, cfg.host_cores)));
    modeled_fixed += local_report.expand_seconds;
    local_report.total_pairs = table.total_pairs();
  }

  // Devices that died during batching (their setup losses were tallied
  // when their slots were dropped).
  for (const DeviceSlot& slot : slots) {
    if (slot.device->lost()) ++local_report.devices_lost;
  }

  // Compose the modeled build time: fixed costs plus the slowest context's
  // timeline (device work + that context's host-side shard appends, which
  // run on its own core on the reference host).
  local_report.shard_fixed_seconds = modeled_fixed;
  local_report.shard_stream_seconds = slowest_stream;
  local_report.modeled_table_seconds = modeled_fixed + slowest_stream;
  local_report.table_seconds = total_timer.seconds();
  publish_build_report(local_report, policy_.metrics_labels);
  if (report != nullptr) *report = local_report;
  return table;
}

}  // namespace hdbscan
