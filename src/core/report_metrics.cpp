#include "core/report_metrics.hpp"

#include <string>

#include "obs/registry.hpp"

namespace hdbscan {

/// Gauges, not counters: the values are themselves cumulative snapshots,
/// so re-publishing must overwrite, not add.
void publish_device_metrics(std::uint32_t device_id,
                            const cudasim::DeviceMetrics& m) {
  const std::string labels = "device=" + std::to_string(device_id);
  obs::Registry& r = obs::Registry::global();
  r.gauge("cudasim_kernel_launches", labels)
      .set(static_cast<double>(m.kernel_launches));
  r.gauge("cudasim_kernel_modeled_seconds", labels)
      .set(m.kernel_modeled_seconds);
  r.gauge("cudasim_kernel_wall_seconds", labels).set(m.kernel_wall_seconds);
  r.gauge("cudasim_h2d_bytes", labels).set(static_cast<double>(m.h2d_bytes));
  r.gauge("cudasim_d2h_bytes", labels).set(static_cast<double>(m.d2h_bytes));
  r.gauge("cudasim_transfer_seconds", labels).set(m.transfer_seconds);
  r.gauge("cudasim_pinned_alloc_seconds", labels)
      .set(m.pinned_alloc_seconds);
  r.gauge("cudasim_sort_seconds", labels).set(m.sort_seconds);
  r.gauge("cudasim_scan_seconds", labels).set(m.scan_seconds);
  r.gauge("cudasim_peak_mem_bytes", labels)
      .set(static_cast<double>(m.peak_mem_bytes));
  r.gauge("cudasim_injected_oom_faults", labels)
      .set(static_cast<double>(m.injected_oom_faults));
  r.gauge("cudasim_injected_transient_faults", labels)
      .set(static_cast<double>(m.injected_transient_faults));
  r.gauge("cudasim_degraded_transfers", labels)
      .set(static_cast<double>(m.degraded_transfers));
  r.gauge("cudasim_refused_ops", labels)
      .set(static_cast<double>(m.refused_ops));
  r.gauge("cudasim_device_lost", labels).set(m.device_lost ? 1.0 : 0.0);
  r.gauge("cudasim_pool_device_hits", labels)
      .set(static_cast<double>(m.pool_device_hits));
  r.gauge("cudasim_pool_device_misses", labels)
      .set(static_cast<double>(m.pool_device_misses));
  r.gauge("cudasim_pool_pinned_hits", labels)
      .set(static_cast<double>(m.pool_pinned_hits));
  r.gauge("cudasim_pool_pinned_misses", labels)
      .set(static_cast<double>(m.pool_pinned_misses));
  r.gauge("cudasim_pool_trim_bytes", labels)
      .set(static_cast<double>(m.pool_trim_bytes));
}

void publish_build_report(const BuildReport& report,
                          const std::string& labels) {
  obs::Registry& r = obs::Registry::global();
  r.counter("build_batches_run", labels).add(report.batches_run);
  r.counter("build_overflow_splits", labels).add(report.overflow_splits);
  r.counter("build_total_pairs", labels).add(report.total_pairs);
  r.counter("build_d2h_bytes", labels).add(report.d2h_bytes);
  r.counter("build_atomic_ops", labels).add(report.atomic_ops);
  r.counter("build_kernel_flops", labels).add(report.kernel_flops);
  r.counter("build_kernel_global_bytes", labels)
      .add(report.kernel_global_bytes);
  if (report.scan_mode == ScanMode::kHalf) {
    r.counter("build_half_scan_builds", labels).add(1);
    r.histogram("build_expand_seconds", labels)
        .observe(report.expand_seconds);
  }
  r.counter("build_transient_retries", labels).add(report.transient_retries);
  r.counter("build_alloc_retries", labels).add(report.alloc_retries);
  r.counter("build_devices_lost", labels).add(report.devices_lost);
  r.counter("build_failover_batches", labels).add(report.failover_batches);
  r.counter("build_host_fallback_batches", labels)
      .add(report.host_fallback_batches);
  if (report.used_host_fallback) {
    r.counter("build_host_fallbacks", labels).add(1);
  }
  if (!report.table_materialized) {
    r.counter("build_tables_skipped", labels).add(1);
  }
  if (report.fused) {
    r.counter("build_capped_points", labels).add(report.capped_points);
    r.counter("build_recounted_points", labels).add(report.recounted_points);
    r.counter("build_dense_runs", labels).add(report.dense_runs);
  }
  r.histogram("build_table_seconds", labels).observe(report.table_seconds);
  r.histogram("build_modeled_table_seconds", labels)
      .observe(report.modeled_table_seconds);
  r.gauge("build_last_estimate_pairs", labels)
      .set(static_cast<double>(report.estimate.estimated_total));
  r.gauge("build_last_num_batches", labels)
      .set(static_cast<double>(report.plan.num_batches));
}

}  // namespace hdbscan
