// Bridges from the repo's end-of-run aggregate structs (cudasim's
// DeviceMetrics, the builder's BuildReport) into the obs metrics
// registry. The structs stay the public API; these functions mirror
// their fields into named registry metrics so `--metrics-out` and the
// profile subcommand expose one uniform surface.
#pragma once

#include <cstdint>
#include <string>

#include "core/neighbor_table_builder.hpp"
#include "cudasim/metrics.hpp"

namespace hdbscan {

/// Publishes one device's metrics under labels "device=<id>".
void publish_device_metrics(std::uint32_t device_id,
                            const cudasim::DeviceMetrics& m);

/// Publishes a build report's counters and timings. `labels` scopes every
/// series ("key=value,key=value"; empty = the unlabeled series).
/// Concurrent builders must use distinct labels, or their last-value gauges
/// silently overwrite each other. Counters stay cumulative per label set,
/// which is the registry contract.
void publish_build_report(const BuildReport& report,
                          const std::string& labels = std::string());

}  // namespace hdbscan
