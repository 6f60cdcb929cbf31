// Stock metric collectors bridging pull-model sources into a
// metrics_registry at exposition time (docs/OBSERVABILITY.md).
//
// Each install_* returns the collector id (pass to remove_collector when
// the source outlives the registry — for the process-wide sources below
// with the global registry, nobody ever needs to).
#pragma once

#include <cstdint>

#include "obs/metrics.h"

namespace ligra::obs {

// Publishes failpoint state: gauge `failpoint_armed` (sites currently
// armed) and one gauge `failpoint_hits{site="..."}` per site that has ever
// fired. Robustness tests scrape these to assert a site actually fired.
uint64_t install_failpoint_collector(metrics_registry& reg);

// Publishes work-stealing scheduler activity: aggregate gauges
// `scheduler_workers`, `scheduler_steals`, `scheduler_parks`, plus
// per-worker `scheduler_steals{worker="i"}` / `scheduler_parks{worker="i"}`
// utilization breakdowns. Parks are ~1 ms idle episodes, so
// `parks * 1ms / wall-time` approximates per-worker idleness.
uint64_t install_scheduler_collector(metrics_registry& reg);

}  // namespace ligra::obs
