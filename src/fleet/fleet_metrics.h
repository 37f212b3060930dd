// Named instrument handles for the fleet layer, resolved once per
// FleetEngine into its fleet-level Registry (tenant-level pipeline metrics
// live in each tenant's private Registry and are exposed tenant-labelled;
// see fleet_engine.h). Header-only so the metric-name hygiene gate
// (tests/obs/metric_names_test.cc) can register the set without linking
// cad_fleet. The glossary entries live in DESIGN.md "Fleet architecture".
#ifndef CAD_FLEET_FLEET_METRICS_H_
#define CAD_FLEET_FLEET_METRICS_H_

#include "obs/metrics.h"

namespace cad::fleet {

struct FleetMetrics {
  // Counters.
  obs::Counter* samples_total = nullptr;           // cad_fleet_samples_total
  obs::Counter* samples_rejected_total = nullptr;  // cad_fleet_samples_rejected_total
  obs::Counter* rounds_total = nullptr;            // cad_fleet_rounds_total
  obs::Counter* quanta_total = nullptr;            // cad_fleet_quanta_total
  obs::Counter* steady_rounds_total = nullptr;     // cad_fleet_steady_rounds_total
  obs::Counter* steady_allocs_total = nullptr;     // cad_fleet_steady_allocs_total
  // Gauges.
  obs::Gauge* tenants = nullptr;                   // cad_fleet_tenants
  obs::Gauge* workers = nullptr;                   // cad_fleet_workers
  // Latency histograms (seconds).
  obs::Histogram* round_seconds = nullptr;         // cad_fleet_round_seconds

  static FleetMetrics For(obs::Registry& registry) {
    FleetMetrics m;
    m.samples_total = &registry.counter(
        "cad_fleet_samples_total",
        "samples accepted into tenant ingestion queues");
    m.samples_rejected_total = &registry.counter(
        "cad_fleet_samples_rejected_total",
        "samples rejected by full tenant queues (backpressure)");
    m.rounds_total = &registry.counter(
        "cad_fleet_rounds_total", "detection rounds run across all tenants");
    m.quanta_total = &registry.counter(
        "cad_fleet_quanta_total",
        "scheduler service quanta completed by the worker pool");
    m.steady_rounds_total = &registry.counter(
        "cad_fleet_steady_rounds_total",
        "rounds counted by the steady-state allocation audit (quanta past "
        "tenant warm-up with a warm workspace and no anomaly transition)");
    m.steady_allocs_total = &registry.counter(
        "cad_fleet_steady_allocs_total",
        "worker-thread heap allocations during steady-state quanta (0 by "
        "contract; real counts only in binaries linking cad_alloc_hook)");
    m.tenants = &registry.gauge(
        "cad_fleet_tenants", "tenant streams hosted by this fleet");
    m.workers = &registry.gauge(
        "cad_fleet_workers", "worker threads servicing the fleet");
    m.round_seconds = &registry.histogram(
        "cad_fleet_round_seconds", {},
        "latency of one tenant detection round on the shared worker pool "
        "(window materialization + engine step, as StreamingCad reports it)");
    return m;
  }
};

}  // namespace cad::fleet

#endif  // CAD_FLEET_FLEET_METRICS_H_
