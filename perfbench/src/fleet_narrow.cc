// fleet-narrow: 1000 tenants of 12 sensors (w = 48, s = 4, k = 5) on a
// fleet::FleetEngine with 2 workers. Each tick hands every tenant one step
// of samples (never more than its queue holds) and waits for Drain; one
// scraper thread reads MetricsText, ExplainTenantJson and HealthJson back
// to back while the ticks run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/bounded_queue.h"
#include "common/rng.h"
#include "fleet/fleet_engine.h"
#include "fleet/scheduler.h"
#include "fleet/workspace_pool.h"

namespace perfbench {

namespace {

constexpr int kTenants = 1000;
constexpr int kSensors = 12;
constexpr int kWindow = 48;
constexpr int kStep = 4;
constexpr int kK = 5;
constexpr int kRounds = 120;  // per tenant and pass
constexpr int kLength = kWindow + kStep * (kRounds - 1);
constexpr int kWorkers = 2;
constexpr int kCheckedTenants = 8;
constexpr int kMinSetups = 3;

SystemShape Shape() {
  SystemShape shape;
  shape.n_sensors = kSensors;
  shape.n_communities = 3;
  shape.noise_std = 0.3;
  shape.drift_std = 0.04;
  shape.test_length = kLength;
  shape.n_events = 1;
  shape.min_duration = kWindow;
  shape.max_duration = 2 * kWindow;
  shape.min_gap = 200;
  return shape;
}

std::string TenantName(int i) {
  char name[16];
  std::snprintf(name, sizeof(name), "t%04d", i);
  return name;
}

void RowOf(const ts::MultivariateSeries& series, int t, double* row) {
  for (int i = 0; i < kSensors; ++i) row[i] = series.value(i, t);
}

struct Setup {
  std::vector<SystemData> tenants;
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<cad::fleet::FleetEngine> fleet;
};

// Inputs, a started fleet, and every tenant's first window pushed through.
Setup MakeSetup(uint64_t seed, const core::CadOptions& options,
                LayerTrace* trace, Checker* checker) {
  Setup setup;
  const Clock::time_point t0 = Clock::now();
  setup.tenants.reserve(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    setup.tenants.push_back(
        MakeSystem(Shape(), MixSeed(seed, 1000 + static_cast<uint64_t>(i))));
  }
  const Clock::time_point t1 = Clock::now();
  setup.registry = std::make_unique<obs::Registry>();
  cad::fleet::FleetOptions fleet_options;
  fleet_options.n_workers = kWorkers;
  fleet_options.metrics_registry = setup.registry.get();
  setup.fleet = std::make_unique<cad::fleet::FleetEngine>(fleet_options);
  for (int i = 0; i < kTenants; ++i) {
    const cad::Result<int> index =
        setup.fleet->AddTenant(TenantName(i), kSensors, options);
    checker->Expect(index.ok() && index.value() == i, "fleet: AddTenant failed");
  }
  checker->Expect(setup.fleet->Start().ok(), "fleet: Start failed");
  const Clock::time_point t2 = Clock::now();
  double row[kSensors];
  for (int i = 0; i < kTenants; ++i) {
    for (int t = 0; t < kWindow; ++t) {
      RowOf(setup.tenants[i].test, t, row);
      const cad::Result<bool> accepted = setup.fleet->Push(i, row);
      checker->Expect(accepted.ok() && accepted.value(),
                      "fleet: first-window push rejected");
    }
  }
  setup.fleet->Drain();
  trace->timed("datasets.generate_s")
      .Add(std::chrono::duration<double>(t1 - t0).count());
  trace->timed("core.warmup_s").Add(SecondsSince(t2));
  return setup;
}

// One scraper thread refreshing MetricsText + ExplainTenantJson +
// HealthJson back to back while the ticks run: a closed-loop reader, so
// every tick meets the same export load.
class Scraper {
 public:
  explicit Scraper(const cad::fleet::FleetEngine* fleet)
      : fleet_(fleet), thread_([this] { Loop(); }) {}
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;
  ~Scraper() { Stop(); }

  // Stops the scraper and hands over its reads and export samples.
  void Finish(Samples* reads, int64_t* attempted, int64_t* failed,
              LayerTrace* trace) {
    Stop();
    reads->Append(reads_);
    *attempted += attempted_;
    *failed += failed_;
    trace->timed("obs.export_s").Append(export_seconds_);
    trace->counted("obs.export_bytes").Append(export_bytes_);
  }

 private:
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  void Loop() {
    int tenant = 0;
    while (!stop_.load()) {
      const Clock::time_point start = Clock::now();
      const std::string metrics = fleet_->MetricsText();
      export_seconds_.Add(SecondsSince(start));
      export_bytes_.Add(static_cast<double>(metrics.size()));
      const cad::Result<cad::fleet::FleetEngine::TenantStatus> info =
          fleet_->TenantInfo(tenant);
      const int round = info.ok() ? static_cast<int>(info.value().rounds) - 1 : -1;
      const std::string why = fleet_->ExplainTenantJson(TenantName(tenant), round);
      const std::string health = fleet_->HealthJson();
      reads_.Add(SecondsSince(start));
      ++attempted_;
      if (metrics.empty() || why.empty() || health.empty()) ++failed_;
      tenant = (tenant + 97) % kTenants;
    }
  }

  const cad::fleet::FleetEngine* fleet_;
  Samples reads_;
  Samples export_seconds_;
  Samples export_bytes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Pass {
  Samples ticks;
  Samples reads;
  double ingest_seconds = 0.0;
  int64_t rounds = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  uint64_t quanta = 0;
};

// Ticks 1 .. kRounds - 1: every tenant gets one step of samples, then Drain.
Pass RunPass(Setup* setup, bool trace_calls, LayerTrace* trace) {
  Pass pass;
  cad::fleet::FleetEngine& fleet = *setup->fleet;
  const uint64_t quanta_before = fleet.scheduler().total_quanta();
  Scraper scraper(&fleet);
  double row[kSensors];
  for (int tick = 1; tick < kRounds; ++tick) {
    const int first = kWindow + kStep * (tick - 1);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kTenants; ++i) {
      for (int t = first; t < first + kStep; ++t) {
        RowOf(setup->tenants[i].test, t, row);
        const Clock::time_point push_start = Clock::now();
        const cad::Result<bool> accepted = fleet.Push(i, row);
        if (trace_calls) trace->timed("fleet.push_s").Add(SecondsSince(push_start));
        ++pass.attempted;
        if (!accepted.ok() || !accepted.value()) ++pass.failed;
      }
    }
    const Clock::time_point drain_start = Clock::now();
    fleet.Drain();
    if (trace_calls) trace->timed("fleet.drain_wait_s").Add(SecondsSince(drain_start));
    const double tick_seconds = SecondsSince(start);
    pass.ticks.Add(tick_seconds);
    pass.ingest_seconds += tick_seconds;
    pass.rounds += kTenants;
  }
  scraper.Finish(&pass.reads, &pass.attempted, &pass.failed, trace);
  pass.quanta = fleet.scheduler().total_quanta() - quanta_before;
  return pass;
}

// A digest of every tenant's closed anomalies, to compare repeated passes.
uint64_t AnomalyDigest(const cad::fleet::FleetEngine& fleet) {
  uint64_t digest = 0;
  for (int i = 0; i < kTenants; ++i) {
    const auto anomalies = fleet.TenantAnomalies(i);
    if (!anomalies.ok()) return 0;
    for (const core::Anomaly& a : anomalies.value()) {
      digest = digest * 31 + static_cast<uint64_t>(a.first_round) * 7 +
               static_cast<uint64_t>(a.last_round) + a.sensors.size();
    }
  }
  return digest;
}

// Correctness of one pass against independent computations.
void CheckPass(const Setup& setup, const core::CadOptions& options,
               uint64_t seed, Checker* checker) {
  const cad::fleet::FleetEngine& fleet = *setup.fleet;
  const int expected_rounds = (kLength - kWindow) / kStep + 1;
  bool rounds_ok = true;
  for (int i = 0; i < kTenants; ++i) {
    const auto info = fleet.TenantInfo(i);
    rounds_ok = rounds_ok && info.ok() &&
                info.value().rounds == static_cast<uint64_t>(expected_rounds) &&
                info.value().samples_seen == kLength &&
                info.value().rejected == 0;
  }
  checker->Expect(rounds_ok,
                  "fleet: a tenant's rounds != floor((T - w) / s) + 1");

  // cad_rounds_total{tenant="..."} in the /metrics text, one per tenant.
  std::istringstream text(fleet.MetricsText());
  std::string line;
  int lines = 0;
  bool values_ok = true;
  const std::string prefix = "cad_rounds_total{tenant=\"";
  while (std::getline(text, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    ++lines;
    values_ok = values_ok &&
                std::atoll(line.c_str() + line.find("} ") + 2) == expected_rounds;
  }
  checker->Expect(lines == kTenants && values_ok,
                  "fleet: cad_rounds_total lines disagree with the round count");

  // Sampled tenants against a batch run on their own inputs.
  cad::Rng rng(MixSeed(seed, 7));
  for (int c = 0; c < kCheckedTenants; ++c) {
    const int i = static_cast<int>(rng.NextBounded(kTenants));
    const std::string where = "fleet tenant " + TenantName(i);
    const SystemData& data = setup.tenants[i];
    const cad::Result<core::DetectionReport> batch =
        core::CadDetector(options).Detect(data.test, nullptr);
    checker->Expect(batch.ok(), where + ": batch Detect failed");
    if (!batch.ok()) continue;
    const core::DetectionReport& report = batch.value();
    std::vector<core::Anomaly> closed = report.anomalies;
    const auto info = fleet.TenantInfo(i);
    if (info.ok() && info.value().anomaly_open && !closed.empty()) closed.pop_back();
    const auto anomalies = fleet.TenantAnomalies(i);
    checker->Expect(anomalies.ok() && SameAnomalies(anomalies.value(), closed),
                    where + ": anomalies differ from CadDetector::Detect");
    CheckFlightLog(report.flight_log, options, checker, where + " flight log");
    std::vector<int> abnormal;
    for (const core::RoundTrace& round : report.rounds) {
      if (round.abnormal) abnormal.push_back(round.round);
    }
    checker->Expect(LabelsFromRounds(abnormal, kLength, options) ==
                        report.point_labels,
                    where + ": point labels differ from CadDetector's");
    const int r = static_cast<int>(rng.NextBounded(kRounds));
    checker->Expect(CheckWindow(data.test, r * kStep, options, checker, where) ==
                        report.rounds[r].n_edges,
                    where + ": TSG edge count differs from the round trace");
  }
}

std::vector<Quality> ScoreTenants(const Setup& setup,
                                  const core::CadOptions& options) {
  std::vector<Quality> qualities;
  for (int i = 0; i < kTenants; ++i) {
    const auto anomalies = setup.fleet->TenantAnomalies(i);
    if (!anomalies.ok()) continue;
    qualities.push_back(Score(
        setup.tenants[i],
        LabelsFromRounds(RoundsOf(anomalies.value()), kLength, options),
        anomalies.value()));
  }
  return qualities;
}

// The traced run's service path: every tenant's samples replayed on one
// thread through the fleet's public parts (queue, scheduler, workspace
// pool, sample window, recomposed engine), each call timed.
void TracedReplay(const Setup& setup, const core::CadOptions& options,
                  LayerTrace* trace, Checker* checker) {
  struct Tenant {
    Tenant(const core::CadOptions& options, int queue_capacity,
           LayerTrace* trace)
        : queue(kSensors, queue_capacity),
          ingest(kSensors, kWindow, kStep),
          window(kSensors, kWindow),
          engine(kSensors, options, trace) {}
    cad::common::BoundedSampleQueue queue;
    core::SampleWindow ingest;
    ts::MultivariateSeries window;
    TracedEngine engine;
  };
  const cad::fleet::FleetOptions defaults;
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (int i = 0; i < kTenants; ++i) {
    tenants.push_back(
        std::make_unique<Tenant>(options, defaults.queue_capacity, trace));
  }
  cad::fleet::WeightedScheduler scheduler(std::vector<double>(kTenants, 1.0));
  cad::fleet::WorkspacePool pool;
  Samples& queue_s = trace->timed("fleet.queue_s");
  Samples& scheduler_s = trace->timed("fleet.scheduler_s");
  Samples& pool_s = trace->timed("fleet.pool_s");
  Samples& append_s = trace->timed("core.sample_window.append_s");
  Samples& materialize_s = trace->timed("core.sample_window.materialize_s");
  double row[kSensors];
  bool all_accepted = true;
  auto timed = [](Samples* sink, auto&& call) {
    const Clock::time_point start = Clock::now();
    call();
    sink->Add(SecondsSince(start));
  };
  for (int tick = 0; tick < kRounds; ++tick) {
    const int first = tick == 0 ? 0 : kWindow + kStep * (tick - 1);
    const int end = tick == 0 ? kWindow : first + kStep;
    for (int i = 0; i < kTenants; ++i) {
      for (int t = first; t < end; ++t) {
        RowOf(setup.tenants[i].test, t, row);
        bool accepted = false;
        timed(&queue_s, [&] { accepted = tenants[i]->queue.TryPush(row); });
        all_accepted = all_accepted && accepted;
      }
      timed(&scheduler_s, [&] { scheduler.MakeReady(i); });
    }
    for (;;) {
      int index = -1;
      bool acquired = false;
      timed(&scheduler_s, [&] { acquired = scheduler.TryAcquire(&index); });
      if (!acquired) break;
      Tenant& tenant = *tenants[index];
      cad::fleet::WorkspacePool::PooledWorkspace* arena = nullptr;
      timed(&pool_s, [&] { arena = pool.Acquire(kSensors); });
      for (int drained = 0; drained < defaults.quantum_samples; ++drained) {
        bool popped = false;
        timed(&queue_s, [&] { popped = tenant.queue.PopInto(row); });
        if (!popped) break;
        bool due = false;
        timed(&append_s, [&] {
          due = tenant.ingest.Append(std::span<const double>(row, kSensors));
        });
        if (!due) continue;
        timed(&materialize_s, [&] { tenant.ingest.MaterializeInto(&tenant.window); });
        int n_variations = 0;
        tenant.engine.Step(tenant.window, 0, tenant.ingest.window_start_time(),
                           tenant.ingest.window_end_time(), &arena->workspace,
                           &n_variations);
      }
      timed(&pool_s, [&] { pool.Release(arena); });
      timed(&scheduler_s, [&] { scheduler.Release(index, !tenant.queue.empty()); });
    }
  }
  checker->Expect(all_accepted, "fleet replay: a queue rejected a sample");
  bool same = true;
  for (int i = 0; i < kTenants; ++i) {
    const auto anomalies = setup.fleet->TenantAnomalies(i);
    same = same && anomalies.ok() &&
           SameAnomalies(anomalies.value(), tenants[i]->engine.anomalies());
  }
  checker->Expect(same, "fleet: traced replay anomalies differ from the fleet's");
}

}  // namespace

void RunFleetNarrow(const RunConfig& config, Checker* checker,
                    RunResult* result) {
  const core::CadOptions options = BaseOptions(kWindow, kStep, kK);
  LayerTrace trace;
  EndToEnd run;
  uint64_t digest = 0;
  std::unique_ptr<Setup> traced;

  int n_setups = 0;
  while (run.ingest_seconds < config.seconds) {
    const Clock::time_point setup_start = Clock::now();
    auto setup = std::make_unique<Setup>(
        MakeSetup(config.seed, options, &trace, checker));
    run.setups.Add(SecondsSince(setup_start));
    const Pass pass = RunPass(setup.get(), config.trace && n_setups == 0, &trace);
    run.decisions.Append(pass.ticks);
    run.reads.Append(pass.reads);
    run.unit_seconds.Append(pass.ticks);
    for (size_t t = 0; t < pass.ticks.count(); ++t) run.unit_rounds.Add(kTenants);
    run.ingest_seconds += pass.ingest_seconds;
    result->attempted += pass.attempted;
    result->failed += pass.failed;
    if (n_setups == 0) {
      run.peak_rss_mb = PeakRssMb();
      CheckPass(*setup, options, config.seed, checker);
      run.qualities = ScoreTenants(*setup, options);
      digest = AnomalyDigest(*setup->fleet);
      trace.counted("fleet.quanta").Add(static_cast<double>(pass.quanta));
      trace.counted("fleet.rounds_per_quantum")
          .Add(static_cast<double>(pass.rounds) / static_cast<double>(pass.quanta));
      setup->fleet->Stop();
      if (config.trace) traced = std::move(setup);
    } else {
      checker->Expect(AnomalyDigest(*setup->fleet) == digest,
                      "fleet: a repeated pass gave different anomalies");
    }
    ++n_setups;
  }
  for (; n_setups < kMinSetups; ++n_setups) {
    const Clock::time_point setup_start = Clock::now();
    MakeSetup(config.seed, options, &trace, checker);
    run.setups.Add(SecondsSince(setup_start));
  }

  if (config.trace) {
    TracedReplay(*traced, options, &trace, checker);
    trace.Emit(&result->metrics);
    return;
  }
  AppendEndToEnd(run, &result->metrics);
}

}  // namespace perfbench
