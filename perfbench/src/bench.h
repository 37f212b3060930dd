// Shared pieces of the CAD benchmark: run configuration, metric and sample
// bookkeeping, the correctness-check sink, seeded input generation, the
// independent correctness checks, the quality metrics, and the traced
// round replay. Every workload (stream_wide.cc, fleet_narrow.cc,
// batch_smd.cc) drives the program only through its public headers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cad_detector.h"
#include "core/cad_options.h"
#include "core/engine.h"
#include "core/round_processor.h"
#include "core/sample_window.h"
#include "core/types.h"
#include "eval/confusion.h"
#include "eval/sensor_eval.h"
#include "obs/flight_recorder.h"
#include "obs/pipeline_metrics.h"
#include "ts/multivariate_series.h"

namespace perfbench {

namespace core = cad::core;
namespace eval = cad::eval;
namespace obs = cad::obs;
namespace ts = cad::ts;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// A sample set summarized by linearly interpolated quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }  // in order
  double total() const;
  double Quantile(double q) const;  // 0 when empty
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

// Collects failed correctness checks; a run with any failure reports
// "correct": false and exits non-zero.
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

// Per-layer timings of the traced run, keyed by the per-layer metric names
// listed in bench_util.cc (kLayers).
class LayerTrace {
 public:
  // Samples of a timed layer (seconds per call) or of a counted one.
  Samples& timed(const std::string& name);
  Samples& counted(const std::string& name);
  // Appends every per-layer metric, zero-valued for layers this workload
  // never called, so every workload prints the same key set.
  void Emit(std::vector<Metric>* out) const;

 private:
  std::map<std::string, Samples> samples_;
};

// Peak resident set size of this process so far, in MB. Workloads read it
// right after their first pass, so it does not depend on how many passes
// fit in the run.
double PeakRssMb();

// ---- seeded inputs ---------------------------------------------------------

// One monitored system: a clean history (possibly empty), a test series
// with injected anomalies, and their ground truth.
struct SystemData {
  ts::MultivariateSeries history;
  ts::MultivariateSeries test;
  eval::Labels labels;
  std::vector<eval::SensorGroundTruth> truth;
};

struct SystemShape {
  int n_sensors = 0;
  int n_communities = 0;
  double noise_std = 0.3;
  double drift_std = 0.04;
  int history_length = 0;
  int test_length = 0;
  int n_events = 0;
  int min_duration = 0;
  int max_duration = 0;
  int min_gap = 0;
};

// A synthetic system (datasets::SensorNetworkGenerator) with events planned
// by datasets::PlanEvents and injected by datasets::InjectAnomalies.
SystemData MakeSystem(const SystemShape& shape, uint64_t seed);

// Splits one 64-bit seed into independent per-purpose streams.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

// The options every workload starts from (the paper's recommended set as
// datasets::MakeDataset fills it in).
core::CadOptions BaseOptions(int window, int step, int k);

// ---- correctness checks ------------------------------------------------------

// A naive two-pass Pearson matrix of window [start, start + w) compared
// with stats::WindowCorrelationMatrixInto (|diff| <= 1e-9), followed by the
// TSG properties on the program's kNN graph of that matrix: symmetric, no
// edge with |corr| < tau, every edge among the top-k of one endpoint, every
// vertex keeping its own top-k. Returns the TSG's edge count.
int CheckWindow(const ts::MultivariateSeries& series, int start,
                const core::CadOptions& options, Checker* checker,
                const std::string& where);

// Flight-log invariants: n_r = |entered| + |exited|, |O_r| = |O_{r-1}| +
// entered - exited across consecutive records, and every verdict equal to
// the eta-sigma rule recomputed from the recorded mu and sigma.
void CheckFlightLog(const std::vector<obs::DecisionRecord>& log,
                    const core::CadOptions& options, Checker* checker,
                    const std::string& where);

// Field-by-field equality of two anomaly lists.
bool SameAnomalies(const std::vector<core::Anomaly>& a,
                   const std::vector<core::Anomaly>& b);

// ---- quality -----------------------------------------------------------------

// Point labels of the given abnormal rounds, marked the way
// core::CadDetector marks them (the trailing window_mark_fraction of each
// abnormal round's window; rounds laid out by the window plan).
eval::Labels LabelsFromRounds(const std::vector<int>& abnormal_rounds,
                              int length, const core::CadOptions& options);
std::vector<int> RoundsOf(const std::vector<core::Anomaly>& anomalies);

// Quality of one system's detections against its injected ground truth.
struct Quality {
  double f1_dpa = 0.0;
  double sensor_f1 = 0.0;
  // first alarm - event start, for each detected event
  std::vector<double> delays;
};
Quality Score(const SystemData& data, const eval::Labels& predicted,
              const std::vector<core::Anomaly>& anomalies);

// Every end-to-end metric: the speed and memory figures of a run plus the
// per-system qualities averaged over systems. Ingest is recorded per unit
// (a stream round, a fleet tick, a batch Detect call) in run order.
struct EndToEnd {
  Samples setups;     // seconds per set-up
  Samples decisions;  // seconds per decision, in run order
  Samples reads;      // seconds per read
  Samples unit_rounds;   // rounds completed by each ingest unit
  Samples unit_seconds;  // ingest seconds of each unit
  double ingest_seconds = 0.0;  // their sum, for the run-length loop
  double peak_rss_mb = 0.0;
  std::vector<Quality> qualities;
};
void AppendEndToEnd(const EndToEnd& run, std::vector<Metric>* out);

// ---- traced round replay -------------------------------------------------------

// One detection engine recomposed from its public parts (RoundProcessor,
// DecisionPolicy, AnomalyAssembler, FlightRecorder) with every call timed
// into a LayerTrace: the per-layer view of core::DetectionEngine::Step.
class TracedEngine {
 public:
  TracedEngine(int n_sensors, const core::CadOptions& options,
               LayerTrace* trace);

  // Seeds mu / sigma from a history the way DetectionEngine::WarmUp does.
  void WarmUp(const ts::MultivariateSeries& history);
  // One round on the window [start, start + w) of `series`, with the same
  // arguments as DetectionEngine::Step. Returns the round's summed layer
  // time in seconds and sets *n_variations to its n_r.
  double Step(const ts::MultivariateSeries& series, int start,
              int window_start_time, int window_end_time,
              core::RoundWorkspace* workspace, int* n_variations);
  void Finish() { assembler_.Finish(processor_.tracker()); }
  const std::vector<core::Anomaly>& anomalies() const {
    return assembler_.anomalies();
  }

 private:
  int n_sensors_;
  core::CadOptions options_;
  LayerTrace* trace_;
  obs::PipelineMetrics metrics_;
  core::RoundProcessor processor_;
  core::DecisionPolicy policy_;
  core::AnomalyAssembler assembler_;
  obs::FlightRecorder recorder_;
  core::RoundWorkspace owned_workspace_;
  int round_ = 0;
};

// ---- workloads -------------------------------------------------------------------

void RunStreamWide(const RunConfig& config, Checker* checker,
                   RunResult* result);
void RunFleetNarrow(const RunConfig& config, Checker* checker,
                    RunResult* result);
void RunBatchSmd(const RunConfig& config, Checker* checker, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
