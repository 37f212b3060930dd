// TracedEngine: core::DetectionEngine::Step recomposed from the public
// pieces it is built from, each call timed from here. The stages inside
// RoundProcessor (kNN, Louvain, co-appearance) are read from the stage
// timings the processor already reports in RoundOutput; no tracing is added
// to the program.
#include "bench.h"
#include "stats/correlation.h"
#include "ts/window.h"

namespace perfbench {

TracedEngine::TracedEngine(int n_sensors, const core::CadOptions& options,
                           LayerTrace* trace)
    : n_sensors_(n_sensors),
      options_(options),
      trace_(trace),
      metrics_(obs::PipelineMetrics::For(
          obs::ResolveRegistry(options.metrics_registry))),
      processor_(n_sensors, options),
      policy_(options),
      assembler_(n_sensors, options, metrics_),
      recorder_(options.flight_log_capacity, n_sensors) {}

void TracedEngine::WarmUp(const ts::MultivariateSeries& history) {
  const ts::WindowPlan plan =
      ts::WindowPlan::Make(history.length(), options_.window, options_.step)
          .ValueOrDie();
  core::RoundProcessor processor(n_sensors_, options_);
  const int burn_in = options_.EffectiveBurnIn();
  for (int r = 0; r < plan.rounds(); ++r) {
    const core::RoundOutput& out = processor.ProcessWindow(history, plan.start(r));
    if (r >= burn_in) policy_.Seed(out.n_variations);
  }
}

double TracedEngine::Step(const ts::MultivariateSeries& series, int start,
                          int window_start_time, int window_end_time,
                          core::RoundWorkspace* workspace, int* n_variations) {
  core::RoundWorkspace* ws =
      workspace != nullptr ? workspace : &owned_workspace_;

  const Clock::time_point t0 = Clock::now();
  cad::stats::WindowCorrelationMatrixInto(
      series, start, options_.window,
      options_.use_spearman ? cad::stats::CorrelationKind::kSpearman
                            : cad::stats::CorrelationKind::kPearson,
      options_.n_threads, &ws->correlation_scratch, &ws->correlation);
  const Clock::time_point t1 = Clock::now();
  const core::RoundOutput& out = processor_.ProcessCorrelation(ws->correlation, ws);
  const Clock::time_point t2 = Clock::now();

  const core::DecisionPolicy::Decision decision =
      policy_.Judge(round_, out.n_variations);
  assembler_.Observe(round_, decision.abnormal, out, window_start_time,
                     window_end_time, processor_.tracker());
  if (decision.abnormal) metrics_.abnormal_rounds_total->Increment();
  policy_.Update(round_, out.n_variations);
  const Clock::time_point t3 = Clock::now();

  if (recorder_.enabled()) {
    obs::DecisionRecord& rec = recorder_.BeginRecord();
    rec.round = round_;
    rec.window_start = window_start_time;
    rec.window_end = window_end_time;
    rec.n_variations = out.n_variations;
    rec.mu = decision.mu;
    rec.sigma = decision.sigma;
    rec.threshold = decision.threshold;
    rec.score = decision.score;
    rec.abnormal = decision.abnormal;
    rec.anomaly_open = assembler_.open();
    rec.n_outliers = static_cast<int>(out.outliers.size());
    rec.n_communities = out.n_communities;
    rec.n_edges = out.n_edges;
    rec.modularity = out.modularity;
    rec.entered.assign(out.entered.begin(), out.entered.end());
    rec.exited.assign(out.exited.begin(), out.exited.end());
    rec.movers.assign(out.entered_movers.begin(), out.entered_movers.end());
    rec.correlation_seconds = out.correlation_seconds;
    rec.knn_seconds = out.knn_seconds;
    rec.louvain_seconds = out.louvain_seconds;
    rec.coappearance_seconds = out.coappearance_seconds;
    rec.round_seconds = out.round_seconds;
    recorder_.Commit();
  }
  const Clock::time_point t4 = Clock::now();
  ++round_;

  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const double correlation = seconds(t0, t1);
  const double rest = seconds(t1, t2);
  trace_->timed("stats.correlation_s").Add(correlation);
  trace_->timed("graph.knn_s").Add(out.knn_seconds);
  trace_->timed("graph.louvain_s").Add(out.louvain_seconds);
  trace_->timed("core.coappearance_s").Add(out.coappearance_seconds);
  trace_->timed("core.round_s").Add(correlation + rest);
  trace_->timed("core.round_self_s")
      .Add(rest - out.knn_seconds - out.louvain_seconds -
           out.coappearance_seconds);
  trace_->counted("graph.tsg_edges").Add(out.n_edges);
  trace_->timed("core.decide_s").Add(seconds(t2, t3));
  trace_->timed("obs.flight_record_s").Add(seconds(t3, t4));
  *n_variations = out.n_variations;
  return seconds(t0, t4);
}

}  // namespace perfbench
