// batch-smd: the paper's SMD protocol. 28 subsets of 38 sensors, each run
// through core::CadDetector::Detect with no warm-up; every detected anomaly
// is then triaged with advisor::Advise over the run's flight log (the
// workload's reads).
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "advisor/advisor.h"
#include "bench.h"
#include "common/rng.h"
#include "datasets/registry.h"
#include "ts/window.h"

namespace perfbench {

namespace {

constexpr int kSubsets = 28;
constexpr int kMinSetups = 3;

struct Subset {
  SystemData data;
  core::CadOptions options;
};

std::vector<Subset> MakeSubsets(uint64_t seed) {
  std::vector<Subset> subsets;
  for (int i = 1; i <= kSubsets; ++i) {
    cad::datasets::DatasetProfile profile = cad::datasets::SmdSubsetProfile(i);
    profile.seed = MixSeed(seed, static_cast<uint64_t>(i));
    cad::datasets::LabeledDataset dataset = cad::datasets::MakeDataset(profile);
    Subset subset;
    subset.options = dataset.recommended;
    // The ring holds every round of the subset, so Advise can triage any
    // anomaly of the run.
    subset.options.flight_log_capacity =
        (dataset.test.length() - subset.options.window) / subset.options.step + 1;
    subset.data.test = std::move(dataset.test);
    subset.data.labels = std::move(dataset.labels);
    subset.data.truth = std::move(dataset.anomalies);
    subsets.push_back(std::move(subset));
  }
  return subsets;
}

struct Pass {
  std::vector<core::DetectionReport> reports;
  std::vector<std::vector<cad::advisor::AdviceReport>> advice;
  Samples decisions;
  Samples reads;
  Samples detect_rounds;  // rounds of each Detect call, as decisions
  double ingest_seconds = 0.0;
  int64_t rounds = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// The traced run's replay of one subset through the recomposed engine,
// run right after that subset's untraced Detect so both see the same
// machine state. Returns the summed layer seconds.
double ReplaySubset(const Subset& subset, const core::DetectionReport& report,
                    LayerTrace* trace, Checker* checker,
                    const std::string& where) {
  const ts::WindowPlan plan =
      ts::WindowPlan::Make(subset.data.test.length(), subset.options.window,
                           subset.options.step)
          .ValueOrDie();
  TracedEngine engine(subset.data.test.n_sensors(), subset.options, trace);
  double layer_seconds = 0.0;
  bool same = static_cast<int>(report.rounds.size()) == plan.rounds();
  for (int r = 0; same && r < plan.rounds(); ++r) {
    int n_variations = 0;
    layer_seconds += engine.Step(subset.data.test, plan.start(r), plan.start(r),
                                 plan.end(r), nullptr, &n_variations);
    same = n_variations == report.rounds[r].n_variations;
  }
  engine.Finish();
  checker->Expect(same && SameAnomalies(engine.anomalies(), report.anomalies),
                  where + ": traced replay differs from CadDetector::Detect");
  return layer_seconds;
}

// Detect + Advise over every subset. With `checker` set (the traced run's
// first pass), each subset is also replayed traced, and the mean per-round
// layer sum must land within 10 % of the untraced seconds per round.
Pass RunPass(const std::vector<Subset>& subsets, LayerTrace* trace,
             Checker* replay_checker) {
  Pass pass;
  double layer_seconds = 0.0;
  for (size_t s = 0; s < subsets.size(); ++s) {
    const Subset& subset = subsets[s];
    const Clock::time_point start = Clock::now();
    cad::Result<core::DetectionReport> report =
        core::CadDetector(subset.options).Detect(subset.data.test, nullptr);
    const double seconds = SecondsSince(start);
    ++pass.attempted;
    if (!report.ok()) {
      ++pass.failed;
      pass.reports.emplace_back();
      pass.advice.emplace_back();
      continue;
    }
    pass.decisions.Add(seconds);
    pass.ingest_seconds += seconds;
    pass.rounds += static_cast<int64_t>(report.value().rounds.size());
    pass.detect_rounds.Add(static_cast<double>(report.value().rounds.size()));
    pass.reports.push_back(std::move(report).value());
    const core::DetectionReport& done = pass.reports.back();
    std::vector<cad::advisor::AdviceReport> advice;
    for (const core::Anomaly& anomaly : done.anomalies) {
      const Clock::time_point read_start = Clock::now();
      advice.push_back(cad::advisor::Advise(
          done.flight_log, {anomaly.first_round, anomaly.last_round}));
      const double read = SecondsSince(read_start);
      pass.reads.Add(read);
      trace->timed("advisor.advise_s").Add(read);
      ++pass.attempted;
      if (advice.back().rounds_scanned !=
          anomaly.last_round - anomaly.first_round + 1) {
        ++pass.failed;
      }
    }
    pass.advice.push_back(std::move(advice));
    if (replay_checker != nullptr) {
      layer_seconds += ReplaySubset(subset, done, trace, replay_checker,
                                    "smd subset " + std::to_string(s + 1));
    }
  }
  if (replay_checker != nullptr) {
    const double ratio = layer_seconds / pass.ingest_seconds;
    std::fprintf(stderr,
                 "batch-smd: layer sum %.3e s/round / untraced %.3e s/round = %.3f\n",
                 layer_seconds / pass.rounds, pass.ingest_seconds / pass.rounds,
                 ratio);
    replay_checker->Expect(ratio >= 0.9 && ratio <= 1.1,
                           "batch-smd: layer self times sum to " +
                               std::to_string(ratio) + " x 1 / rounds_per_s");
  }
  return pass;
}

// mu / sigma of every record recomputed from the recorded n_r (no warm-up,
// so the statistics are those of the post-burn-in rounds before it).
void CheckStatistics(const std::vector<obs::DecisionRecord>& log,
                     const core::CadOptions& options, Checker* checker,
                     const std::string& where) {
  const int burn_in = options.EffectiveBurnIn();
  double sum = 0.0;
  double sum_sq = 0.0;
  int count = 0;
  bool ok = !log.empty() && log.front().round == 0;
  for (const obs::DecisionRecord& rec : log) {
    const double mean = count > 0 ? sum / count : 0.0;
    const double var = count > 0 ? std::max(0.0, sum_sq / count - mean * mean) : 0.0;
    ok = ok && std::abs(rec.mu - mean) <= 1e-9 * std::max(1.0, mean) &&
         std::abs(rec.sigma - std::sqrt(var)) <= 1e-6 * std::max(1.0, std::sqrt(var));
    if (rec.round >= burn_in) {
      sum += rec.n_variations;
      sum_sq += static_cast<double>(rec.n_variations) * rec.n_variations;
      ++count;
    }
  }
  checker->Expect(ok, where + ": recorded mu / sigma differ from the n_r series");
}

void CheckPass(const std::vector<Subset>& subsets, const Pass& pass,
               uint64_t seed, Checker* checker) {
  cad::Rng rng(MixSeed(seed, 7));
  for (size_t s = 0; s < subsets.size(); ++s) {
    const Subset& subset = subsets[s];
    const core::DetectionReport& report = pass.reports[s];
    const std::string where = "smd subset " + std::to_string(s + 1);
    const int expected_rounds =
        (subset.data.test.length() - subset.options.window) / subset.options.step + 1;
    checker->Expect(static_cast<int>(report.rounds.size()) == expected_rounds &&
                        static_cast<int>(report.flight_log.size()) == expected_rounds,
                    where + ": round count != floor((T - w) / s) + 1");
    if (report.rounds.empty()) continue;  // Detect failed, counted above
    CheckFlightLog(report.flight_log, subset.options, checker, where);
    CheckStatistics(report.flight_log, subset.options, checker, where);
    std::vector<int> abnormal;
    for (const core::RoundTrace& round : report.rounds) {
      if (round.abnormal) abnormal.push_back(round.round);
    }
    checker->Expect(RoundsOf(report.anomalies) == abnormal,
                    where + ": anomalies do not cover exactly the abnormal rounds");
    checker->Expect(LabelsFromRounds(abnormal, subset.data.test.length(),
                                     subset.options) == report.point_labels,
                    where + ": point labels differ from the abnormal rounds");
    const int r = static_cast<int>(rng.NextBounded(report.rounds.size()));
    checker->Expect(CheckWindow(subset.data.test, r * subset.options.step,
                                subset.options, checker, where) ==
                        report.rounds[r].n_edges,
                    where + ": TSG edge count differs from the round trace");
    for (size_t a = 0; a < report.anomalies.size(); ++a) {
      const core::Anomaly& anomaly = report.anomalies[a];
      const cad::advisor::AdviceReport& advice = pass.advice[s][a];
      bool ranked = !advice.ranking.empty();
      for (const cad::advisor::SensorFinding& finding : advice.ranking) {
        ranked = ranked && finding.sensor >= 0 &&
                 finding.sensor < subset.data.test.n_sensors();
      }
      checker->Expect(
          ranked && advice.rounds_abnormal ==
                        anomaly.last_round - anomaly.first_round + 1,
          where + ": advice does not cover the anomaly's abnormal rounds");
    }
  }
}

}  // namespace

void RunBatchSmd(const RunConfig& config, Checker* checker, RunResult* result) {
  LayerTrace trace;
  EndToEnd run;
  std::vector<Subset> subsets;
  std::unique_ptr<Pass> first;

  int n_setups = 0;
  while (run.ingest_seconds < config.seconds || n_setups < kMinSetups) {
    const Clock::time_point setup_start = Clock::now();
    std::vector<Subset> generated = MakeSubsets(config.seed);
    const double setup_seconds = SecondsSince(setup_start);
    run.setups.Add(setup_seconds);
    trace.timed("datasets.generate_s").Add(setup_seconds);
    ++n_setups;
    if (first != nullptr && run.ingest_seconds >= config.seconds) continue;
    auto pass = std::make_unique<Pass>(RunPass(
        generated, &trace,
        config.trace && first == nullptr ? checker : nullptr));
    run.decisions.Append(pass->decisions);
    run.reads.Append(pass->reads);
    run.unit_seconds.Append(pass->decisions);
    run.unit_rounds.Append(pass->detect_rounds);
    run.ingest_seconds += pass->ingest_seconds;
    result->attempted += pass->attempted;
    result->failed += pass->failed;
    if (first == nullptr) {
      run.peak_rss_mb = PeakRssMb();
      first = std::move(pass);
      subsets = std::move(generated);
      continue;
    }
    bool same = true;
    for (size_t s = 0; s < subsets.size(); ++s) {
      same = same && SameAnomalies(pass->reports[s].anomalies,
                                   first->reports[s].anomalies);
    }
    checker->Expect(same, "batch-smd: a repeated pass gave different anomalies");
  }

  CheckPass(subsets, *first, config.seed, checker);
  for (size_t s = 0; s < subsets.size(); ++s) {
    run.qualities.push_back(Score(subsets[s].data,
                                  first->reports[s].point_labels,
                                  first->reports[s].anomalies));
  }

  if (config.trace) {
    trace.Emit(&result->metrics);
    return;
  }
  AppendEndToEnd(run, &result->metrics);
}

}  // namespace perfbench
