// stream-wide: one core::StreamingCad tenant of 256 sensors (IS-2-like,
// k = 20, w = 200, s = 4), warmed up on a clean history, then fed 1000
// rounds flat out from one producer thread. Every 25th round the producer
// takes one introspection read (Health + Explain + AdviseJson) in line;
// README.md says why the reads do not run on a thread of their own.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <numeric>
#include <span>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/streaming.h"

namespace perfbench {

namespace {

constexpr int kSensors = 256;
constexpr int kWindow = 200;
constexpr int kStep = 4;
constexpr int kK = 20;
constexpr int kRounds = 1000;
// The batch driver re-runs this many rounds for the stream/batch equality.
constexpr int kBatchCheckRounds = 500;
// The traced run replays this many rounds next to the untraced stream.
constexpr int kReplayRounds = 500;
// The system and its readings are the same for every seed; the seed draws
// the order of the sensor ids (README.md says why).
constexpr uint64_t kSystemSeed = 2023;
constexpr int kReadEveryRounds = 25;
constexpr int kAdviseRounds = 64;
constexpr int kMinSetups = 3;
constexpr double kLockProbeSeconds = 0.02;

SystemShape Shape() {
  SystemShape shape;
  shape.n_sensors = kSensors;
  shape.n_communities = 10;
  shape.noise_std = 0.35;
  shape.drift_std = 0.04;
  shape.history_length = 800;
  shape.test_length = kWindow + kStep * (kRounds - 1);
  shape.n_events = 6;
  shape.min_duration = kWindow;
  shape.max_duration = 340;
  shape.min_gap = kWindow * 3 / 2;
  return shape;
}

// Inputs plus a warmed-up stream, built by one timed set-up.
struct Setup {
  SystemData data;
  std::vector<double> rows;  // test series, sample-major
  std::unique_ptr<core::StreamingCad> stream;
};

// Renames sensor i to perm[i] in the series and the ground truth.
void RelabelSensors(const std::vector<int>& perm, SystemData* data) {
  for (ts::MultivariateSeries* series : {&data->history, &data->test}) {
    const ts::MultivariateSeries original = *series;
    for (int i = 0; i < original.n_sensors(); ++i) {
      const std::span<const double> row = original.sensor(i);
      std::copy(row.begin(), row.end(), series->mutable_sensor(perm[i]).begin());
    }
  }
  for (eval::SensorGroundTruth& event : data->truth) {
    for (int& sensor : event.sensors) sensor = perm[sensor];
    std::sort(event.sensors.begin(), event.sensors.end());
  }
}

Setup MakeSetup(uint64_t seed, const core::CadOptions& options,
                LayerTrace* trace, Checker* checker) {
  Setup setup;
  const Clock::time_point t0 = Clock::now();
  setup.data = MakeSystem(Shape(), kSystemSeed);
  std::vector<int> perm(kSensors);
  std::iota(perm.begin(), perm.end(), 0);
  cad::Rng rng(MixSeed(seed, 1));
  rng.Shuffle(&perm);
  RelabelSensors(perm, &setup.data);
  const ts::MultivariateSeries& test = setup.data.test;
  setup.rows.resize(static_cast<size_t>(test.length()) * kSensors);
  for (int t = 0; t < test.length(); ++t) {
    for (int i = 0; i < kSensors; ++i) {
      setup.rows[static_cast<size_t>(t) * kSensors + i] = test.value(i, t);
    }
  }
  const Clock::time_point t1 = Clock::now();
  setup.stream = std::make_unique<core::StreamingCad>(kSensors, options);
  const cad::Status status = setup.stream->WarmUp(setup.data.history);
  checker->Expect(status.ok(), "stream-wide: WarmUp failed: " + status.ToString());
  trace->timed("datasets.generate_s")
      .Add(std::chrono::duration<double>(t1 - t0).count());
  trace->timed("core.warmup_s").Add(SecondsSince(t1));
  return setup;
}

struct RoundLog {
  int n_variations = 0;
  double mu = 0.0;
  double sigma = 0.0;
  bool abnormal = false;
  std::vector<int> outliers;
  std::vector<int> entered;
};

struct Pass {
  std::vector<RoundLog> rounds;
  Samples decisions;
  Samples reads;
  Samples round_ingest;  // Push seconds from one round's close to the next
  double ingest_seconds = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Correctness of the first pass against independent computations.
void CheckPass(const Setup& setup, const Pass& pass,
               const core::CadOptions& options, Checker* checker) {
  const core::StreamingCad& stream = *setup.stream;
  checker->Expect(static_cast<int>(pass.rounds.size()) == kRounds,
                  "stream-wide: round count != floor((T - w) / s) + 1");
  if (static_cast<int>(pass.rounds.size()) != kRounds) return;

  // Definition 8 from the outlier sets themselves.
  std::vector<int> previous;
  for (size_t r = 0; r < pass.rounds.size(); ++r) {
    const RoundLog& round = pass.rounds[r];
    std::vector<int> entered;
    std::vector<int> changed;
    std::set_difference(round.outliers.begin(), round.outliers.end(),
                        previous.begin(), previous.end(),
                        std::back_inserter(entered));
    std::set_symmetric_difference(round.outliers.begin(), round.outliers.end(),
                                  previous.begin(), previous.end(),
                                  std::back_inserter(changed));
    checker->Expect(round.n_variations == static_cast<int>(changed.size()) &&
                        round.entered == entered,
                    "stream-wide: round " + std::to_string(r) +
                        ": n_r / entered disagree with O_{r-1}, O_r");
    previous = round.outliers;
  }
  CheckFlightLog(stream.FlightLog(), options, checker, "stream-wide flight log");

  // The batch driver over the same history and the test series' first
  // kBatchCheckRounds rounds. Anomalies still open at the prefix's last
  // round are left out on both sides (batch closes them at its end).
  const int prefix = kWindow + kStep * (kBatchCheckRounds - 1);
  const cad::Result<ts::MultivariateSeries> head = setup.data.test.Slice(0, prefix);
  const cad::Result<core::DetectionReport> batch =
      core::CadDetector(options).Detect(head.ValueOrDie(), &setup.data.history);
  checker->Expect(batch.ok(), "stream-wide: batch Detect failed");
  if (!batch.ok()) return;
  const core::DetectionReport& report = batch.value();
  bool same_rounds = report.rounds.size() == kBatchCheckRounds;
  std::vector<int> abnormal_rounds;
  for (int r = 0; same_rounds && r < kBatchCheckRounds; ++r) {
    const RoundLog& round = pass.rounds[r];
    same_rounds = round.n_variations == report.rounds[r].n_variations &&
                  round.mu == report.rounds[r].mu &&
                  round.sigma == report.rounds[r].sigma &&
                  round.abnormal == report.rounds[r].abnormal;
    if (round.abnormal) abnormal_rounds.push_back(r);
  }
  checker->Expect(same_rounds,
                  "stream-wide: n_r / mu / sigma differ from CadDetector::Detect");
  auto closed_in_prefix = [](const std::vector<core::Anomaly>& anomalies) {
    std::vector<core::Anomaly> closed;
    for (const core::Anomaly& anomaly : anomalies) {
      if (anomaly.last_round < kBatchCheckRounds - 1) closed.push_back(anomaly);
    }
    return closed;
  };
  checker->Expect(SameAnomalies(closed_in_prefix(stream.anomalies()),
                                closed_in_prefix(report.anomalies)),
                  "stream-wide: anomalies differ from CadDetector::Detect");
  checker->Expect(LabelsFromRounds(abnormal_rounds, prefix, options) ==
                      report.point_labels,
                  "stream-wide: point labels differ from CadDetector's");

  // Correlation and TSG on three windows of the prefix.
  for (int r : {kBatchCheckRounds / 5, kBatchCheckRounds / 2, kBatchCheckRounds - 1}) {
    const int edges = CheckWindow(setup.data.test, r * kStep, options, checker,
                                  "stream-wide window " + std::to_string(r));
    checker->Expect(edges == report.rounds[r].n_edges,
                    "stream-wide: TSG edge count differs from round trace");
  }
}

// Lock-wait probe of the traced run: a reader thread calls the cheapest
// locked accessor every 20 ms while the producer pushes, timing each call.
class LockProbe {
 public:
  explicit LockProbe(const core::StreamingCad* stream)
      : stream_(stream), start_(Clock::now()), thread_([this] { Loop(); }) {}
  LockProbe(const LockProbe&) = delete;
  LockProbe& operator=(const LockProbe&) = delete;
  ~LockProbe() { Stop(); }

  // Stops the reader and files its waits under core.stream.lock_wait_s.
  void Finish(LayerTrace* trace) {
    Stop();
    trace->timed("core.stream.lock_wait_s").Append(waits_);
    std::fprintf(stderr,
                 "stream-wide: lock probe %zu calls over %.2f s: p50 %.6f s, "
                 "p90 %.6f s, max %.6f s\n",
                 waits_.count(), SecondsSince(start_), waits_.Median(),
                 waits_.Quantile(0.9), waits_.Quantile(1.0));
  }

 private:
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  void Loop() {
    while (!stop_.load()) {
      const Clock::time_point start = Clock::now();
      (void)stream_->samples_seen();
      const double waited = SecondsSince(start);
      waits_.Add(waited);
      if (waited < kLockProbeSeconds) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kLockProbeSeconds - waited));
      }
    }
  }

  const core::StreamingCad* stream_;
  const Clock::time_point start_;
  Samples waits_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// The traced run's replay: each sample the stream receives is also fed,
// right after, through SampleWindow and the recomposed engine, so the
// untraced Push and its traced layers are timed side by side.
class Replayer {
 public:
  Replayer(const Setup& setup, const core::CadOptions& options,
           LayerTrace* trace)
      : trace_(trace),
        engine_(kSensors, options, trace),
        ingest_(kSensors, kWindow, kStep),
        window_(kSensors, kWindow) {
    engine_.WarmUp(setup.data.history);
  }

  // Returns the round's n_r when `row` closed a round, -1 otherwise (and
  // always -1 once kReplayRounds rounds have been replayed).
  int Feed(std::span<const double> row) {
    if (round_sums_.count() == kReplayRounds) return -1;
    const Clock::time_point t0 = Clock::now();
    const bool due = ingest_.Append(row);
    const double append = SecondsSince(t0);
    trace_->timed("core.sample_window.append_s").Add(append);
    if (!due) return -1;
    const Clock::time_point t1 = Clock::now();
    ingest_.MaterializeInto(&window_);
    const double materialize = SecondsSince(t1);
    trace_->timed("core.sample_window.materialize_s").Add(materialize);
    int n_variations = 0;
    const double layers =
        engine_.Step(window_, 0, ingest_.window_start_time(),
                     ingest_.window_end_time(), nullptr, &n_variations);
    round_sums_.Add(append + materialize + layers);
    return n_variations;
  }

  // The untraced duration of the Push that closed a replayed round.
  void AddDecision(double seconds) { decisions_.Add(seconds); }

  // The per-round layer sum must land within 10 % of the untraced decision
  // median over the same rounds.
  void Check(Checker* checker) const {
    const double ratio = round_sums_.Median() / decisions_.Median();
    std::fprintf(stderr,
                 "stream-wide: layer sum p50 %.6f s / decision p50 %.6f s = %.3f\n",
                 round_sums_.Median(), decisions_.Median(), ratio);
    checker->Expect(ratio >= 0.9 && ratio <= 1.1,
                    "stream-wide: layer self times sum to " +
                        std::to_string(ratio) + " x the decision median");
  }

 private:
  LayerTrace* trace_;
  TracedEngine engine_;
  core::SampleWindow ingest_;
  ts::MultivariateSeries window_;
  Samples round_sums_;
  Samples decisions_;
};

// Feeds the whole test series through the stream, timing every Push; with
// a replayer, each sample also goes through the traced replay.
Pass RunPass(Setup* setup, LayerTrace* trace, Replayer* replayer,
             Checker* checker) {
  Pass pass;
  core::StreamingCad& stream = *setup->stream;
  core::StreamEvent event;
  double read_seconds = 0.0;
  double since_round = 0.0;
  const Clock::time_point start = Clock::now();
  const int length = setup->data.test.length();
  for (int t = 0; t < length; ++t) {
    const std::span<const double> row(
        setup->rows.data() + static_cast<size_t>(t) * kSensors, kSensors);
    const Clock::time_point push_start = Clock::now();
    const cad::Result<bool> closed = stream.Push(row, &event);
    const double push_seconds = SecondsSince(push_start);
    trace->timed("core.stream.push_s").Add(push_seconds);
    since_round += push_seconds;
    const int replayed = replayer != nullptr ? replayer->Feed(row) : -1;
    ++pass.attempted;
    if (!closed.ok()) {
      ++pass.failed;
      continue;
    }
    if (!closed.value()) continue;
    if (replayer != nullptr && pass.rounds.size() < kReplayRounds) {
      replayer->AddDecision(push_seconds);
      checker->Expect(replayed == event.n_variations,
                      "stream-wide: traced replay n_r differs from StreamingCad");
    }
    pass.decisions.Add(push_seconds);
    pass.round_ingest.Add(since_round);
    since_round = 0.0;
    pass.rounds.push_back({event.n_variations, event.mu, event.sigma,
                           event.abnormal, event.outliers, event.entered});
    if (pass.rounds.size() % kReadEveryRounds != 0) continue;

    const Clock::time_point read_start = Clock::now();
    const core::StreamHealth health = stream.Health();
    const std::optional<obs::DecisionProvenance> why = stream.Explain(event.round);
    const Clock::time_point advise_start = Clock::now();
    const std::string advice =
        stream.AdviseJson(event.round - kAdviseRounds + 1, event.round);
    trace->timed("advisor.advise_s").Add(SecondsSince(advise_start));
    const double read = SecondsSince(read_start);
    read_seconds += read;
    pass.reads.Add(read);
    ++pass.attempted;
    if (health.rounds != event.round + 1 || !why.has_value() || advice.empty()) {
      ++pass.failed;
    }
  }
  pass.ingest_seconds = SecondsSince(start) - read_seconds;
  return pass;
}

}  // namespace

void RunStreamWide(const RunConfig& config, Checker* checker, RunResult* result) {
  const core::CadOptions options = BaseOptions(kWindow, kStep, kK);
  LayerTrace trace;
  EndToEnd run;
  std::unique_ptr<Setup> first;
  std::unique_ptr<Pass> first_pass;

  // Whole passes until the run length is used; each pass gets a fresh
  // set-up, and set-up runs at least kMinSetups times for its median.
  int n_setups = 0;
  while (run.ingest_seconds < config.seconds || (config.trace && n_setups < 2)) {
    const Clock::time_point setup_start = Clock::now();
    auto setup = std::make_unique<Setup>(
        MakeSetup(config.seed, options, &trace, checker));
    run.setups.Add(SecondsSince(setup_start));
    ++n_setups;
    // The traced run replays its first pass and probes the stream's lock
    // during its second (the replay itself would release the lock between
    // pushes and hide the contention).
    std::unique_ptr<Replayer> replayer;
    std::unique_ptr<LockProbe> probe;
    if (config.trace && n_setups == 1) {
      replayer = std::make_unique<Replayer>(*setup, options, &trace);
    }
    if (config.trace && n_setups == 2) {
      probe = std::make_unique<LockProbe>(setup->stream.get());
    }
    auto pass = std::make_unique<Pass>(
        RunPass(setup.get(), &trace, replayer.get(), checker));
    if (probe != nullptr) probe->Finish(&trace);
    if (replayer != nullptr) replayer->Check(checker);
    run.decisions.Append(pass->decisions);
    run.reads.Append(pass->reads);
    run.unit_seconds.Append(pass->round_ingest);
    for (size_t r = 0; r < pass->rounds.size(); ++r) run.unit_rounds.Add(1.0);
    run.ingest_seconds += pass->ingest_seconds;
    result->attempted += pass->attempted;
    result->failed += pass->failed;
    if (first == nullptr) {
      run.peak_rss_mb = PeakRssMb();
      first = std::move(setup);
      first_pass = std::move(pass);
      continue;
    }
    bool same = pass->rounds.size() == first_pass->rounds.size();
    for (size_t r = 0; same && r < pass->rounds.size(); ++r) {
      same = pass->rounds[r].n_variations == first_pass->rounds[r].n_variations;
    }
    checker->Expect(same, "stream-wide: a repeated pass gave different n_r");
  }
  for (; n_setups < kMinSetups; ++n_setups) {
    const Clock::time_point setup_start = Clock::now();
    MakeSetup(config.seed, options, &trace, checker);
    run.setups.Add(SecondsSince(setup_start));
  }

  CheckPass(*first, *first_pass, options, checker);
  std::vector<int> abnormal_rounds;
  for (size_t r = 0; r < first_pass->rounds.size(); ++r) {
    if (first_pass->rounds[r].abnormal) abnormal_rounds.push_back(static_cast<int>(r));
  }
  run.qualities.push_back(Score(
      first->data,
      LabelsFromRounds(abnormal_rounds, first->data.test.length(), options),
      first->stream->anomalies()));

  if (config.trace) {
    trace.Emit(&result->metrics);
    return;
  }
  AppendEndToEnd(run, &result->metrics);
}

}  // namespace perfbench
