// Correctness checks and quality metrics. The checks recompute what the
// program claims from first principles (a naive Pearson, the kNN-union
// definition of the TSG, set arithmetic over the flight log, the eta-sigma
// rule) instead of comparing against stored output.
#include <algorithm>
#include <cmath>
#include <string>

#include "bench.h"
#include "eval/adjust.h"
#include "graph/knn_graph.h"
#include "stats/correlation.h"

namespace perfbench {

namespace {

std::string At(const std::string& where, const std::string& what) {
  return where + ": " + what;
}

// Textbook two-pass Pearson: means first, then centred sums. A constant
// series has no correlation; it reads 0, as in the program.
double NaivePearson(const ts::MultivariateSeries& series, int a, int b,
                    int start, int w) {
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (int t = start; t < start + w; ++t) {
    mean_a += series.value(a, t);
    mean_b += series.value(b, t);
  }
  mean_a /= w;
  mean_b /= w;
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (int t = start; t < start + w; ++t) {
    const double da = series.value(a, t) - mean_a;
    const double db = series.value(b, t) - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a < 1e-12 || var_b < 1e-12) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

}  // namespace

int CheckWindow(const ts::MultivariateSeries& series, int start,
                const core::CadOptions& options, Checker* checker,
                const std::string& where) {
  const int n = series.n_sensors();
  const int w = options.window;
  cad::stats::CorrelationScratch scratch;
  cad::stats::CorrelationMatrix corr;
  cad::stats::WindowCorrelationMatrixInto(series, start, w,
                                          cad::stats::CorrelationKind::kPearson,
                                          1, &scratch, &corr);
  double worst = 0.0;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      worst = std::max(worst, std::abs(NaivePearson(series, a, b, start, w) -
                                       corr.at(a, b)));
    }
  }
  checker->Expect(worst <= 1e-9,
                  At(where, "Pearson differs from the naive two-pass value by " +
                                std::to_string(worst)));

  cad::graph::KnnScratch knn_scratch;
  cad::graph::Graph tsg;
  cad::graph::BuildKnnGraphInto(corr, {.k = options.k, .tau = options.tau},
                                &knn_scratch, &tsg);

  // Top-k candidates of every vertex under the program's matrix: |corr| >=
  // tau, strongest first, lower index on ties.
  std::vector<std::vector<uint8_t>> top(n, std::vector<uint8_t>(n, 0));
  std::vector<int> order;
  for (int u = 0; u < n; ++u) {
    order.clear();
    for (int v = 0; v < n; ++v) {
      if (v != u && std::abs(corr.at(u, v)) >= options.tau) order.push_back(v);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double wa = std::abs(corr.at(u, a));
      const double wb = std::abs(corr.at(u, b));
      return wa != wb ? wa > wb : a < b;
    });
    const size_t take = std::min<size_t>(options.k, order.size());
    for (size_t i = 0; i < take; ++i) top[u][order[i]] = 1;
  }

  int64_t half_edges = 0;
  bool symmetric = true;
  bool above_tau = true;
  bool picked = true;
  for (int u = 0; u < n; ++u) {
    for (const auto& nb : tsg.neighbors(u)) {
      ++half_edges;
      const int v = nb.vertex;
      bool back = false;
      for (const auto& other : tsg.neighbors(v)) {
        if (other.vertex == u && other.weight == nb.weight) back = true;
      }
      symmetric = symmetric && back && v != u;
      above_tau = above_tau && std::abs(nb.weight) >= options.tau &&
                  nb.weight == corr.at(u, v);
      picked = picked && (top[u][v] || top[v][u]);
    }
  }
  bool complete = true;
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (top[u][v] && !tsg.HasEdge(u, v)) complete = false;
    }
  }
  checker->Expect(symmetric && half_edges == 2 * tsg.n_edges(),
                  At(where, "TSG is not symmetric"));
  checker->Expect(above_tau, At(where, "TSG has an edge with |corr| < tau"));
  checker->Expect(picked,
                  At(where, "TSG edge outside both endpoints' top-k"));
  checker->Expect(complete, At(where, "TSG misses a vertex's own top-k"));
  return static_cast<int>(tsg.n_edges());
}

void CheckFlightLog(const std::vector<obs::DecisionRecord>& log,
                    const core::CadOptions& options, Checker* checker,
                    const std::string& where) {
  const int burn_in = options.EffectiveBurnIn();
  for (size_t i = 0; i < log.size(); ++i) {
    const obs::DecisionRecord& rec = log[i];
    const std::string round = "round " + std::to_string(rec.round);
    checker->Expect(
        rec.n_variations ==
            static_cast<int>(rec.entered.size() + rec.exited.size()),
        At(where, round + ": n_r != |entered| + |exited|"));
    if (i > 0 && log[i - 1].round == rec.round - 1) {
      checker->Expect(
          rec.n_outliers == log[i - 1].n_outliers +
                                static_cast<int>(rec.entered.size()) -
                                static_cast<int>(rec.exited.size()),
          At(where, round + ": |O_r| != |O_{r-1}| + entered - exited"));
    }
    if (rec.round == 0 || rec.round < burn_in) {
      checker->Expect(rec.threshold == 0.0 && !rec.abnormal,
                      At(where, round + ": judged during burn-in"));
      continue;
    }
    if (rec.threshold == 0.0) {  // no statistics yet
      checker->Expect(!rec.abnormal, At(where, round + ": abnormal unjudged"));
      continue;
    }
    const double threshold =
        std::max(options.eta * std::max(rec.sigma, options.min_sigma), 1e-9);
    const bool abnormal = std::abs(rec.n_variations - rec.mu) >= threshold;
    checker->Expect(rec.threshold == threshold && rec.abnormal == abnormal,
                    At(where, round + ": verdict differs from the eta-sigma "
                                      "rule on the recorded mu / sigma"));
  }
}

bool SameAnomalies(const std::vector<core::Anomaly>& a,
                   const std::vector<core::Anomaly>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].sensors != b[i].sensors || a[i].first_round != b[i].first_round ||
        a[i].last_round != b[i].last_round ||
        a[i].start_time != b[i].start_time || a[i].end_time != b[i].end_time ||
        a[i].detection_time != b[i].detection_time) {
      return false;
    }
  }
  return true;
}

eval::Labels LabelsFromRounds(const std::vector<int>& abnormal_rounds,
                              int length, const core::CadOptions& options) {
  eval::Labels labels(length, 0);
  const int marked =
      std::max(options.step,
               static_cast<int>(options.window * options.window_mark_fraction));
  for (int r : abnormal_rounds) {
    const int start = r * options.step;
    const int end = start + options.window;
    const int begin = r == 0 ? start : std::max(start, end - marked);
    for (int t = begin; t < std::min(end, length); ++t) labels[t] = 1;
  }
  return labels;
}

std::vector<int> RoundsOf(const std::vector<core::Anomaly>& anomalies) {
  std::vector<int> rounds;
  for (const core::Anomaly& anomaly : anomalies) {
    for (int r = anomaly.first_round; r <= anomaly.last_round; ++r) {
      rounds.push_back(r);
    }
  }
  return rounds;
}

Quality Score(const SystemData& data, const eval::Labels& predicted,
              const std::vector<core::Anomaly>& anomalies) {
  Quality quality;
  quality.f1_dpa =
      eval::ScoreWithAdjustment(eval::Adjustment::kDelayPointAdjust, predicted,
                                data.labels)
          .f1;
  std::vector<eval::SensorPrediction> predictions;
  for (const core::Anomaly& anomaly : anomalies) {
    predictions.push_back({{anomaly.start_time, anomaly.end_time},
                           anomaly.sensors});
  }
  quality.sensor_f1 = eval::SensorF1(predictions, data.truth);
  // An event is detected when an anomaly overlaps it; its delay runs from
  // the event's first point to the earliest such anomaly's alarm.
  for (const eval::SensorGroundTruth& event : data.truth) {
    int alarm = -1;
    for (const core::Anomaly& anomaly : anomalies) {
      if (anomaly.start_time < event.segment.end &&
          anomaly.end_time > event.segment.begin &&
          (alarm < 0 || anomaly.detection_time < alarm)) {
        alarm = anomaly.detection_time;
      }
    }
    if (alarm >= 0) {
      quality.delays.push_back(std::max(0, alarm - event.segment.begin));
    }
  }
  return quality;
}

namespace {

// Host hiccups on a shared machine slow a few seconds of a run at a time.
// decision_p90_s and rounds_per_s are therefore taken per block of
// kBlock consecutive units (the tail joins the last block) and reported as
// the median over blocks, so a slow stretch moves one block, not the run.
constexpr size_t kBlock = 100;

template <typename PerBlock>
double MedianOverBlocks(size_t n, PerBlock per_block) {
  Samples blocks;
  const size_t count = std::max<size_t>(1, n / kBlock);
  for (size_t b = 0; b < count; ++b) {
    const size_t end = b + 1 == count ? n : (b + 1) * kBlock;
    blocks.Add(per_block(b * kBlock, end));
  }
  return blocks.Median();
}

}  // namespace

void AppendEndToEnd(const EndToEnd& run, std::vector<Metric>* out) {
  double f1_sum = 0.0;
  double sensor_sum = 0.0;
  Samples delays;
  for (const Quality& quality : run.qualities) {
    f1_sum += quality.f1_dpa;
    sensor_sum += quality.sensor_f1;
    for (double d : quality.delays) delays.Add(d);
  }
  const double systems =
      static_cast<double>(std::max<size_t>(1, run.qualities.size()));
  const std::vector<double>& decisions = run.decisions.values();
  const double decision_p90 =
      MedianOverBlocks(decisions.size(), [&](size_t begin, size_t end) {
        Samples block;
        for (size_t i = begin; i < end; ++i) block.Add(decisions[i]);
        return block.Quantile(0.9);
      });
  const std::vector<double>& rounds = run.unit_rounds.values();
  const std::vector<double>& seconds = run.unit_seconds.values();
  const double rounds_per_s =
      MedianOverBlocks(rounds.size(), [&](size_t begin, size_t end) {
        double block_rounds = 0.0;
        double block_seconds = 0.0;
        for (size_t i = begin; i < end; ++i) {
          block_rounds += rounds[i];
          block_seconds += seconds[i];
        }
        return block_rounds / block_seconds;
      });
  out->push_back({"setup_s", run.setups.Median(), "s"});
  out->push_back({"rounds_per_s", rounds_per_s, "1/s"});
  out->push_back({"decision_p50_s", run.decisions.Quantile(0.5), "s"});
  out->push_back({"decision_p90_s", decision_p90, "s"});
  out->push_back({"read_p50_s", run.reads.Median(), "s"});
  out->push_back({"peak_rss_mb", run.peak_rss_mb, "MB"});
  out->push_back({"f1_dpa", f1_sum / systems, "ratio"});
  out->push_back({"sensor_f1", sensor_sum / systems, "ratio"});
  out->push_back({"detect_delay_p50_samples", delays.Median(), "samples"});
}

}  // namespace perfbench
