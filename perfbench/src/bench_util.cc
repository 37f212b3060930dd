#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "common/rng.h"
#include "datasets/anomaly_injector.h"
#include "datasets/generator.h"

namespace perfbench {

namespace {

// Every per-layer metric of the traced run. A timed layer prints three
// metrics: `<name>` (median seconds per call), `<name>.calls` and
// `<name>.total` (busy seconds); a counted one prints the median of its
// samples.
struct LayerSpec {
  const char* name;
  const char* unit;  // nullptr for timed layers
};
constexpr LayerSpec kLayers[] = {
    {"datasets.generate_s", nullptr},
    {"core.warmup_s", nullptr},
    {"core.sample_window.append_s", nullptr},
    {"core.sample_window.materialize_s", nullptr},
    {"core.stream.push_s", nullptr},
    {"core.stream.lock_wait_s", nullptr},
    {"stats.correlation_s", nullptr},
    {"graph.knn_s", nullptr},
    {"graph.louvain_s", nullptr},
    {"graph.tsg_edges", "count"},
    {"core.coappearance_s", nullptr},
    {"core.round_s", nullptr},
    {"core.round_self_s", nullptr},
    {"core.decide_s", nullptr},
    {"obs.flight_record_s", nullptr},
    {"obs.export_s", nullptr},
    {"obs.export_bytes", "bytes"},
    {"fleet.push_s", nullptr},
    {"fleet.queue_s", nullptr},
    {"fleet.scheduler_s", nullptr},
    {"fleet.pool_s", nullptr},
    {"fleet.drain_wait_s", nullptr},
    {"fleet.quanta", "count"},
    {"fleet.rounds_per_quantum", "ratio"},
    {"advisor.advise_s", nullptr},
};

bool KnownLayer(const std::string& name, bool timed) {
  for (const LayerSpec& spec : kLayers) {
    if (name == spec.name) return timed == (spec.unit == nullptr);
  }
  return false;
}

}  // namespace

double Samples::total() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

void Checker::Expect(bool ok, const std::string& what) {
  if (ok) return;
  // Print the first few failures; the count says how many were hidden.
  if (failures_ < 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  ++failures_;
}

Samples& LayerTrace::timed(const std::string& name) {
  if (!KnownLayer(name, /*timed=*/true)) {
    std::fprintf(stderr, "unknown timed layer %s\n", name.c_str());
    std::abort();
  }
  return samples_[name];
}

Samples& LayerTrace::counted(const std::string& name) {
  if (!KnownLayer(name, /*timed=*/false)) {
    std::fprintf(stderr, "unknown counted layer %s\n", name.c_str());
    std::abort();
  }
  return samples_[name];
}

void LayerTrace::Emit(std::vector<Metric>* out) const {
  for (const LayerSpec& spec : kLayers) {
    const std::string name = spec.name;
    const auto it = samples_.find(name);
    const Samples empty;
    const Samples& samples = it == samples_.end() ? empty : it->second;
    if (spec.unit != nullptr) {
      out->push_back({name, samples.Median(), spec.unit});
      continue;
    }
    out->push_back({name, samples.Median(), "s"});
    out->push_back(
        {name + ".calls", static_cast<double>(samples.count()), "count"});
    out->push_back({name + ".total", samples.total(), "s"});
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over the pair.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

SystemData MakeSystem(const SystemShape& shape, uint64_t seed) {
  cad::Rng rng(seed);
  cad::datasets::GeneratorOptions options;
  options.n_sensors = shape.n_sensors;
  options.n_communities = shape.n_communities;
  options.noise_std = shape.noise_std;
  options.baseline_drift_std = shape.drift_std;
  cad::datasets::SensorNetworkGenerator generator(options, &rng);

  SystemData data;
  if (shape.history_length > 0) {
    data.history = generator.Generate(shape.history_length, &rng);
  }
  data.test = generator.Generate(shape.test_length, &rng);
  const std::vector<cad::datasets::AnomalyEvent> events =
      cad::datasets::PlanEvents(generator, shape.test_length, shape.n_events,
                                shape.min_duration, shape.max_duration,
                                shape.min_gap, &rng);
  data.labels =
      cad::datasets::InjectAnomalies(generator, events, &data.test, &rng);
  data.truth = cad::datasets::ToGroundTruth(events);
  return data;
}

core::CadOptions BaseOptions(int window, int step, int k) {
  core::CadOptions options;
  options.window = window;
  options.step = step;
  options.k = k;
  options.tau = 0.55;
  options.theta = 0.9;
  options.min_sigma = 0.3;
  return options;
}

}  // namespace perfbench
