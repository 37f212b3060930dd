// cad_perfbench: runs one benchmark workload and prints its result as the
// last line of standard output, one JSON object:
//   {"correct": true, "attempted": N, "failed": M,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones. Exits 1 when a correctness check failed and 2 on
// a usage error.
//
//   cad_perfbench --workload stream-wide|fleet-narrow|batch-smd
//                 --seed N --seconds S --trace 0|1
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: cad_perfbench --workload "
               "stream-wide|fleet-narrow|batch-smd --seed N --seconds S "
               "--trace 0|1\n",
               message);
  return 2;
}

void PrintResult(bool correct, const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  Checker checker;
  RunResult result;
  if (config.workload == "stream-wide") {
    RunStreamWide(config, &checker, &result);
  } else if (config.workload == "fleet-narrow") {
    RunFleetNarrow(config, &checker, &result);
  } else if (config.workload == "batch-smd") {
    RunBatchSmd(config, &checker, &result);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (!checker.ok()) {
    std::fprintf(stderr, "%d correctness check(s) failed\n", checker.failures());
  }
  std::fflush(stderr);
  PrintResult(checker.ok(), result);
  return checker.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
