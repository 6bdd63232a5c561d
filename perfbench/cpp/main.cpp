// micco_perfbench — the repository's benchmark (BENCHMARK.json).
//
//   micco_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --expected FILE --work-dir DIR
//
// Workloads: batch-oversub, batch-belady, serve-journal (see BENCHMARK.json
// for why each exists). --trace 0 measures the end-to-end metrics with no
// probes beyond a per-vector time stamp; --trace 1 is a separate run that
// probes every layer and reports the per-layer metrics. Prints one line per
// metric, then, as the last line, one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
// Exits 1 when any output was wrong (the JSON still says what ran).
#include <cstdio>
#include <exception>
#include <set>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// BENCHMARK.json lists the same; tests/gate_test.py checks that it does.
constexpr MetricSpec kEndToEnd[] = {
    {"host_pairs_per_s", "1/s"},   {"job_latency_ms_p50", "ms"},
    {"job_latency_ms_p90", "ms"},  {"saturation_jobs_per_s", "1/s"},
    {"sim_gflops", "GFLOP/s"},     {"sim_transfer_bytes", "B"},
    {"setup_s", "s"},              {"peak_rss_mib", "MiB"},
};

int usage() {
  std::fprintf(stderr,
               "usage: micco_perfbench --workload batch-oversub|batch-belady|"
               "serve-journal --seed N --seconds S --trace 0|1 "
               "--expected FILE --work-dir DIR\n");
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--expected") {
      options.expected_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.work_dir.empty() ||
      options.expected_path.empty() || !(options.seconds > 0.0)) {
    return usage();
  }

  Outcome out;
  if (options.workload == "batch-oversub" ||
      options.workload == "batch-belady") {
    out = run_batch(options);
  } else if (options.workload == "serve-journal") {
    out = run_serve(options);
  } else {
    return usage();
  }

  // Every run prints the same metric set: the end-to-end metrics untraced,
  // the per-layer metrics traced. Layers a workload does not exercise read 0.
  std::set<std::string> wanted;
  if (!options.trace) {
    for (const MetricSpec& m : kEndToEnd) {
      wanted.insert(m.name);
      if (out.metrics.count(m.name) == 0) {
        out.problem(std::string("end-to-end metric missing: ") + m.name);
      }
    }
  } else {
    for (const std::string& name : per_layer_metric_names()) {
      wanted.insert(name);
      if (out.metrics.count(name) != 0) continue;
      bool idle = false;
      for (const std::string& prefix : out.idle_layers) {
        idle = idle || name.rfind(prefix, 0) == 0;
      }
      if (idle) {
        out.set(name, 0.0, per_layer_unit(name));
      } else {
        out.problem("per-layer metric missing: " + name);
      }
    }
  }

  const bool correct = out.problems.empty() && out.failed == 0;
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "FAIL: %s\n", problem.c_str());
  }
  micco::obs::JsonValue metrics = micco::obs::JsonValue::object();
  for (const auto& [name, metric] : out.metrics) {
    if (wanted.count(name) == 0) continue;
    std::printf("%-40s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
    micco::obs::JsonValue entry = micco::obs::JsonValue::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    metrics.set(name, std::move(entry));
  }
  micco::obs::JsonValue doc = micco::obs::JsonValue::object();
  doc.set("correct", correct);
  doc.set("attempted", out.attempted);
  doc.set("failed", out.failed);
  doc.set("metrics", std::move(metrics));
  std::printf("%s\n", doc.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micco_perfbench: %s\n", e.what());
    return 1;
  }
}
