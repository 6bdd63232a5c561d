#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "stats.hpp"
#include "core/experiment.hpp"
#include "ml/serialize.hpp"
#include "parallel/parallel.hpp"

namespace perfbench {

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric but the ladder latencies, in report order.
// BENCHMARK.json lists the same; tests/gate_test.py checks that it does.
constexpr LayerSpec kLayerSpecs[] = {
        {"workload.parse_ms", "ms"},
        {"workload.parse_bytes", "B"},
        {"ml.bounds_calls", "count"},
        {"ml.bounds_us_per_call", "us"},
        {"ml.model_load_ms", "ms"},
        {"ml.share_pct", "%"},
        {"sched.decisions", "count"},
        {"sched.busy_ms", "ms"},
        {"sched.ns_per_decision", "ns"},
        {"sched.share_pct", "%"},
        {"gpusim.busy_ms", "ms"},
        {"gpusim.ns_per_pair", "ns"},
        {"gpusim.evictions", "count"},
        {"gpusim.fetches", "count"},
        {"gpusim.allocations", "count"},
        {"gpusim.reuse_ratio", "ratio"},
        {"gpusim.share_pct", "%"},
        {"mem.victim_calls", "count"},
        {"mem.busy_ms", "ms"},
        {"mem.us_per_victim", "us"},
        {"mem.feed_ms", "ms"},
        {"mem.refetch_bytes", "B"},
        {"mem.refetch_share", "ratio"},
        {"mem.share_pct", "%"},
        {"obs.events", "count"},
        {"obs.emit_ms", "ms"},
        {"obs.report_ms", "ms"},
        {"obs.trace_overhead_pct", "%"},
        {"obs.share_pct", "%"},
        {"service.submit_rtt_ms_p50", "ms"},
        {"service.queue_ms_p50", "ms"},
        {"service.queue_ms_p99", "ms"},
        {"service.run_ms_p50", "ms"},
        {"service.journal_fsync_ms_p50", "ms"},
        {"service.journal_fsync_ms_p99", "ms"},
        {"service.journal_appends", "count"},
        {"service.admitted", "count"},
        {"service.rejected", "count"},
        {"service.failed", "count"},
        {"service.polls_per_job", "ratio"},
        {"service.sustained_jobs_per_s", "1/s"},
        {"host.calib_ms", "ms"},
        {"host.pass_ms_raw", "ms"},
        {"host.setup_ms_raw", "ms"},
        {"host.setup_kernel_ms", "ms"},
        {"loadgen.late_ms_p99", "ms"},
        {"loadgen.detect_gap_us_p99", "us"},
};

}  // namespace

std::vector<std::string> per_layer_metric_names() {
  std::vector<std::string> names;
  for (const LayerSpec& s : kLayerSpecs) names.emplace_back(s.name);
  for (const int rate : kLadderRates) {
    names.push_back(ladder_metric(rate, "p50"));
    names.push_back(ladder_metric(rate, "p99"));
  }
  return names;
}

std::string per_layer_unit(const std::string& name) {
  for (const LayerSpec& s : kLayerSpecs) {
    if (name == s.name) return s.unit;
  }
  for (const int rate : kLadderRates) {
    if (name == ladder_metric(rate, "p50") ||
        name == ladder_metric(rate, "p99")) {
      return "ms";
    }
  }
  throw std::logic_error("no per-layer metric named " + name);
}

std::string ladder_metric(int rate, const char* quantile) {
  return "loadgen.r" + std::to_string(rate) + ".latency_ms_" + quantile;
}

std::string train_model_file(const std::string& work_dir) {
  micco::TunerConfig tuner;
  tuner.samples = 40;
  tuner.num_devices = 8;
  tuner.batch = 32;
  tuner.seed = 2022;
  micco::parallel::set_threads(1);
  const micco::TuningData data = micco::generate_tuning_data(tuner);
  // Refit on every sample for deployment, exactly as `micco train` writes.
  const auto sets = micco::build_bound_datasets(data.samples);
  const std::string path = work_dir + "/model.mm";
  std::ofstream file(path);
  for (int b = 0; b < 3; ++b) {
    const auto model = micco::random_forest_factory()();
    model->fit(sets[static_cast<std::size_t>(b)]);
    micco::ml::save_regressor(*model, file);
  }
  if (!file.good()) throw std::runtime_error("cannot write " + path);
  return path;
}

std::unique_ptr<micco::RegressionBoundsProvider> load_model_file(
    const std::string& path) {
  std::ifstream in(path);
  std::vector<std::unique_ptr<micco::ml::Regressor>> models;
  for (int b = 0; b < 3; ++b) {
    std::string error;
    auto model = micco::ml::load_regressor(in, &error);
    if (!model) throw std::runtime_error("bad model file: " + error);
    models.push_back(std::move(model));
  }
  return std::make_unique<micco::RegressionBoundsProvider>(
      micco::ml::MultiOutputRegressor::from_models(std::move(models)), 2);
}

micco::obs::JsonValue read_expected(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  auto doc = micco::obs::parse_json(text.str(), &error);
  if (!in.is_open() || !doc.has_value() ||
      doc->kind() != micco::obs::JsonValue::Kind::kObject) {
    throw std::runtime_error("cannot read expected results " + path + ": " +
                             error);
  }
  return *doc;
}


double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void expect_equal(Outcome& out, const std::string& what, double observed,
                  double expected) {
  if (observed == expected) return;
  char line[256];
  std::snprintf(line, sizeof(line), "%s: got %.17g, expected %.17g",
                what.c_str(), observed, expected);
  out.problem(line);
}

void expect_golden(Outcome& out, const micco::obs::JsonValue& golden,
                   const std::string& where, const std::string& key,
                   double observed) {
  const micco::obs::JsonValue* value = golden.find(key);
  if (value == nullptr || !value->is_number()) {
    out.problem(where + "." + key + ": no numeric expected value");
    return;
  }
  expect_equal(out, where + "." + key, observed, value->as_double());
}

void expect_tail(Outcome& out, const std::string& what, std::size_t n,
                 double q) {
  if (tail_supported(n, q)) return;
  out.problem(what + ": " + std::to_string(n) +
              " samples leave fewer than ten beyond the percentile");
}

}  // namespace perfbench
