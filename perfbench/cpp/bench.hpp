// Shared pieces of the benchmark driver: command-line options, the result
// every workload fills in, and the inputs every workload prepares outside
// its timed regions (the trained bounds model).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bounds_model.hpp"
#include "obs/json.hpp"

namespace perfbench {

/// Workload seed whose simulated results expected.json pins.
inline constexpr std::uint64_t kDefaultSeed = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path;  ///< golden simulated results (expected.json)
  std::string work_dir;       ///< scratch files: model, journal, socket, spans
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports. Any problem makes the run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;
  /// Metric-name prefixes of layers this workload does not exercise; the
  /// driver reports them as 0 so every run prints the same metric set.
  std::vector<std::string> idle_layers;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void problem(const std::string& what) { problems.push_back(what); }
};

Outcome run_batch(const Options& options);
Outcome run_serve(const Options& options);

// -- helpers shared by the workloads ----------------------------------------

/// Trains the bounds model with fixed arguments and writes it in the
/// `micco train` format (three concatenated regressors). Returns the path.
std::string train_model_file(const std::string& work_dir);

/// Loads a model file the way `micco run --model` does. Aborts the run on a
/// malformed file: the benchmark wrote it itself.
std::unique_ptr<micco::RegressionBoundsProvider> load_model_file(
    const std::string& path);

/// The expected-results file (expected.json). It must parse: a broken file
/// fails the run.
micco::obs::JsonValue read_expected(const std::string& path);

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

/// Compares an observed value against the expected one, recording a
/// problem on mismatch. Simulated results are deterministic, so doubles must
/// match to the last bit.
void expect_equal(Outcome& out, const std::string& what, double observed,
                  double expected);
/// expect_equal against golden[key]; a missing or non-numeric golden value
/// is itself a problem. `where` names the record in messages.
void expect_golden(Outcome& out, const micco::obs::JsonValue& golden,
                   const std::string& where, const std::string& key,
                   double observed);

/// Records a problem unless the q-quantile of n samples has ten samples
/// beyond it (stats.hpp: tail_supported); `what` names the metric.
void expect_tail(Outcome& out, const std::string& what, std::size_t n,
                 double q);

// -- metric names -------------------------------------------------------------

/// Fixed offered rates (jobs/s) of the serve workload's latency ladder.
/// The first is the reference rate of the end-to-end latency metrics.
inline constexpr int kLadderRates[] = {100, 200};

std::vector<std::string> per_layer_metric_names();
std::string per_layer_unit(const std::string& name);
/// "loadgen.r<rate>.latency_ms_<quantile>".
std::string ladder_metric(int rate, const char* quantile);

}  // namespace perfbench
