// Shared infrastructure for the figure/table reproduction harnesses: common
// CLI flags, the MI100-node cluster description, one-stop training of the
// reuse-bound regression model, and table output helpers.
//
// Every bench accepts:
//   --gpus=N       number of simulated devices (default 8, the paper's node)
//   --vectors=N    vectors per stream (default 10, Table V's setting)
//   --batch=N      batch width per hadron node (default 16)
//   --samples=N    tuner corpus size for the regression model (default 300)
//   --seed=N       experiment seed (default 2022)
//   --csv-dir=DIR  also write each figure's series as CSV into DIR
//   --report-dir=DIR  also write a telemetry run report (JSON) into DIR
//   --threads=N    worker-pool width for sweeps/trials (0 = all cores)
//   --quick        shrink everything for smoke runs
#pragma once

#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/bounds_model.hpp"
#include "core/experiment.hpp"
#include "parallel/parallel.hpp"
#include "workload/synthetic.hpp"

namespace micco::bench {

struct Env {
  int gpus = 8;
  std::int64_t vectors = 10;
  std::int64_t batch = 16;
  int samples = 300;
  std::uint64_t seed = 2022;
  int threads = 1;  ///< worker-pool width already applied via set_threads
  bool quick = false;
  std::string csv_dir;     ///< empty = no CSV output
  std::string report_dir;  ///< empty = no run-report output

  ClusterConfig cluster(std::uint64_t capacity = 32ULL << 30) const {
    ClusterConfig c;
    c.num_devices = gpus;
    c.device_capacity_bytes = capacity;
    return c;
  }
};

/// Parses the shared flags and warns on typos; exits on malformed input.
Env parse_env(const CliArgs& args);

/// Prints the bench banner with the paper artefact it regenerates.
void print_header(const std::string& title, const std::string& paper_ref);

/// Trains the production Random Forest bounds model on the standard tuner
/// corpus (Section IV-C: 300 samples, bounds searched on [0,2]^3). In
/// --quick mode the corpus shrinks for smoke runs.
TrainedBoundsModel train_model(const Env& env);

/// The standard synthetic config used across Figs. 7-11, with the paper's
/// defaults (tensor size 384, repeated rate 50 %, Uniform).
SyntheticConfig base_synth(const Env& env);

/// Runs `trial(t)` for t in [0, trials) across the worker pool and returns
/// the per-trial results in trial order — the statistics computed from them
/// are identical at every thread count. Use for repeated-measurement loops
/// whose trials are independent (fresh scheduler + cluster per trial).
template <typename Fn>
auto run_trials(std::int64_t trials, Fn&& trial) {
  return parallel::parallel_map(static_cast<std::size_t>(trials),
                                [&](std::size_t t) { return trial(t); });
}

/// Formats GFLOPS / speedups for table cells.
std::string fmt_gflops(double gflops);
std::string fmt_speedup(double speedup);
std::string fmt_bytes_gb(std::uint64_t bytes);

/// Writes `csv` as <csv_dir>/<name>.csv when --csv-dir was given (no-op
/// otherwise); prints the destination path.
void maybe_write_csv(const Env& env, const std::string& name,
                     const CsvWriter& csv);

/// When --report-dir was given, reruns `stream` under `kind` with telemetry
/// attached and writes the machine-readable run report (obs/report.hpp) as
/// <report_dir>/<name>.json; no-op otherwise. The rerun keeps telemetry off
/// the measured runs so instrumentation can never skew a figure.
void maybe_write_report(const Env& env, const std::string& name,
                        const WorkloadStream& stream,
                        const ClusterConfig& cluster, SchedulerKind kind,
                        BoundsProvider* bounds = nullptr);

}  // namespace micco::bench
