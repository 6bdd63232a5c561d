// One measured pass: run_stream over each stream of a workload in turn,
// each on a fresh scheduler and a fresh simulated cluster (as `micco run`
// and every serve job do). Untraced, the only probe is the per-vector time
// stamp. A traced run cycles three kinds of pass: untraced (the baseline of
// the tracing overhead), probed (every layer probe of layers.hpp, no
// telemetry: the layer split) and telemetry (probes plus an obs::Telemetry
// bundle with a probed event sink: the obs layer, which only exists when
// telemetry is attached and whose registry work lands in the other layers).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "calib.hpp"
#include "core/pipeline.hpp"
#include "layers.hpp"
#include "mem/policy.hpp"
#include "stats.hpp"

namespace perfbench {

/// Simulated results of a pass. Deterministic for a given input.
struct SimTotals {
  double makespan_s = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t transfer_bytes = 0;  ///< H2D + P2P + internode + writeback
  std::uint64_t h2d_bytes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t fetched = 0;
  std::uint64_t reused = 0;
  std::uint64_t allocations = 0;
  std::uint64_t refetch_bytes = 0;

  bool operator==(const SimTotals&) const = default;
  double gflops() const {
    return makespan_s > 0.0 ? static_cast<double>(flops) / makespan_s / 1e9
                            : 0.0;
  }
  void add(const micco::ExecutionMetrics& m);
};

struct PassSample {
  double raw_ms = 0.0;             ///< host time of the pass
  /// Host time from the start of its stream's run until each vector's
  /// barrier (the last vector: until run_stream returned). A batch submits
  /// every vector at once, so this is each vector's latency.
  std::vector<double> vector_ms;
  /// Host time of each stream's run, scheduler construction included: one
  /// job's pipeline work when the streams are serve jobs.
  std::vector<double> stream_ms;
  std::uint64_t pairs = 0;
  SimTotals sim;
  bool completed = true;

  // -- probed and telemetry passes only --------------------------------------
  double sched_overhead_ms = 0.0;  ///< RunResult::scheduling_overhead_ms
  double bounds_ms = 0.0;
  std::uint64_t bounds_calls = 0;
  double victim_ms = 0.0;
  std::uint64_t victim_calls = 0;
  double feed_ms = 0.0;
  double feed_in_sched_ms = 0.0;   ///< begin_vector, inside the sched window
  // -- telemetry passes only --------------------------------------------------
  double emit_decision_ms = 0.0;   ///< inside the sched window
  double emit_cluster_ms = 0.0;    ///< inside the simulator
  std::uint64_t events = 0;
  std::uint64_t decisions = 0;     ///< the registry's sched.decisions
  double report_ms = 0.0;          ///< make_run_report, outside raw_ms

  /// Scheduler time net of the probed calls made inside its window.
  double sched_ms() const {
    return sched_overhead_ms - bounds_ms - feed_in_sched_ms - emit_decision_ms;
  }
  double mem_ms() const { return victim_ms + feed_ms; }
  double obs_ms() const { return emit_decision_ms + emit_cluster_ms; }
  /// The remainder: simulator bookkeeping plus per-run construction.
  double gpusim_ms() const {
    return raw_ms - sched_ms() - bounds_ms - mem_ms() - obs_ms();
  }
};

struct PassInput {
  std::vector<const micco::WorkloadStream*> streams;
  micco::ClusterConfig cluster;
  micco::BoundsProvider* model = nullptr;
  std::optional<micco::mem::EvictPolicyKind> policy;
};

enum class PassKind { kUntraced, kProbed, kTelemetry };

/// The kind of the i-th pass of a run: always untraced when not tracing,
/// else cycling untraced, probed, telemetry.
PassKind pass_kind(bool trace, std::size_t i);

/// Runs one pass. Probed and telemetry passes record their spans in
/// `recorder`, one trace id per pass.
PassSample run_pass(const PassInput& input, PassKind kind,
                    SpanRecorder& recorder);

/// A pass and the calibration kernel time that goes with it.
struct Measured {
  PassSample pass;
  PassKind kind = PassKind::kUntraced;
  double kernel_ms = 0.0;
  double reference_ms = 0.0;  ///< the kernel's time on the reference host

  /// A host time of this pass, drift-calibrated (stats.hpp).
  double calibrated(double raw_ms) const {
    return calibrated_time(raw_ms, kernel_ms, reference_ms);
  }
};

/// Calls `run_one(i)` for i = 0, 1, ... until `seconds` have passed, and at
/// least six times. A calibration sample is taken before the first pass and
/// after every pass; each pass gets the mean of the samples on either side.
std::vector<Measured> measure(
    double seconds, const Calibration& calibration,
    const std::function<Measured(std::size_t)>& run_one);

/// The per-layer metrics of a traced run: medians over its probed passes
/// (obs: over its telemetry passes), host times drift-calibrated, plus the
/// tracing overhead of each probed pass against the untraced pass before it.
void report_layers(Outcome& out, const std::vector<Measured>& passes);

}  // namespace perfbench
