// Batch workloads: repeated in-process passes of `micco run` over a
// synthetic stream at 2x memory oversubscription on 8 simulated GPUs,
// MICCO with bounds from the trained model.
//
//   batch-oversub  200 vectors x 512 slots, default memory path (no
//                  eviction policy attached): simulator bookkeeping dominates.
//   batch-belady   60 vectors x 256 slots, reuse-distance eviction policy:
//                  its victim scan dominates.
//
// A batch "job" is one vector, the pipeline's unit of work (bounds,
// decisions, execution, barrier). A batch submits every vector at once, so
// a vector's latency runs from the start of the pass to its barrier.
// Passes run back to back, so the saturation rate is the vector completion
// rate.
#include <malloc.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "calib.hpp"
#include "pass.hpp"
#include "stats.hpp"
#include "workload/serialize.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {
namespace {

/// Set-up repeats until both bounds are met; the median is reported.
constexpr int kSetupRuns = 30;
constexpr double kSetupMinMs = 1500.0;
constexpr int kGpus = 8;
constexpr double kOversubscription = 2.0;

std::uint64_t first_task_bytes(const micco::WorkloadStream& stream) {
  for (const micco::VectorWorkload& vec : stream.vectors) {
    if (!vec.tasks.empty()) return vec.tasks.front().a.bytes();
  }
  return 0;
}

}  // namespace

Outcome run_batch(const Options& options) {
  const bool belady = options.workload == "batch-belady";
  Outcome out;

  // -- inputs, untimed: the stream file and the trained model ---------------
  micco::SyntheticConfig config;  // `micco generate` defaults
  config.num_vectors = belady ? 60 : 200;
  config.vector_size = belady ? 256 : 512;
  config.tensor_extent = 384;
  config.batch = 32;
  config.repeated_rate = 0.5;
  config.seed = options.seed;
  const std::string stream_path = options.work_dir + "/stream.mw";
  micco::save_stream_file(micco::generate_synthetic(config), stream_path);
  const std::string model_path = train_model_file(options.work_dir);

  // -- setup, timed: what `micco run` pays before its first decision --------
  // Each repeat is calibrated by a set-up kernel sample taken right after
  // it (calib.hpp); the median over repeats is reported.
  std::vector<double> setup_ms;
  std::vector<double> parse_ms;
  std::vector<double> load_ms;
  std::vector<double> setup_raw_ms;
  std::vector<double> setup_kernel_ms;
  std::optional<micco::WorkloadStream> stream;
  std::unique_ptr<micco::RegressionBoundsProvider> model;
  const double setup_deadline = now_ms() + kSetupMinMs;
  for (int i = 0; i < kSetupRuns || now_ms() < setup_deadline; ++i) {
    stream.reset();  // freeing the previous copy is not part of set-up
    model.reset();
    // Hand freed memory back, so every repeat faults its pages in afresh as
    // a new `micco run` process would; otherwise whether the heap happens
    // to keep them decides the figure.
    ::malloc_trim(0);
    const double start = now_ms();
    std::string error;
    stream = micco::load_stream_file(stream_path, &error);
    const double parsed = now_ms();
    model = load_model_file(model_path);
    const double end = now_ms();
    if (!stream.has_value()) throw std::runtime_error("load_stream: " + error);
    const double kernel_ms = setup_kernel_once_ms();
    const auto cal = [&](double ms) {
      return calibrated_time(ms, kernel_ms, kReferenceSetupKernelMs);
    };
    setup_raw_ms.push_back(end - start);
    setup_kernel_ms.push_back(kernel_ms);
    setup_ms.push_back(cal(end - start));
    parse_ms.push_back(cal(parsed - start));
    load_ms.push_back(cal(end - parsed));
  }

  PassInput input;
  input.streams = {&*stream};
  input.cluster.num_devices = kGpus;
  input.cluster.device_capacity_bytes = micco::capacity_for_oversubscription(
      *stream, kGpus, kOversubscription, 8 * first_task_bytes(*stream));
  input.model = model.get();
  if (belady) input.policy = micco::mem::EvictPolicyKind::kReuseDistance;

  // -- correctness reference: the first pass, checked against the golden
  // -- values when the seed is the one they were recorded for ---------------
  SpanRecorder recorder;
  const PassSample reference =
      run_pass(input, PassKind::kUntraced, recorder);
  if (options.seed == kDefaultSeed) {
    const micco::obs::JsonValue expected = read_expected(options.expected_path);
    const micco::obs::JsonValue* golden = expected.find(options.workload);
    if (golden == nullptr) {
      out.problem("no expected results for " + options.workload);
    } else {
      expect_golden(out, *golden, options.workload, "makespan_s",
                    reference.sim.makespan_s);
      expect_golden(out, *golden, options.workload, "total_flops",
                    static_cast<double>(reference.sim.flops));
      expect_golden(out, *golden, options.workload, "transfer_bytes",
                    static_cast<double>(reference.sim.transfer_bytes));
      expect_golden(out, *golden, options.workload, "evictions",
                    static_cast<double>(reference.sim.evictions));
    }
  }

  // Every pass, traced or not, must simulate exactly what the first did.
  // calib.hpp says why each workload has the calibration it has.
  const Calibration& calibration =
      belady ? kHashCalibration : kMixedCalibration;
  const std::vector<Measured> passes =
      measure(options.seconds, calibration, [&](std::size_t i) {
        const PassKind kind = pass_kind(options.trace, i);
        return Measured{run_pass(input, kind, recorder), kind};
      });

  for (const Measured& m : passes) {
    ++out.attempted;
    if (!m.pass.completed || !(m.pass.sim == reference.sim)) ++out.failed;
  }
  if (out.failed > 0) out.problem("a pass simulated different results");

  if (!options.trace) {
    std::vector<double> pairs_per_s;
    std::vector<double> vectors_per_s;
    std::vector<double> vector_ms;
    for (const Measured& m : passes) {
      const double pass_s = m.calibrated(m.pass.raw_ms) / 1000.0;
      pairs_per_s.push_back(static_cast<double>(m.pass.pairs) / pass_s);
      vectors_per_s.push_back(static_cast<double>(m.pass.vector_ms.size()) /
                              pass_s);
      for (const double v : m.pass.vector_ms) {
        vector_ms.push_back(m.calibrated(v));
      }
    }
    out.set("host_pairs_per_s", median(pairs_per_s), "1/s");
    out.set("job_latency_ms_p50", quantile(vector_ms, 0.50), "ms");
    expect_tail(out, "job_latency_ms_p90", vector_ms.size(), 0.90);
    out.set("job_latency_ms_p90", quantile(vector_ms, 0.90), "ms");
    out.set("saturation_jobs_per_s", median(vectors_per_s), "1/s");
    out.set("sim_gflops", reference.sim.gflops(), "GFLOP/s");
    out.set("sim_transfer_bytes",
            static_cast<double>(reference.sim.transfer_bytes), "B");
    out.set("setup_s", median(setup_ms) / 1000.0, "s");
    out.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return out;
  }

  out.idle_layers = {"service.", "loadgen."};
  out.set("workload.parse_ms", median(parse_ms), "ms");
  out.set("workload.parse_bytes",
          static_cast<double>(std::filesystem::file_size(stream_path)), "B");
  out.set("ml.model_load_ms", median(load_ms), "ms");
  out.set("host.setup_ms_raw", median(setup_raw_ms), "ms");
  out.set("host.setup_kernel_ms", median(setup_kernel_ms), "ms");
  report_layers(out, passes);
  if (!recorder.write_jsonl(options.work_dir + "/spans-" + options.workload +
                            ".jsonl")) {
    out.problem("cannot write the span file");
  }
  return out;
}

}  // namespace perfbench
