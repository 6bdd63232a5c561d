#include "pass.hpp"

#include <map>
#include <string>

#include "calib.hpp"
#include "core/experiment.hpp"
#include "obs/names.hpp"
#include "obs/telemetry.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

/// Median calibration kernel time over a run's passes.
double median_kernel_ms(const std::vector<Measured>& passes) {
  std::vector<double> kernels;
  for (const Measured& m : passes) kernels.push_back(m.kernel_ms);
  return median(kernels);
}

}  // namespace

void SimTotals::add(const micco::ExecutionMetrics& m) {
  makespan_s += m.makespan_s;
  flops += m.total_flops;
  transfer_bytes +=
      m.h2d_bytes + m.p2p_bytes + m.internode_bytes + m.writeback_bytes;
  h2d_bytes += m.h2d_bytes;
  evictions += m.evictions;
  fetched += m.fetched_operands;
  reused += m.reused_operands;
  allocations += m.allocations;
  refetch_bytes += m.eviction_refetch_bytes;
}

PassKind pass_kind(bool trace, std::size_t i) {
  if (!trace) return PassKind::kUntraced;
  constexpr PassKind kCycle[] = {PassKind::kUntraced, PassKind::kProbed,
                                 PassKind::kTelemetry};
  return kCycle[i % 3];
}

PassSample run_pass(const PassInput& input, PassKind kind,
                    SpanRecorder& recorder) {
  const bool traced = kind != PassKind::kUntraced;
  SpanRecorder* spans = traced ? &recorder : nullptr;
  PassSample s;
  // The registry-only sink: a telemetry pass pays for building every event
  // and updating the registry, not for serialising a decision log.
  micco::obs::NullEventSink null_sink;
  SinkProbe sink(null_sink);
  BoundsProbe bounds(*input.model, spans);
  std::uint32_t root = 0;
  if (traced) {
    recorder.begin_trace();
    root = recorder.open("pass");
  }

  for (const micco::WorkloadStream* stream : input.streams) {
    micco::obs::Telemetry telemetry;
    telemetry.sink = &sink;
    std::unique_ptr<micco::mem::EvictionPolicy> policy;
    const PolicyProbe* policy_probe = nullptr;
    if (input.policy.has_value()) {
      policy = micco::mem::make_policy(*input.policy);
      if (traced) {
        auto probe = std::make_unique<PolicyProbe>(std::move(policy), spans);
        policy_probe = probe.get();
        policy = std::move(probe);
      }
    }
    micco::RunOptions options;
    options.bounds = &bounds;
    options.evict_policy = policy.get();
    options.telemetry = kind == PassKind::kTelemetry ? &telemetry : nullptr;

    bounds.reset_stamps();
    const double start = now_ms();
    const auto scheduler =
        micco::make_scheduler(micco::SchedulerKind::kMiccoOptimal, 7);
    const micco::RunResult result =
        micco::run_stream(*stream, *scheduler, input.cluster, options);
    const double end = now_ms();

    s.raw_ms += end - start;
    s.stream_ms.push_back(end - start);
    const std::vector<double>& stamps = bounds.stamps_ms();
    for (std::size_t v = 0; v < stamps.size(); ++v) {
      const double done = v + 1 < stamps.size() ? stamps[v + 1] : end;
      s.vector_ms.push_back(done - start);
    }
    for (const micco::VectorWorkload& vec : stream->vectors) {
      s.pairs += vec.tasks.size();
    }
    s.sim.add(result.metrics);
    s.completed = s.completed && result.completed;

    if (traced) {
      s.sched_overhead_ms += result.scheduling_overhead_ms;
      if (policy_probe != nullptr) {
        s.victim_ms += policy_probe->victim_ms();
        s.victim_calls += policy_probe->victim_calls();
        s.feed_ms += policy_probe->feed_ms();
        s.feed_in_sched_ms += policy_probe->begin_ms();
      }
    }
    if (kind == PassKind::kTelemetry) {
      s.decisions += telemetry.registry
                         .counter(micco::obs::names::kSchedDecisions)
                         .value();
      const double report_start = now_ms();
      const micco::obs::JsonValue report =
          micco::make_run_report(result, telemetry);
      (void)report;
      const double report_end = now_ms();
      s.report_ms += report_end - report_start;
      recorder.leaf("obs.report", report_start, report_end);
    }
  }

  if (traced) {
    s.bounds_ms = bounds.busy_ms();
    s.bounds_calls = bounds.calls();
    s.emit_decision_ms = sink.decision_ms();
    s.emit_cluster_ms = sink.cluster_ms();
    s.events = sink.events();
    recorder.close(root);
  }
  return s;
}

std::vector<Measured> measure(
    double seconds, const Calibration& calibration,
    const std::function<Measured(std::size_t)>& run_one) {
  constexpr std::size_t kMinPasses = 6;
  std::vector<Measured> passes;
  const double deadline = now_ms() + seconds * 1000.0;
  double before = calibration_sample_ms(calibration);
  while (passes.size() < kMinPasses || now_ms() < deadline) {
    Measured m = run_one(passes.size());
    const double after = calibration_sample_ms(calibration);
    m.kernel_ms = 0.5 * (before + after);
    m.reference_ms = calibration.reference_ms;
    before = after;
    passes.push_back(std::move(m));
  }
  return passes;
}

void report_layers(Outcome& out, const std::vector<Measured>& passes) {
  std::map<std::string, std::vector<double>> x;  // per-pass values by metric
  std::vector<double> untraced_raw;
  const auto per = [](double total, double count, double scale) {
    return count > 0.0 ? total * scale / count : 0.0;
  };
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Measured& m = passes[i];
    const PassSample& p = m.pass;
    const auto cal = [&](double raw_ms) { return m.calibrated(raw_ms); };
    const auto share = [&](double ms) { return 100.0 * ms / p.raw_ms; };
    switch (m.kind) {
      case PassKind::kUntraced:
        untraced_raw.push_back(p.raw_ms);
        break;
      case PassKind::kProbed: {
        // gpusim is the remainder of the pass, so the layers always add up;
        // a probe that over-counted inside the scheduler's window would
        // show as a negative sched or gpusim time instead.
        if (p.sched_ms() < 0.0 || p.gpusim_ms() <= 0.0) {
          out.problem("probed pass " + std::to_string(i) +
                      ": layer times do not fit in the pass (sched " +
                      std::to_string(p.sched_ms()) + " ms, gpusim " +
                      std::to_string(p.gpusim_ms()) + " ms)");
        }
        const auto calls = static_cast<double>(p.bounds_calls);
        const auto victims = static_cast<double>(p.victim_calls);
        x["ml.bounds_calls"].push_back(calls);
        x["ml.bounds_us_per_call"].push_back(per(cal(p.bounds_ms), calls, 1e3));
        x["ml.share_pct"].push_back(share(p.bounds_ms));
        x["sched.busy_ms"].push_back(cal(p.sched_ms()));
        x["sched.share_pct"].push_back(share(p.sched_ms()));
        x["gpusim.busy_ms"].push_back(cal(p.gpusim_ms()));
        x["gpusim.ns_per_pair"].push_back(
            per(cal(p.gpusim_ms()), static_cast<double>(p.pairs), 1e6));
        x["gpusim.share_pct"].push_back(share(p.gpusim_ms()));
        x["mem.victim_calls"].push_back(victims);
        x["mem.busy_ms"].push_back(cal(p.mem_ms()));
        x["mem.us_per_victim"].push_back(per(cal(p.victim_ms), victims, 1e3));
        x["mem.feed_ms"].push_back(cal(p.feed_ms));
        x["mem.share_pct"].push_back(share(p.mem_ms()));
        const Measured& u = passes[i - 1];  // the cycle starts untraced
        const double untraced_ms = u.calibrated(u.pass.raw_ms);
        x["obs.trace_overhead_pct"].push_back(
            100.0 * (cal(p.raw_ms) - untraced_ms) / untraced_ms);
        break;
      }
      case PassKind::kTelemetry:
        x["sched.decisions"].push_back(static_cast<double>(p.decisions));
        x["obs.events"].push_back(static_cast<double>(p.events));
        x["obs.emit_ms"].push_back(cal(p.obs_ms()));
        x["obs.report_ms"].push_back(cal(p.report_ms));
        x["obs.share_pct"].push_back(share(p.obs_ms()));
        break;
    }
  }
  for (const auto& [name, values] : x) {
    out.set(name, median(values), per_layer_unit(name));
  }
  out.set("sched.ns_per_decision",
          per(median(x["sched.busy_ms"]), median(x["sched.decisions"]), 1e6),
          "ns");

  const SimTotals& sim = passes.front().pass.sim;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  out.set("gpusim.evictions", static_cast<double>(sim.evictions), "count");
  out.set("gpusim.fetches", static_cast<double>(sim.fetched), "count");
  out.set("gpusim.allocations", static_cast<double>(sim.allocations), "count");
  out.set("gpusim.reuse_ratio",
          ratio(static_cast<double>(sim.reused),
                static_cast<double>(sim.reused + sim.fetched)),
          "ratio");
  out.set("mem.refetch_bytes", static_cast<double>(sim.refetch_bytes), "B");
  out.set("mem.refetch_share",
          ratio(static_cast<double>(sim.refetch_bytes),
                static_cast<double>(sim.h2d_bytes)),
          "ratio");
  out.set("host.calib_ms", median_kernel_ms(passes), "ms");
  out.set("host.pass_ms_raw", median(untraced_raw), "ms");
}

}  // namespace perfbench
