// Bench-side layer probes. The benchmark measures each layer from outside,
// by timing the calls the program makes into objects the benchmark hands
// it: a BoundsProvider (ml), an EvictionPolicy (mem) and an obs::EventSink
// (obs). The scheduler is deliberately not wrapped: run_stream finds MICCO
// by dynamic_cast<MiccoScheduler*>, so a wrapper would silently drop the
// per-vector bounds. Scheduler time comes from RunResult instead.
//
// With a SpanRecorder attached, the bounds and policy probes also record a
// span per call (name, start, end, parent, trace id) in memory; the spans
// are written out once the benchmark has finished measuring.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "mem/policy.hpp"
#include "obs/events.hpp"

namespace perfbench {

/// Monotonic milliseconds since an arbitrary process-wide origin.
double now_ms();

struct Span {
  const char* name = "";     ///< a string literal
  std::uint64_t trace = 0;   ///< one id per measured pass or job
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0: a root span
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// In-memory span store with a stack of open spans for parentage. Leaf
/// spans beyond kMaxSpans are counted but not kept, which bounds memory on
/// long traced runs (a batch pass makes ~10^5 probed calls).
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;

  /// Starts a new trace; spans opened until the next call share its id.
  void begin_trace() { ++trace_; }
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);
  /// Records an already-timed leaf span under the innermost open span.
  void leaf(const char* name, double start_ms, double end_ms) {
    add(name, start_ms, end_ms, open_.empty() ? 0 : open_.back());
  }
  /// Records an already-timed span; returns its id, 0 when over the cap.
  std::uint32_t add(const char* name, double start_ms, double end_ms,
                    std::uint32_t parent);

  /// One JSON object per line, then a {"dropped": N} line when spans were
  /// dropped. Returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::vector<std::uint32_t> open_;
  std::uint64_t trace_ = 0;
};

/// BoundsProvider probe. Always stamps the start of every call: run_stream
/// asks for bounds once at the start of each vector, so each stamp marks
/// the end of the previous vector. With a recorder it also times each
/// call (ml layer) and records an "ml.bounds" span.
class BoundsProbe final : public micco::BoundsProvider {
 public:
  BoundsProbe(micco::BoundsProvider& inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  micco::ReuseBounds bounds_for(const micco::DataCharacteristics& c) override;

  /// Forgets the stamps of the previous pass.
  void reset_stamps() { stamps_ms_.clear(); }
  const std::vector<double>& stamps_ms() const { return stamps_ms_; }
  std::uint64_t calls() const { return calls_; }
  double busy_ms() const { return busy_ms_; }

 private:
  micco::BoundsProvider& inner_;
  SpanRecorder* recorder_;
  std::vector<double> stamps_ms_;
  std::uint64_t calls_ = 0;
  double busy_ms_ = 0.0;
};

/// EvictionPolicy probe: forwards every call to the wrapped policy and
/// times victim selection and the future-use feed separately.
/// pick_victim is const in the interface; the counters are mutable, which
/// is safe because run_stream drives one policy from one thread.
class PolicyProbe final : public micco::mem::EvictionPolicy {
 public:
  PolicyProbe(std::unique_ptr<micco::mem::EvictionPolicy> inner,
              SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  micco::mem::EvictPolicyKind kind() const override { return inner_->kind(); }
  std::optional<micco::mem::VictimChoice> pick_victim(
      const micco::DeviceMemory& memory) const override;
  void begin_vector(const micco::VectorWorkload& vec,
                    const std::vector<std::size_t>& order) override;
  void observe_use(const micco::ContractionTask& task,
                   std::int64_t pos) override;

  std::uint64_t victim_calls() const { return victim_calls_; }
  double victim_ms() const { return victim_ms_; }
  /// begin_vector + observe_use time.
  double feed_ms() const { return begin_ms_ + observe_ms_; }
  /// begin_vector time alone: run_stream counts it as scheduling overhead.
  double begin_ms() const { return begin_ms_; }

 private:
  std::unique_ptr<micco::mem::EvictionPolicy> inner_;
  SpanRecorder* recorder_;
  mutable std::uint64_t victim_calls_ = 0;
  mutable double victim_ms_ = 0.0;
  double begin_ms_ = 0.0;
  double observe_ms_ = 0.0;
};

/// EventSink probe: counts and times every event the program emits on its
/// way into the wrapped sink. Decision events are emitted inside the
/// scheduler's timed window, cluster events inside the simulator's, so the
/// two are kept apart. It records no span per event: at ~10^5 events a
/// pass, spans would cost as much as the emission they time.
class SinkProbe final : public micco::obs::EventSink {
 public:
  explicit SinkProbe(micco::obs::EventSink& inner) : inner_(inner) {}

  void decision(const micco::obs::DecisionEvent& event) override;
  void cluster(const micco::obs::ClusterEvent& event) override;

  std::uint64_t events() const { return events_; }
  double decision_ms() const { return decision_ms_; }
  double cluster_ms() const { return cluster_ms_; }

 private:
  micco::obs::EventSink& inner_;
  std::uint64_t events_ = 0;
  double decision_ms_ = 0.0;
  double cluster_ms_ = 0.0;
};

}  // namespace perfbench
