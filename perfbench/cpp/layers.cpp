#include "layers.hpp"

#include <fstream>

namespace perfbench {

double now_ms() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::uint32_t SpanRecorder::open(const char* name) {
  Span span;
  span.name = name;
  span.trace = trace_;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.start_ms = now_ms();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void SpanRecorder::close(std::uint32_t id) {
  spans_[id - 1].end_ms = now_ms();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::uint32_t SpanRecorder::add(const char* name, double start_ms,
                                double end_ms, std::uint32_t parent) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  Span span;
  span.name = name;
  span.trace = trace_;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.start_ms = start_ms;
  span.end_ms = end_ms;
  spans_.push_back(span);
  return span.id;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"trace\":" << s.trace
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
        << "}\n";
  }
  if (dropped_ > 0) out << "{\"dropped\":" << dropped_ << "}\n";
  return out.good();
}

micco::ReuseBounds BoundsProbe::bounds_for(
    const micco::DataCharacteristics& c) {
  const double start = now_ms();
  stamps_ms_.push_back(start);
  ++calls_;
  const micco::ReuseBounds bounds = inner_.bounds_for(c);
  if (recorder_ != nullptr) {
    const double end = now_ms();
    busy_ms_ += end - start;
    recorder_->leaf("ml.bounds", start, end);
  }
  return bounds;
}

std::optional<micco::mem::VictimChoice> PolicyProbe::pick_victim(
    const micco::DeviceMemory& memory) const {
  const double start = now_ms();
  auto choice = inner_->pick_victim(memory);
  const double end = now_ms();
  ++victim_calls_;
  victim_ms_ += end - start;
  if (recorder_ != nullptr) recorder_->leaf("mem.victim", start, end);
  return choice;
}

void PolicyProbe::begin_vector(const micco::VectorWorkload& vec,
                               const std::vector<std::size_t>& order) {
  const double start = now_ms();
  inner_->begin_vector(vec, order);
  const double end = now_ms();
  begin_ms_ += end - start;
  if (recorder_ != nullptr) recorder_->leaf("mem.feed", start, end);
}

void PolicyProbe::observe_use(const micco::ContractionTask& task,
                              std::int64_t pos) {
  const double start = now_ms();
  inner_->observe_use(task, pos);
  const double end = now_ms();
  observe_ms_ += end - start;
  if (recorder_ != nullptr) recorder_->leaf("mem.feed", start, end);
}

void SinkProbe::decision(const micco::obs::DecisionEvent& event) {
  const double start = now_ms();
  inner_.decision(event);
  const double end = now_ms();
  ++events_;
  decision_ms_ += end - start;
}

void SinkProbe::cluster(const micco::obs::ClusterEvent& event) {
  const double start = now_ms();
  inner_.cluster(event);
  const double end = now_ms();
  ++events_;
  cluster_ms_ += end - start;
}

}  // namespace perfbench
