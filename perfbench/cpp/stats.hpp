// Statistics the benchmark reports with: nearest-rank percentiles under the
// ten-samples-beyond rule, drift calibration of host times, and job
// accounting in which a refused or failed job counts as a miss.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `xs` (mean of the two middle values for an even count).
/// Requires a non-empty input.
double median(std::vector<double> xs);

/// Nearest-rank quantile: the smallest sample with at least q * n samples
/// at or below it. Requires a non-empty input and 0 < q <= 1.
double quantile(std::vector<double> xs, double q);

/// Samples strictly beyond the nearest-rank q-quantile position:
/// n - ceil(q * n).
std::size_t samples_beyond(std::size_t n, double q);

/// True when a q-quantile of n samples has at least ten samples beyond it,
/// the least a reported tail percentile may rest on.
bool tail_supported(std::size_t n, double q);

/// Drift calibration. The host's memory speed drifts over minutes and
/// single-threaded simulator time follows it, so every host-compute time is
/// scaled to what it would have been had the calibration kernel run in
/// `reference_ms`: time * reference / measured.
double calibrated_time(double raw, double kernel_ms, double reference_ms);

/// Job latencies of one open-loop phase. A job that was refused or failed
/// is a miss: it is attempted but failed, and has no latency.
class LatencyBook {
 public:
  void done(double latency_ms) { done_ms_.push_back(latency_ms); }
  void miss() { ++misses_; }

  std::size_t attempted() const { return done_ms_.size() + misses_; }
  std::size_t failed() const { return misses_; }
  /// Latencies of the jobs that finished correctly.
  const std::vector<double>& done_ms() const { return done_ms_; }

 private:
  std::vector<double> done_ms_;
  std::size_t misses_ = 0;
};

}  // namespace perfbench
