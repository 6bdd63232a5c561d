#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of no samples");
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

namespace {

std::size_t rank_of(std::size_t n, double q) {
  if (n == 0 || !(q > 0.0) || q > 1.0) {
    throw std::invalid_argument("quantile needs samples and 0 < q <= 1");
  }
  // ceil(q * n), guarded against q * n landing a hair above an integer.
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// The rank-th smallest of `xs` (1-based).
double kth_smallest(std::vector<double> xs, std::size_t rank) {
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(xs.begin(), nth, xs.end());
  return *nth;
}

}  // namespace

double quantile(std::vector<double> xs, double q) {
  const std::size_t rank = rank_of(xs.size(), q);
  return kth_smallest(std::move(xs), rank);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - rank_of(n, q);
}

bool tail_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= 10;
}

double calibrated_time(double raw, double kernel_ms, double reference_ms) {
  return raw * reference_ms / kernel_ms;
}

}  // namespace perfbench
