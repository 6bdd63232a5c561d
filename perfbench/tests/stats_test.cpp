// Tests of the benchmark's own statistics (cpp/stats.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

TEST(Quantile, NearestRank) {
  EXPECT_DOUBLE_EQ(quantile(one_to(100), 0.50), 50.0);
  EXPECT_DOUBLE_EQ(quantile(one_to(100), 0.99), 99.0);
  EXPECT_DOUBLE_EQ(quantile(one_to(1000), 0.99), 990.0);
  EXPECT_DOUBLE_EQ(quantile(one_to(7), 1.0), 7.0);
  EXPECT_DOUBLE_EQ(median(one_to(4)), 2.5);
  EXPECT_DOUBLE_EQ(median(one_to(5)), 3.0);
}

TEST(Quantile, TenSamplesBeyondRule) {
  // The q-quantile of n samples leaves n - ceil(q n) samples above it; a
  // tail percentile is reported only with at least ten there.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_FALSE(tail_supported(999, 0.99));
  EXPECT_TRUE(tail_supported(100, 0.90));
  EXPECT_FALSE(tail_supported(99, 0.90));
}

TEST(Calibration, ScalesTimeByTheKernel) {
  // A pass measured while the kernel ran 20% slower than its reference is
  // reported 20% faster.
  EXPECT_DOUBLE_EQ(calibrated_time(240.0, 12.0, 10.0), 200.0);
  // Work over calibrated time: the rate moves the other way.
  EXPECT_DOUBLE_EQ(1000.0 / calibrated_time(240.0, 12.0, 10.0), 5.0);
  // At the reference speed nothing changes.
  EXPECT_DOUBLE_EQ(calibrated_time(123.0, 10.0, 10.0), 123.0);
}

TEST(LatencyBook, RefusedJobCountsAsAMiss) {
  LatencyBook book;
  for (int i = 0; i < 990; ++i) book.done(1.0);
  for (int i = 0; i < 10; ++i) book.miss();
  EXPECT_EQ(book.attempted(), 1000u);
  EXPECT_EQ(book.failed(), 10u);
  // A miss has no latency: percentiles are over the finished jobs only,
  // and the run reports the misses as failed operations.
  EXPECT_EQ(book.done_ms().size(), 990u);
  EXPECT_FALSE(tail_supported(book.done_ms().size(), 0.99));
}

}  // namespace
}  // namespace perfbench
