#include "calib.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kKeys = std::size_t{1} << 16;
constexpr std::size_t kSetupLines = 16000;
constexpr std::size_t kArenaBytes = std::size_t{16} << 20;

/// A kernel's own allocation buffer. Left uninitialised, so only the pages
/// a kernel touches (a few MiB) count in the process's peak RSS.
std::byte* new_arena() { return new std::byte[kArenaBytes]; }

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

double kernel_once_ms() {
  // The kernel allocates from a buffer of its own, so its time follows the
  // host's memory speed and not the state of the process heap, which the
  // measured passes leave different from run to run.
  static std::byte* const arena = new_arena();
  std::pmr::monotonic_buffer_resource pool(arena, kArenaBytes);
  const auto start = std::chrono::steady_clock::now();
  std::pmr::unordered_set<std::uint64_t> set(&pool);
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < kKeys; ++i) set.insert(xorshift(state));
  std::size_t hits = 0;
  state = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < kKeys; ++i) {
    hits += set.count(xorshift(state));
  }
  state = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < kKeys; ++i) set.erase(xorshift(state));
  const auto end = std::chrono::steady_clock::now();
  // The check keeps the work observable, so none of it is optimised away.
  if (hits != kKeys || !set.empty()) {
    throw std::logic_error("calibration kernel lost keys");
  }
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double setup_kernel_once_ms() {
  static const std::string text = [] {
    std::string lines;
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    for (std::size_t i = 0; i < kSetupLines; ++i) {
      const std::uint64_t x = xorshift(state);
      lines += std::to_string(static_cast<double>(x % 1000000) / 997.0) +
               " " + std::to_string(x % 4096) + "\n";
    }
    return lines;
  }();
  // Its own arena, like kernel_once_ms.
  static std::byte* const arena = new_arena();
  std::pmr::monotonic_buffer_resource pool(arena, kArenaBytes);
  const auto start = std::chrono::steady_clock::now();
  std::istringstream in(text);
  std::pmr::polymorphic_allocator<std::pair<double, long>> alloc(&pool);
  std::pmr::vector<std::pair<double, long>*> nodes(&pool);
  std::pmr::map<long, double> sums(&pool);
  double value = 0.0;
  long key = 0;
  while (in >> value >> key) {
    std::pair<double, long>* node = alloc.allocate(1);
    *node = {value, key};
    nodes.push_back(node);
    sums[key] += value;
  }
  const auto end = std::chrono::steady_clock::now();
  if (nodes.size() != kSetupLines || sums.empty()) {
    throw std::logic_error("set-up kernel lost lines");
  }
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double mixed_kernel_once_ms() {
  return kernel_once_ms() + setup_kernel_once_ms();
}

double calibration_sample_ms(const Calibration& calibration, int runs) {
  std::vector<double> xs;
  for (int i = 0; i < runs; ++i) xs.push_back(calibration.kernel_once_ms());
  return median(xs);
}

}  // namespace perfbench
