// Drift-calibration kernels. The host's memory speed drifts over minutes,
// and single-threaded simulator time follows it while a loop that never
// touches memory does not. The benchmark therefore times fixed kernels of
// its own between measured passes and set-up repeats, and scales every
// host-compute time by reference / measured kernel time (stats.hpp:
// calibrated_time). The hash-table kernel uses the simulator's own hot
// data structure: a node-based std::unordered_set of 64-bit ids, filled,
// probed and emptied.
#pragma once

namespace perfbench {

/// Median hash-table kernel time of the reference host (4-core x86-64,
/// Release build). Only ratios to it matter: a host that is uniformly
/// faster reports proportionally faster calibrated figures, exactly as
/// uncalibrated ones would.
inline constexpr double kReferenceKernelMs = 7.0;

/// One timed kernel run, milliseconds.
double kernel_once_ms();

/// Median time of the set-up kernel on the reference host.
inline constexpr double kReferenceSetupKernelMs = 10.0;

/// The set-up kernel: a fixed text of numbers is parsed with an
/// istringstream into freshly allocated nodes and an ordered map, as
/// loading a workload or model file parses text into new objects. Set-up
/// time drifts further than the hash-table kernel (a 1.7x swing within one
/// run where that kernel swung 1.35x) and follows this kernel, so each
/// set-up repeat is calibrated by a sample of it taken right after.
/// Milliseconds.
double setup_kernel_once_ms();

/// One run of each kernel, milliseconds: the sum of the two times.
double mixed_kernel_once_ms();

/// How a workload's measured passes are calibrated: a kernel, and its
/// median time on the reference host. Each workload uses the kernel whose
/// ratio to its pass time varied least across processes while the host
/// drifted (range of the per-process median ratio, 3-6 processes each).
struct Calibration {
  double (*kernel_once_ms)();
  double reference_ms;
};

/// batch-belady: 93% of a pass is the eviction policy's victim scan, which
/// walks the resident tensors much as the hash kernel probes its set. Hash
/// kernel 7%, sum of both kernels 22%.
inline constexpr Calibration kHashCalibration{&kernel_once_ms,
                                              kReferenceKernelMs};
/// batch-oversub and serve-journal: simulator bookkeeping on the default
/// memory path, and for serve a fresh cluster and scheduler per job, so
/// many small objects are built and freed, as in set-up. On batch-oversub,
/// in 4 sets of runs: hash kernel 4-26%, sum of both 5-16%. On serve
/// job-mix passes, while raw pass time swung 1.46x: hash kernel 14%,
/// set-up kernel 18%, sum of both 1.7%.
inline constexpr Calibration kMixedCalibration{
    &mixed_kernel_once_ms, kReferenceKernelMs + kReferenceSetupKernelMs};

/// A calibration sample: the median of `runs` kernel runs, milliseconds.
double calibration_sample_ms(const Calibration& calibration, int runs = 3);

}  // namespace perfbench
