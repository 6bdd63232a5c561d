// Golden digests of the scheduler walk and the eviction path (DESIGN.md §9,
// §11). Each case runs a stream end to end with telemetry attached and
// hashes three artifacts with FNV-1a-64: the decision log, the cluster-event
// log and the run report (scheduling_overhead_ms, the one wall-clock field,
// zeroed). The expected digests were pinned while the tree still carried
// the recompute-from-view scheduler walk (whose decision and cluster-event
// logs matched these byte for byte) and DeviceMemory's hard-coded LRU
// beside the policy interface, so the one remaining walk and victim path
// are held to what the old paths produced. Cases: the three
// Table VI meson workloads, the reuse-tier visit ordering, a fault sweep,
// clusters past the 64-bit mask word (with and without failures), and an
// oversubscribed stream with no eviction policy, LRU and reuse distance.
//
// Plus the PatternCache unit suite: epoch-keyed hits, agreement with the
// uncached classification, invalidation on eviction, discard and device
// failure, and counter export.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/fault_plan.hpp"
#include "gpusim/cluster.hpp"
#include "mem/policy.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/telemetry.hpp"
#include "redstar/correlator.hpp"
#include "sched/micco_scheduler.hpp"
#include "sched/reuse_pattern.hpp"
#include "service/journal.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

struct Digests {
  std::string decisions;
  std::string cluster_events;
  std::string report;
};

struct RunSetup {
  int gpus = 8;
  const FaultPlan* plan = nullptr;
  PairOrdering ordering = PairOrdering::kAsGiven;
  std::uint64_t capacity = 256ull << 20;
  /// Eviction policy to attach; unset runs the policy-free default.
  std::optional<mem::EvictPolicyKind> policy;
  /// Oversubscribed cases must actually evict, or they pin nothing.
  bool expect_evictions = false;
};

Digests run_digests(const WorkloadStream& stream, const RunSetup& setup) {
  obs::MemoryEventSink sink;
  obs::Telemetry telemetry;
  telemetry.sink = &sink;

  MiccoSchedulerOptions options;
  options.bounds = ReuseBounds{1, 1, 1};  // tiers admit *and* overflow
  MiccoScheduler scheduler(options);

  ClusterConfig cluster;
  cluster.num_devices = setup.gpus;
  cluster.device_capacity_bytes = setup.capacity;

  std::unique_ptr<mem::EvictionPolicy> policy;
  if (setup.policy.has_value()) policy = mem::make_policy(*setup.policy);

  RunOptions run_options;
  run_options.telemetry = &telemetry;
  run_options.faults = setup.plan;
  run_options.ordering = setup.ordering;
  run_options.evict_policy = policy.get();
  RunResult result = run_stream(stream, scheduler, cluster, run_options);
  EXPECT_TRUE(result.completed) << result.error;
  if (setup.expect_evictions) {
    EXPECT_GT(result.metrics.evictions, 0u);
  }
  result.scheduling_overhead_ms = 0.0;  // the one wall-clock report field

  std::string decisions;
  for (const obs::DecisionEvent& e : sink.decisions()) {
    decisions += e.to_json().dump();
    decisions += '\n';
  }
  std::string cluster_events;
  for (const obs::ClusterEvent& e : sink.cluster_events()) {
    cluster_events += e.to_json().dump();
    cluster_events += '\n';
  }
  EXPECT_FALSE(decisions.empty());
  return Digests{service::fnv1a64_hex(decisions),
                 service::fnv1a64_hex(cluster_events),
                 service::fnv1a64_hex(
                     make_run_report(result, telemetry).dump())};
}

void expect_golden(const WorkloadStream& stream, const RunSetup& setup,
                   const Digests& golden) {
  const Digests got = run_digests(stream, setup);
  EXPECT_EQ(got.decisions, golden.decisions) << "decision log drifted";
  EXPECT_EQ(got.cluster_events, golden.cluster_events)
      << "cluster-event log drifted";
  EXPECT_EQ(got.report, golden.report) << "run report drifted";
}

RunSetup on_gpus(int gpus) {
  RunSetup setup;
  setup.gpus = gpus;
  return setup;
}

// ------------------------------------------------------- end-to-end identity

/// Table VI shapes shrunk the same way test_integration.cpp does (fewer
/// time slices, smaller extent/batch): the diagram structure — and with it
/// the residency/reuse behaviour the digests pin — is unchanged, only the
/// simulated tensor volume shrinks.
redstar::CorrelatorSpec shrunk(redstar::CorrelatorSpec spec) {
  spec.time_slices = 3;
  spec.extent = 32;
  spec.batch = 2;
  return spec;
}

TEST(SchedIncremental, A1RhopiByteIdenticalAcrossModes) {
  const redstar::CorrelatorWorkload w =
      redstar::build_workload(shrunk(redstar::make_a1_rhopi()));
  expect_golden(w.stream, on_gpus(8),
                {"67127bbc4a861282", "4d122dba022ec17d", "7edccb1f3635a54e"});
}

TEST(SchedIncremental, F0d2ByteIdenticalAcrossModes) {
  const redstar::CorrelatorWorkload w =
      redstar::build_workload(shrunk(redstar::make_f0d2()));
  expect_golden(w.stream, on_gpus(8),
                {"2006260ab3f56414", "8b987b69d540ce22", "2d3801e77b5e0bc1"});
}

TEST(SchedIncremental, F0d4ByteIdenticalAcrossModes) {
  const redstar::CorrelatorWorkload w =
      redstar::build_workload(shrunk(redstar::make_f0d4()));
  expect_golden(w.stream, on_gpus(8),
                {"2194833305482fce", "ef36d8579192eaca", "eb6419298ed3026f"});
}

SyntheticConfig synth(int vectors, int vector_size, std::uint64_t seed) {
  SyntheticConfig c;
  c.num_vectors = vectors;
  c.vector_size = vector_size;
  c.tensor_extent = 64;
  c.batch = 2;
  c.repeated_rate = 0.5;
  c.seed = seed;
  return c;
}

TEST(SchedIncremental, ReuseTierOrderingByteIdenticalAcrossModes) {
  // kReuseTierFirst classifies every pair up front to sort the visit order
  // — the ordering itself is part of what the digests pin.
  const WorkloadStream stream = generate_synthetic(synth(5, 24, 11));
  RunSetup setup = on_gpus(4);
  setup.ordering = PairOrdering::kReuseTierFirst;
  expect_golden(stream, setup,
                {"9faf99041b6a1dc6", "387ab37ed427421b", "614a77b23a302b44"});
}

TEST(SchedIncremental, FaultSweepByteIdenticalAcrossModes) {
  const WorkloadStream stream = generate_synthetic(synth(6, 24, 7));
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{2, 0.001});
  plan.transfer.probability = 0.05;
  plan.transfer.seed = 99;
  RunSetup setup = on_gpus(4);
  setup.plan = &plan;
  expect_golden(stream, setup,
                {"e3d74cff18f6eea9", "18bd3ffdff6e6529", "9e3a094e7ab289cd"});
}

TEST(SchedIncremental, WideClustersByteIdenticalAcrossModes) {
  // 64 exactly fills the inline mask word; 70 exercises the spill words in
  // both the residency masks and the alive-mask scan.
  const WorkloadStream stream = generate_synthetic(synth(6, 96, 21));
  expect_golden(stream, on_gpus(64),
                {"2514cb7a356404ba", "7e1bc5b00ca884bb", "1146a80759a88208"});
  expect_golden(stream, on_gpus(70),
                {"abe451bcdbafd1dc", "b0fdbbbef3a8399a", "e2dd125b2871e459"});
}

TEST(SchedIncremental, WideClusterFailuresByteIdenticalAcrossModes) {
  // Failing device 65 flips a bit in the second alive-mask word mid-run.
  const WorkloadStream stream = generate_synthetic(synth(6, 96, 22));
  FaultPlan plan;
  plan.device_failures.push_back(DeviceFailure{65, 0.001});
  plan.device_failures.push_back(DeviceFailure{3, 0.002});
  RunSetup setup = on_gpus(70);
  setup.plan = &plan;
  expect_golden(stream, setup,
                {"6db996ff9e70e72c", "16d85078cfeb56dd", "5cf607bfc3a9e267"});
}

/// An oversubscribed stream at 2x (Fig. 11's 200%): every device holds half
/// its share of the distinct-tensor footprint, so victims are picked on
/// nearly every fetch.
RunSetup oversubscribed(const WorkloadStream& stream,
                        std::optional<mem::EvictPolicyKind> policy) {
  RunSetup setup = on_gpus(4);
  const std::uint64_t task_bytes = stream.vectors[0].tasks[0].a.bytes();
  setup.capacity =
      capacity_for_oversubscription(stream, setup.gpus, 2.0, 8 * task_bytes);
  setup.policy = policy;
  setup.expect_evictions = true;
  return setup;
}

TEST(GoldenDigest, OversubscribedWithoutPolicy) {
  const WorkloadStream stream = generate_synthetic(synth(8, 64, 3));
  expect_golden(stream, oversubscribed(stream, std::nullopt),
                {"352454839910877a", "41fab267363a7a6a", "42bc21b36431573e"});
}

TEST(GoldenDigest, OversubscribedLru) {
  const WorkloadStream stream = generate_synthetic(synth(8, 64, 3));
  expect_golden(stream, oversubscribed(stream, mem::EvictPolicyKind::kLru),
                {"352454839910877a", "7c7d9b98e8669762", "9b684326c5d30169"});
}

TEST(GoldenDigest, OversubscribedReuseDistance) {
  const WorkloadStream stream = generate_synthetic(synth(8, 64, 3));
  expect_golden(stream,
                oversubscribed(stream, mem::EvictPolicyKind::kReuseDistance),
                {"c9a13ce14916cbeb", "7e8a23818643344f", "ac60ceeebb8823c5"});
}

// --------------------------------------------------------- PatternCache unit

TensorDesc desc(TensorId id) { return TensorDesc{id, 2, 16, 1}; }

ContractionTask task_of(TensorId a, TensorId b, TensorId out) {
  return ContractionTask{desc(a), desc(b), desc(out)};
}

ClusterSimulator sim_of(int devices, std::uint64_t capacity = 1ULL << 20) {
  ClusterConfig config;
  config.num_devices = devices;
  config.device_capacity_bytes = capacity;
  return ClusterSimulator(config);
}

TEST(PatternCache, HitsWhileEpochsUnchanged) {
  ClusterSimulator sim = sim_of(2);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  const ClusterIndex& index = sim.cluster_index();

  PatternCache cache;
  const LocalReusePattern first = cache.classify(task_of(1, 2, 4), index);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  const LocalReusePattern second = cache.classify(task_of(1, 2, 4), index);
  EXPECT_EQ(second, first);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Distinct pair: its own entry, not a false hit on (1, 2).
  (void)cache.classify(task_of(1, 5, 6), index);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PatternCache, MatchesReferenceClassification) {
  ClusterSimulator sim = sim_of(3);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  ASSERT_TRUE(sim.execute(task_of(2, 4, 5), 1).ok());
  const ClusterIndex& index = sim.cluster_index();

  PatternCache cache;
  const ContractionTask probes[] = {
      task_of(1, 2, 90),  // both resident, dev 0 holds both
      task_of(1, 4, 91),  // both resident, disjoint holders
      task_of(3, 7, 92),  // one resident
      task_of(7, 8, 93),  // neither resident
      task_of(2, 2, 94),  // same operand twice
  };
  for (const ContractionTask& probe : probes) {
    // Twice: the miss path and the hit path must both agree with the
    // uncached classification.
    EXPECT_EQ(cache.classify(probe, index), classify_pair(probe, index));
    EXPECT_EQ(cache.classify(probe, index), classify_pair(probe, index));
  }
}

TEST(PatternCache, DiscardInvalidates) {
  ClusterSimulator sim = sim_of(2);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  const ClusterIndex& index = sim.cluster_index();

  PatternCache cache;
  (void)cache.classify(task_of(1, 2, 4), index);
  sim.discard(1);  // residency change -> epoch bump -> stale entry
  (void)cache.classify(task_of(1, 2, 4), index);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PatternCache, DeviceFailureInvalidates) {
  ClusterSimulator sim = sim_of(2);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  const ClusterIndex& index = sim.cluster_index();

  PatternCache cache;
  (void)cache.classify(task_of(1, 2, 4), index);
  sim.fail_device(0, 0.0);  // recovery path must bump epochs too
  const LocalReusePattern after = cache.classify(task_of(1, 2, 4), index);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(after, classify_pair(task_of(1, 2, 4), index));
  EXPECT_EQ(after, LocalReusePattern::kTwoNew);  // the only holder died
}

TEST(PatternCache, EvictionInvalidates) {
  // Capacity fits one task's three tensors (3 * 4 KiB of complex doubles);
  // the second task's working set can only be fetched by evicting the
  // first's.
  ClusterSimulator sim = sim_of(1, 13 * 1024);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  const ClusterIndex& index = sim.cluster_index();

  PatternCache cache;
  (void)cache.classify(task_of(1, 2, 4), index);
  ASSERT_TRUE(cache.classify(task_of(1, 2, 4), index) ==
              cache.classify(task_of(1, 2, 4), index));
  const std::uint64_t hits_before = cache.hits();

  ASSERT_TRUE(sim.execute(task_of(10, 11, 12), 0).ok());
  EXPECT_FALSE(sim.resident_on(0, 1));  // 1 was evicted to make room
  (void)cache.classify(task_of(1, 2, 4), index);
  EXPECT_EQ(cache.hits(), hits_before);  // stale entry missed, not hit
}

TEST(PatternCache, CountersFlowIntoRegistry) {
  ClusterSimulator sim = sim_of(2);
  ASSERT_TRUE(sim.execute(task_of(1, 2, 3), 0).ok());
  const ClusterIndex& index = sim.cluster_index();

  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter(obs::names::kSchedPatternCacheHits);
  obs::Counter& misses =
      registry.counter(obs::names::kSchedPatternCacheMisses);

  PatternCache cache;
  cache.set_counters(&hits, &misses);
  (void)cache.classify(task_of(1, 2, 4), index);
  (void)cache.classify(task_of(1, 2, 4), index);
  (void)cache.classify(task_of(5, 6, 7), index);
  EXPECT_EQ(hits.value(), 1);
  EXPECT_EQ(misses.value(), 2);
  EXPECT_EQ(static_cast<std::uint64_t>(hits.value()), cache.hits());
  EXPECT_EQ(static_cast<std::uint64_t>(misses.value()), cache.misses());
}

}  // namespace
}  // namespace micco
