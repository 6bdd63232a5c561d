// Scheduler hot-path microbenchmarks (google-benchmark).
//
// Backs Table V's "scheduling overhead is negligible" claim with per-call
// latencies: pair classification, a full MiccoScheduler::assign (including
// maps and candidate selection), the Groute baseline's assignment, online
// characteristics extraction, Random-Forest bound inference, and the
// simulator's own per-task bookkeeping, with and without eviction pressure.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/bounds_model.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "obs/events.hpp"
#include "obs/telemetry.hpp"
#include "sched/reuse_pattern.hpp"
#include "workload/synthetic.hpp"

namespace micco {
namespace {

WorkloadStream micro_stream(std::int64_t vector_size = 64) {
  SyntheticConfig cfg;
  cfg.num_vectors = 10;
  cfg.vector_size = vector_size;
  cfg.tensor_extent = 384;
  cfg.batch = 16;
  cfg.repeated_rate = 0.5;
  cfg.seed = 99;
  return generate_synthetic(cfg);
}

ClusterConfig micro_cluster(int gpus = 8) {
  ClusterConfig c;
  c.num_devices = gpus;
  return c;
}

/// A simulator pre-warmed with the first vectors so residency maps are
/// populated (the hot-path state the scheduler actually queries).
ClusterSimulator warmed_simulator(const WorkloadStream& stream, int gpus) {
  ClusterSimulator sim(micro_cluster(gpus));
  MiccoScheduler sched;
  for (const VectorWorkload& vec : stream.vectors) {
    sched.begin_vector(vec, sim);
    for (const ContractionTask& task : vec.tasks) {
      sim.execute(task, sched.assign(task, sim));
    }
    sim.barrier();
  }
  return sim;
}

void BM_ClassifyPair(benchmark::State& state) {
  const WorkloadStream stream = micro_stream();
  ClusterSimulator sim = warmed_simulator(stream, 8);
  const VectorWorkload& vec = stream.vectors.back();
  const ClusterIndex& index = sim.cluster_index();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classify_pair(vec.tasks[i % vec.tasks.size()], index));
    ++i;
  }
}
BENCHMARK(BM_ClassifyPair);

void BM_MiccoAssign(benchmark::State& state) {
  const WorkloadStream stream = micro_stream();
  ClusterSimulator sim = warmed_simulator(stream, static_cast<int>(state.range(0)));
  MiccoScheduler sched;
  const VectorWorkload& vec = stream.vectors.back();
  sched.begin_vector(vec, sim);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.assign(vec.tasks[i % vec.tasks.size()], sim));
    ++i;
  }
}
BENCHMARK(BM_MiccoAssign)->Arg(2)->Arg(4)->Arg(8);

/// Same hot path with the telemetry bundle attached (counters + decision
/// sink). Compare against BM_MiccoAssign/8 to read off the instrumentation
/// cost; with telemetry detached the two must be indistinguishable.
void BM_MiccoAssignTelemetry(benchmark::State& state) {
  const WorkloadStream stream = micro_stream();
  ClusterSimulator sim = warmed_simulator(stream, 8);
  MiccoScheduler sched;
  obs::Telemetry telemetry;
  obs::MemoryEventSink sink;
  telemetry.sink = &sink;
  sched.set_telemetry(&telemetry);
  const VectorWorkload& vec = stream.vectors.back();
  sched.begin_vector(vec, sim);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.assign(vec.tasks[i % vec.tasks.size()], sim));
    if (sink.decisions().size() >= 4096) sink.clear();
    ++i;
  }
}
BENCHMARK(BM_MiccoAssignTelemetry);

void BM_GrouteAssign(benchmark::State& state) {
  const WorkloadStream stream = micro_stream();
  ClusterSimulator sim = warmed_simulator(stream, 8);
  GrouteScheduler sched;
  const VectorWorkload& vec = stream.vectors.back();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.assign(vec.tasks[i % vec.tasks.size()], sim));
    ++i;
  }
}
BENCHMARK(BM_GrouteAssign);

void BM_ExtractCharacteristics(benchmark::State& state) {
  const WorkloadStream stream = micro_stream(state.range(0));
  ClusterSimulator sim = warmed_simulator(stream, 8);
  const VectorWorkload& vec = stream.vectors.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_characteristics(vec, sim));
  }
}
BENCHMARK(BM_ExtractCharacteristics)->Arg(8)->Arg(64);

void BM_BoundInference(benchmark::State& state) {
  TunerConfig tuner;
  tuner.samples = 40;
  tuner.num_vectors = 4;
  tuner.batch = 2;
  tuner.vector_sizes = {8, 16};
  tuner.tensor_extents = {128, 384};
  TrainedBoundsModel model = train_default_model(tuner);
  DataCharacteristics c;
  c.vector_size = 64;
  c.tensor_extent = 384;
  c.distribution_bias = 0.3;
  c.repeated_rate = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.provider->bounds_for(c));
  }
}
BENCHMARK(BM_BoundInference);

/// Executes one vector per iteration on a fresh 8-GPU simulator. With
/// `oversub` > 0 each vector runs on devices sized to that memory
/// oversubscription of its own footprint (floored, like `micco run
/// --oversub`, at eight operands), so make_room -> pick_victim -> evict
/// runs on most fetches.
void simulator_execute(benchmark::State& state, double oversub) {
  const WorkloadStream stream = micro_stream();
  std::vector<ClusterConfig> configs;
  for (const VectorWorkload& vec : stream.vectors) {
    ClusterConfig config = micro_cluster(8);
    if (oversub > 0.0) {
      WorkloadStream one;
      one.vectors.push_back(vec);
      config.device_capacity_bytes = capacity_for_oversubscription(
          one, config.num_devices, oversub, 8 * vec.tasks.front().a.bytes());
    }
    configs.push_back(config);
  }
  std::size_t v = 0;
  std::uint64_t evictions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::size_t which = v % stream.vectors.size();
    ClusterSimulator sim(configs[which]);
    MiccoScheduler sched;
    const VectorWorkload& vec = stream.vectors[which];
    sched.begin_vector(vec, sim);
    state.ResumeTiming();
    for (const ContractionTask& task : vec.tasks) {
      sim.execute(task, sched.assign(task, sim));
    }
    sim.barrier();
    evictions += sim.metrics().evictions;
    ++v;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              stream.vectors[0].tasks.size()));
  state.counters["evictions_per_vector"] =
      static_cast<double>(evictions) / static_cast<double>(state.iterations());
}

void BM_SimulatorExecute(benchmark::State& state) {
  simulator_execute(state, 0.0);
}
BENCHMARK(BM_SimulatorExecute);

void BM_SimulatorExecuteOversubscribed(benchmark::State& state) {
  simulator_execute(state, 2.0);
}
BENCHMARK(BM_SimulatorExecuteOversubscribed);

void BM_FullPipelineTenVectors(benchmark::State& state) {
  const WorkloadStream stream = micro_stream();
  for (auto _ : state) {
    MiccoScheduler sched;
    benchmark::DoNotOptimize(
        run_stream(stream, sched, micro_cluster(8)));
  }
}
BENCHMARK(BM_FullPipelineTenVectors);

}  // namespace
}  // namespace micco

// Tolerant main: the other harnesses share flags like --quick that
// google-benchmark would reject; pass through only --benchmark_* flags so
// `for b in build/bench/*; do $b --quick; done` works uniformly.
int main(int argc, char** argv) {
  std::vector<char*> filtered;
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark", 0) == 0) {
      filtered.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
