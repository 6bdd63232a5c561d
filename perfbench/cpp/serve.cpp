// serve-journal: an in-process Server (serial loop, journal on disk with
// fsync every 16 appends, trained model) driven by a single-thread
// open-loop generator. Jobs are the Table VI meson functions a1_rhopi /
// f0d2 / f0d4 from four tenants, arriving as a seeded Poisson process.
//
// service::Client is request/reply lockstep: while it waits for one reply
// it cannot send the next arrival on time, which would close the loop. The
// generator therefore speaks the same protocol (protocol.hpp: encode_frame,
// FrameReader, the request builders) over non-blocking sockets, one per
// tenant. It keeps exactly one status poll in flight for the oldest
// unfinished job of each tenant (dispatch is FIFO within a tenant), so the
// serial server answers it in the first I/O round after that job finishes.
// Latency runs from each job's due time, so a late generator or a stalled
// server counts against it.
#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "calib.hpp"
#include "core/experiment.hpp"
#include "obs/names.hpp"
#include "pass.hpp"
#include "redstar/correlator.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "stats.hpp"
#include "workload/serialize.hpp"

namespace perfbench {
namespace {

namespace svc = micco::service;
using micco::obs::JsonValue;

constexpr const char* kFunctions[] = {"a1_rhopi", "f0d2", "f0d4"};
constexpr int kFunctionCount = 3;
constexpr int kTenants = 4;
/// Set-up repeats until both bounds are met; the median is reported.
constexpr int kSetupRuns = 60;
constexpr double kSetupMinMs = 1000.0;
constexpr std::uint64_t kSchedulerSeed = 7;

/// Offered rate of the reference phase (jobs/s): the first ladder rate.
constexpr int kReferenceRate = kLadderRates[0];
/// Jobs per ladder phase: at least 1000, for a p99 with ten samples beyond
/// it. The reference phase takes more, which steadies its p50 and p90.
constexpr std::size_t kPhaseJobs = 1000;
constexpr std::size_t kReferenceJobs = 1500;
constexpr std::size_t kWarmupJobs = 100;
/// The overload phase offers this rate, above what the server sustains on
/// the reference host (about 300 jobs/s), so work is always waiting.
constexpr double kOverloadRate = 500.0;
/// Share of the run spent on in-process passes of the job mix; the phases
/// themselves are a fixed amount of work (about 22 s on the reference host).
constexpr double kPassShare = 0.2;

struct Arrival {
  double offset_ms = 0.0;
  int tenant = 0;
  int function = 0;
};

/// Seeded Poisson arrivals at `rate` jobs/s; tenant and function uniform.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      std::size_t jobs) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate / 1000.0);
  std::uniform_int_distribution<int> tenant(0, kTenants - 1);
  std::uniform_int_distribution<int> function(0, kFunctionCount - 1);
  std::vector<Arrival> arrivals(jobs);
  double t = 0.0;
  for (Arrival& a : arrivals) {
    t += gap(rng);
    a.offset_ms = t;
    a.tenant = tenant(rng);
    a.function = function(rng);
  }
  return arrivals;
}

/// The simulated result a job must reproduce.
struct Reference {
  double makespan_s = 0.0;
  double gflops = 0.0;
  double reuse_rate = 0.0;
};

struct JobRecord {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double acked_ms = 0.0;
  double done_ms = -1.0;
  double queue_ms = 0.0;  ///< server-reported submit -> dispatch
  std::uint64_t id = 0;
  bool missed = false;    ///< refused, failed or wrong
};

struct Phase {
  double rate = 0.0;
  std::vector<JobRecord> jobs;
  LatencyBook book;
  std::vector<double> late_ms;
  std::vector<double> submit_rtt_ms;
  std::vector<double> detect_gap_us;
  std::uint64_t polls = 0;
};

/// Latency q-quantile over the jobs of a phase that finished correctly; 0
/// when none did. Misses count in the run's failed operations instead.
double finished_quantile(const Phase& phase, double q) {
  const std::vector<double>& done = phase.book.done_ms();
  return done.empty() ? 0.0 : quantile(done, q);
}

class LoadGen {
 public:
  LoadGen(const std::string& socket_path,
          const std::vector<std::string>& workload_text,
          std::vector<Reference> references, Outcome& out)
      : references_(std::move(references)), out_(out) {
    for (int t = 0; t < kTenants; ++t) {
      Conn conn;
      conn.fd = connect_nonblocking(socket_path);
      for (const std::string& text : workload_text) {
        conn.submit_frames.push_back(svc::encode_frame(svc::make_submit_request(
            "tenant" + std::to_string(t), "", text)));
      }
      conns_.push_back(std::move(conn));
    }
  }
  ~LoadGen() {
    for (const Conn& c : conns_) ::close(c.fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Offers `arrivals` from now on and waits until every job finished.
  Phase run(const std::vector<Arrival>& arrivals, double rate);

 private:
  struct Pending {
    bool submit = false;
    std::size_t job = 0;
    int function = 0;
  };
  struct Conn {
    int fd = -1;
    svc::FrameReader reader;
    std::string outbuf;
    std::deque<Pending> pending;       ///< requests awaiting replies, in order
    std::deque<std::size_t> unfinished;  ///< acknowledged jobs, FIFO
    std::deque<int> unfinished_function;
    bool polling = false;
    double last_poll_reply_ms = -1.0;
    std::vector<std::string> submit_frames;  ///< per function
  };

  static int connect_nonblocking(const std::string& path);
  void flush(Conn& conn);
  void handle_reply(Conn& conn, const JsonValue& reply, Phase& phase,
                    double now, std::size_t& finished);

  std::vector<Conn> conns_;
  std::vector<Reference> references_;
  Outcome& out_;
};

int LoadGen::connect_nonblocking(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (fd < 0 || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("cannot create a socket for " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path + ": " +
                             std::strerror(errno));
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

void LoadGen::flush(Conn& conn) {
  while (!conn.outbuf.empty()) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      throw std::runtime_error("server connection lost");
    }
  }
}

void LoadGen::handle_reply(Conn& conn, const JsonValue& reply, Phase& phase,
                           double now, std::size_t& finished) {
  if (conn.pending.empty()) throw std::runtime_error("unexpected reply");
  const Pending p = conn.pending.front();
  conn.pending.pop_front();
  JobRecord& job = phase.jobs[p.job];
  const JsonValue* ok = reply.find("ok");
  const bool accepted = ok != nullptr && ok->as_bool();
  if (p.submit) {
    phase.submit_rtt_ms.push_back(now - job.sent_ms);
    if (!accepted) {
      job.missed = true;
      phase.book.miss();
      ++finished;
      return;
    }
    job.acked_ms = now;
    job.id = static_cast<std::uint64_t>(reply.at("job_id").as_int());
    conn.unfinished.push_back(p.job);
    conn.unfinished_function.push_back(p.function);
    return;
  }
  conn.polling = false;
  const JsonValue* state = reply.find("state");
  if (!accepted || state == nullptr) {
    throw std::runtime_error("status request failed: " + reply.dump());
  }
  // The time until the next poll leaves is when a finish could go unseen.
  conn.last_poll_reply_ms = now;
  if (state->as_string() == "QUEUED" || state->as_string() == "RUNNING") {
    return;
  }
  job.done_ms = now;
  const int function = conn.unfinished_function.front();
  conn.unfinished.pop_front();
  conn.unfinished_function.pop_front();
  if (conn.unfinished.empty()) conn.last_poll_reply_ms = -1.0;
  ++finished;
  const JsonValue* result = reply.find("result");
  bool right = state->as_string() == "DONE" && result != nullptr;
  if (right) {
    job.queue_ms = result->at("queue_latency_ms").as_double();
    const Reference& ref = references_[static_cast<std::size_t>(function)];
    right = result->at("makespan_s").as_double() == ref.makespan_s &&
            result->at("gflops").as_double() == ref.gflops &&
            result->at("reuse_rate").as_double() == ref.reuse_rate;
  }
  if (!right) {
    ++out_.failed;
    out_.problem("job " + std::to_string(job.id) + " (" +
                 kFunctions[function] + ") differs from run_stream: " +
                 reply.dump().substr(0, 300));
    job.missed = true;
    phase.book.miss();
    return;
  }
  phase.book.done(job.done_ms - job.due_ms);
}

Phase LoadGen::run(const std::vector<Arrival>& arrivals, double rate) {
  Phase phase;
  phase.rate = rate;
  phase.jobs.resize(arrivals.size());
  std::size_t next = 0;
  std::size_t finished = 0;
  const double t0 = now_ms() + 1.0;
  std::vector<pollfd> fds(conns_.size());

  while (finished < arrivals.size()) {
    double now = now_ms();
    while (next < arrivals.size() &&
           t0 + arrivals[next].offset_ms <= now) {
      const Arrival& a = arrivals[next];
      Conn& conn = conns_[static_cast<std::size_t>(a.tenant)];
      JobRecord& job = phase.jobs[next];
      job.due_ms = t0 + a.offset_ms;
      job.sent_ms = now;
      phase.late_ms.push_back(now - job.due_ms);
      conn.outbuf += conn.submit_frames[static_cast<std::size_t>(a.function)];
      conn.pending.push_back(Pending{true, next, a.function});
      ++next;
    }
    for (Conn& conn : conns_) {
      if (conn.polling || conn.unfinished.empty()) continue;
      const JobRecord& head = phase.jobs[conn.unfinished.front()];
      conn.outbuf += svc::encode_frame(
          svc::make_job_request(svc::MessageType::kStatus, head.id));
      conn.pending.push_back(Pending{false, conn.unfinished.front(), 0});
      conn.polling = true;
      ++phase.polls;
      if (conn.last_poll_reply_ms >= 0.0) {
        phase.detect_gap_us.push_back((now - conn.last_poll_reply_ms) * 1e3);
      }
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      flush(conns_[i]);
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].outbuf.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }

    double wait_ms = 100.0;
    if (next < arrivals.size()) {
      wait_ms = std::max(0.0, t0 + arrivals[next].offset_ms - now);
    }
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_ms / 1000.0);
    timeout.tv_nsec = static_cast<long>(
        std::fmod(wait_ms, 1000.0) * 1e6);
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns_[i];
      char buf[64 * 1024];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
          continue;
        }
        if (n == 0) throw std::runtime_error("server closed a connection");
        break;
      }
      now = now_ms();
      while (const auto frame = conn.reader.next_frame()) {
        const auto reply = micco::obs::parse_json(*frame);
        if (!reply.has_value()) throw std::runtime_error("malformed reply");
        handle_reply(conn, *reply, phase, now, finished);
      }
    }
  }
  std::fprintf(stderr, "phase %.1f jobs/s: %zu jobs, p50 %.3f ms, p99 %.3f ms\n",
               rate, phase.book.attempted(), finished_quantile(phase, 0.5),
               finished_quantile(phase, 0.99));
  return phase;
}

/// The rate the server sustains with work always waiting: the jobs of a
/// phase offered above that rate, over the time from the first arrival to
/// the last completion.
double sustained_rate(const Phase& overload) {
  double first_due = overload.jobs.front().due_ms;
  double last_done = 0.0;
  for (const JobRecord& job : overload.jobs) {
    first_due = std::min(first_due, job.due_ms);
    last_done = std::max(last_done, job.done_ms);
  }
  return static_cast<double>(overload.jobs.size()) /
         ((last_done - first_due) / 1000.0);
}

}  // namespace

Outcome run_serve(const Options& options) {
  Outcome out;

  // -- inputs, untimed ---------------------------------------------------------
  std::vector<micco::WorkloadStream> streams;
  std::vector<std::string> texts;
  for (const char* name : kFunctions) {
    streams.push_back(
        micco::redstar::build_workload(micco::redstar::real_function(name))
            .stream);
    std::ostringstream text;
    micco::save_stream(streams.back(), text);
    texts.push_back(text.str());
  }
  const std::string model_path = train_model_file(options.work_dir);
  const double load_start = now_ms();
  const auto model = load_model_file(model_path);
  const double model_load_ms = now_ms() - load_start;
  micco::ClusterConfig cluster;
  cluster.num_devices = 8;

  // -- references: each function run in-process exactly as a job runs --------
  std::vector<Reference> references;
  const micco::obs::JsonValue expected = read_expected(options.expected_path);
  const micco::obs::JsonValue* golden = expected.find(options.workload);
  if (golden == nullptr) out.problem("no expected results for serve-journal");
  for (int f = 0; f < kFunctionCount; ++f) {
    const auto scheduler = micco::make_scheduler(
        micco::SchedulerKind::kMiccoOptimal, kSchedulerSeed);
    micco::RunOptions run_options;
    run_options.bounds = model.get();
    const micco::RunResult r =
        micco::run_stream(streams[static_cast<std::size_t>(f)], *scheduler,
                          cluster, run_options);
    references.push_back(
        Reference{r.metrics.makespan_s, r.metrics.gflops(),
                  r.metrics.reuse_rate()});
    const micco::obs::JsonValue* g =
        golden != nullptr ? golden->find(kFunctions[f]) : nullptr;
    if (golden != nullptr && g == nullptr) {
      out.problem(std::string("no expected results for ") + kFunctions[f]);
    } else if (g != nullptr) {
      expect_golden(out, *g, kFunctions[f], "makespan_s", r.metrics.makespan_s);
      expect_golden(out, *g, kFunctions[f], "total_flops",
                    static_cast<double>(r.metrics.total_flops));
    }
  }

  // -- in-process passes over the job mix: the batch path of every job -------
  PassInput mix;
  for (int rep = 0; rep < 20; ++rep) {
    for (const micco::WorkloadStream& s : streams) mix.streams.push_back(&s);
  }
  mix.cluster = cluster;
  mix.model = model.get();
  SpanRecorder recorder;
  const PassSample mix_reference =
      run_pass(mix, PassKind::kUntraced, recorder);
  const std::vector<Measured> passes = measure(
      options.seconds * kPassShare, kMixedCalibration, [&](std::size_t i) {
        const PassKind kind = pass_kind(options.trace, i);
        return Measured{run_pass(mix, kind, recorder), kind};
      });
  for (const Measured& m : passes) {
    ++out.attempted;
    if (!m.pass.completed || !(m.pass.sim == mix_reference.sim)) {
      ++out.failed;
      out.problem("an in-process pass of the job mix simulated differently");
    }
  }

  // -- setup, timed: Server::start with the journal opened -------------------
  const std::string socket_path = options.work_dir + "/serve.sock";
  const std::string journal_path = options.work_dir + "/journal.ndjson";
  svc::ServerConfig config;
  config.socket_path = socket_path;
  config.io_lanes = 0;
  config.scheduler = micco::SchedulerKind::kMiccoOptimal;
  config.seed = kSchedulerSeed;
  config.model_path = model_path;
  config.cluster = cluster;
  // Open loop: queues must absorb an overloaded probe without refusing.
  config.admission.max_queue_per_tenant = 4 * kPhaseJobs;
  config.admission.max_queued_total = 16 * kPhaseJobs;
  config.journal.path = journal_path;
  // fsync every 16 appends (the daemon's interval default), not after
  // every append: with fsync=always every serve metric followed this shared
  // disk's fsync speed, which swings 2-3x within minutes (IQR over 5 seeds:
  // p50 24%, p90 28%, saturation 26%; with interval: 7%, 12%, 10%).
  config.journal.fsync = svc::FsyncPolicy::kInterval;
  // Each repeat is calibrated by a set-up kernel sample taken right after
  // it (calib.hpp); the median over repeats is reported.
  std::vector<double> setup_ms;
  std::vector<double> setup_raw_ms;
  std::vector<double> setup_kernel_ms;
  std::unique_ptr<svc::Server> server;
  const double setup_deadline = now_ms() + kSetupMinMs;
  for (int i = 0; i < kSetupRuns || now_ms() < setup_deadline; ++i) {
    server.reset();
    // Emptied, not removed: a new journal file would make every start
    // flush a new directory entry to disk.
    std::ofstream(journal_path, std::ios::trunc);
    ::malloc_trim(0);  // each repeat starts like a new daemon (batch.cpp)
    const double start = now_ms();
    server = std::make_unique<svc::Server>(config);
    std::string error;
    if (!server->start(&error)) throw std::runtime_error("start: " + error);
    setup_raw_ms.push_back(now_ms() - start);
    setup_kernel_ms.push_back(setup_kernel_once_ms());
    setup_ms.push_back(calibrated_time(setup_raw_ms.back(),
                                       setup_kernel_ms.back(),
                                       kReferenceSetupKernelMs));
  }
  // Drains and joins the serving thread however this scope is left.
  struct ServeThread {
    svc::Server& server;
    int rc = -1;
    std::thread thread;
    explicit ServeThread(svc::Server& s)
        : server(s), thread([this] { rc = server.serve(); }) {}
    ServeThread(const ServeThread&) = delete;
    ServeThread& operator=(const ServeThread&) = delete;
    ~ServeThread() { join(); }
    void join() {
      if (!thread.joinable()) return;
      server.request_drain();
      thread.join();
    }
  } serving(*server);

  std::vector<Phase> ladder;
  Phase overload;
  double rss_mib = 0.0;
  {
    LoadGen gen(socket_path, texts, references, out);
    std::uint64_t phase_seed = options.seed * 1000003ULL;
    const auto offer = [&](double rate, std::size_t jobs) {
      return gen.run(poisson_schedule(++phase_seed, rate, jobs), rate);
    };
    offer(kReferenceRate, kWarmupJobs);  // caches, allocator, journal file

    for (const int rate : kLadderRates) {
      ladder.push_back(
          offer(rate, rate == kReferenceRate ? kReferenceJobs : kPhaseJobs));
      // The overload phase's backlog size follows the host's speed; the
      // footprint a user sees is the one at the reference rate.
      if (rate == kReferenceRate) rss_mib = peak_rss_mib();
    }
    overload = offer(kOverloadRate, kPhaseJobs);
  }

  // Session accounting, then a clean drain.
  JsonValue stats;
  JsonValue metrics;
  {
    svc::Client control;
    std::string error;
    if (!control.connect(socket_path, &error)) throw std::runtime_error(error);
    if (auto reply = control.stats(&error)) stats = reply->at("stats");
    if (auto reply = control.metrics(&error)) metrics = reply->at("metrics");
    control.drain(&error);
  }
  serving.join();
  if (serving.rc != 0) {
    out.problem("server exited with " + std::to_string(serving.rc));
  }
  std::filesystem::remove(journal_path);  // ~100 MB of workload copies

  for (const Phase& p : ladder) {
    out.attempted += p.book.attempted();
    out.failed += p.book.failed();
  }
  out.attempted += overload.book.attempted();
  out.failed += overload.book.failed();

  if (!options.trace) {
    const SimTotals& sim = mix_reference.sim;
    // Calibrated per pass, like the batch workloads. A job here is its
    // pipeline work in-process (fresh scheduler, fresh cluster, run_stream),
    // as the dispatcher runs it. The open-loop latency at the ladder rates
    // drifted with this shared host's I/O and wake-up latency (IQR/median
    // 0.45 over 10 seeds), so it is reported per layer (loadgen.r<rate>.*).
    std::vector<double> pairs_per_s;
    std::vector<double> jobs_per_s;
    std::vector<double> job_ms;
    for (const Measured& m : passes) {
      const double pass_s = m.calibrated(m.pass.raw_ms) / 1000.0;
      pairs_per_s.push_back(static_cast<double>(m.pass.pairs) / pass_s);
      jobs_per_s.push_back(static_cast<double>(m.pass.stream_ms.size()) /
                           pass_s);
      for (const double ms : m.pass.stream_ms) {
        job_ms.push_back(m.calibrated(ms));
      }
    }
    out.set("host_pairs_per_s", median(pairs_per_s), "1/s");
    out.set("job_latency_ms_p50", quantile(job_ms, 0.50), "ms");
    expect_tail(out, "job_latency_ms_p90", job_ms.size(), 0.90);
    out.set("job_latency_ms_p90", quantile(job_ms, 0.90), "ms");
    // Jobs completed back to back through the same pipeline work. The rate
    // the served open loop sustains under overload spread 0.41 IQR/median
    // over 10 seeds as this shared host's I/O drifted; it is reported per
    // layer as service.sustained_jobs_per_s.
    out.set("saturation_jobs_per_s", median(jobs_per_s), "1/s");
    out.set("sim_gflops", sim.gflops(), "GFLOP/s");
    out.set("sim_transfer_bytes", static_cast<double>(sim.transfer_bytes), "B");
    out.set("setup_s", median(setup_ms) / 1000.0, "s");
    out.set("peak_rss_mib", rss_mib, "MiB");
    return out;
  }

  out.idle_layers = {"mem.", "workload."};
  report_layers(out, passes);
  out.set("ml.model_load_ms", model_load_ms, "ms");
  out.set("host.setup_ms_raw", median(setup_raw_ms), "ms");
  out.set("host.setup_kernel_ms", median(setup_kernel_ms), "ms");
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const std::string p99 = ladder_metric(kLadderRates[i], "p99");
    expect_tail(out, p99, ladder[i].book.done_ms().size(), 0.99);
    out.set(ladder_metric(kLadderRates[i], "p50"),
            finished_quantile(ladder[i], 0.5), "ms");
    out.set(p99, finished_quantile(ladder[i], 0.99), "ms");
  }
  std::vector<double> rtt;
  std::vector<double> queue;
  std::vector<double> run;
  std::vector<double> late;
  std::vector<double> gaps;
  double polls = 0.0;
  double jobs = 0.0;
  for (const Phase& p : ladder) {
    rtt.insert(rtt.end(), p.submit_rtt_ms.begin(), p.submit_rtt_ms.end());
    late.insert(late.end(), p.late_ms.begin(), p.late_ms.end());
    gaps.insert(gaps.end(), p.detect_gap_us.begin(), p.detect_gap_us.end());
    polls += static_cast<double>(p.polls);
    for (const JobRecord& job : p.jobs) {
      if (job.missed || job.done_ms < 0.0) continue;
      recorder.begin_trace();
      const std::uint32_t root =
          recorder.add("serve.job", job.due_ms, job.done_ms, 0);
      recorder.add("loadgen.late", job.due_ms, job.sent_ms, root);
      recorder.add("service.submit", job.sent_ms, job.acked_ms, root);
      recorder.add("service.queue_run", job.acked_ms, job.done_ms, root);
      jobs += 1.0;
      queue.push_back(job.queue_ms);
      run.push_back(job.done_ms - job.acked_ms - job.queue_ms);
    }
  }
  out.set("service.submit_rtt_ms_p50", quantile(rtt, 0.5), "ms");
  out.set("service.queue_ms_p50", quantile(queue, 0.5), "ms");
  out.set("service.queue_ms_p99", quantile(queue, 0.99), "ms");
  out.set("service.run_ms_p50", quantile(run, 0.5), "ms");
  out.set("service.polls_per_job", polls / jobs, "ratio");
  out.set("service.sustained_jobs_per_s", sustained_rate(overload), "1/s");
  out.set("loadgen.late_ms_p99", quantile(late, 0.99), "ms");
  out.set("loadgen.detect_gap_us_p99", quantile(gaps, 0.99), "us");
  const JsonValue* fsync = metrics.at("histograms").find(
      micco::obs::names::kServiceJournalFsyncMs);
  out.set("service.journal_fsync_ms_p50",
          fsync != nullptr ? fsync->at("p50").as_double() : 0.0, "ms");
  out.set("service.journal_fsync_ms_p99",
          fsync != nullptr ? fsync->at("p99").as_double() : 0.0, "ms");
  const JsonValue* records = metrics.at("counters").find(
      micco::obs::names::kServiceJournalRecords);
  out.set("service.journal_appends",
          records != nullptr ? records->as_double() : 0.0, "count");
  out.set("service.admitted", stats.at("admitted").as_double(), "count");
  out.set("service.rejected", stats.at("rejected").as_double(), "count");
  out.set("service.failed", stats.at("failed").as_double(), "count");
  if (!recorder.write_jsonl(options.work_dir + "/spans-serve-journal.jsonl")) {
    out.problem("cannot write the span file");
  }
  return out;
}

}  // namespace perfbench
