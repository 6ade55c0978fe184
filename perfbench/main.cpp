// perfbench — one benchmark for the solver stack, driven from outside the
// library through its public API.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--source ID]
//   perfbench --capacity 1 [--seconds S]   (service_mixed burst capacity)
//
// Workloads (BENCHMARK.json records why each exists):
//   large_solve    closed loop, one caller: core::gesv on one seeded
//                  n = 2048 system, default Options (b = 100, dratio =
//                  0.1, hybrid engine), on one Session of nproc threads.
//                  The paper's experiment: kernels, the CALU DAG and the
//                  static/dynamic split do the work.
//   small_batch    closed loop, one caller: core::batched_run(Fused) of 32
//                  rhs jobs, n from {48, 64, 96, 128}, b = 32, on one
//                  Session of nproc threads.  Per-job overhead dominates.
//   service_mixed  open loop: one generator sends Poisson arrivals at a
//                  fixed rate (kServiceRate) into sched::Service, whose
//                  team has nproc - 1 threads; 30% Interactive / 70%
//                  Batch, 10% n = 256 and the rest n = 64.  Latency is
//                  timed from when each request was due.  Run by hand,
//                  not listed in BENCHMARK.json: on a shared VM its
//                  latencies moved 2-5x with the host's steal time, beyond
//                  any bound a regression gate could use.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same inputs
// through the public steps core::gesv / core::batched_run are made of
// (Matrix copy, PackedMatrix::pack, GetrfJob, Session::run / run_fused,
// GetrfJob::finish, unpack, solve_factored), with one span per step,
// and prints the per-layer metrics.  Every answered solve is checked with
// the benchmark's own residual (harness.h); the last stdout line is the
// JSON result.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/blas/blas.h"
#include "src/blas/microkernel.h"
#include "src/core/batch.h"
#include "src/core/calu.h"
#include "src/core/solve.h"
#include "src/sched/service.h"
#include "src/sched/session.h"
#include "src/sched/topology.h"
#include "src/trace/trace.h"

namespace {

using namespace calu;
using Clock = std::chrono::steady_clock;
namespace pb = perfbench;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ settings ---

constexpr int kLargeN = 2048;
constexpr int kBatchJobs = 32;
constexpr int kBatchB = 32;
constexpr int kBatchSizes[] = {48, 64, 96, 128};
constexpr int kBatchCalls = 8;  // distinct call inputs, cycled
constexpr int kServiceB = 32;
constexpr int kServiceSmallN = 64;
constexpr int kServiceLargeN = 256;
constexpr int kServiceSmallPool = 16;
constexpr int kServiceLargePool = 4;
constexpr double kInteractiveShare = 0.30;
constexpr double kLargeShare = 0.10;
/// Offered rate of service_mixed, requests/s, fixed so every commit is
/// offered the same load; recorded in BENCHMARK.json.  The burst capacity
/// (`perfbench --capacity 1`) of a 3-thread service on a 4-CPU avx512
/// host is 3000-3500 req/s, but with a full queue that fuses up to 32
/// requests per run; open-loop arrivals fuse ~1.5.  Above ~1300 req/s
/// some seeds built a backlog and had requests rejected, and at 1000
/// req/s the tails moved twice as much with host load as at 700.
constexpr double kServiceRate = 700.0;
/// Requests per fused run when the traced path replays the service mix.
constexpr int kServiceGroup = 4;
const char* const kServiceEngine = "priority-lookahead";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool capacity = false;
  std::string spans_path;
  std::string source = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "large_solve|small_batch|service_mixed --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--source ID]\n"
               "       perfbench --capacity 1 [--seconds S]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0)
        usage("bad --seconds");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      a.trace = v == "1";
    } else if (k == "--capacity") {
      a.capacity = v == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else if (k == "--source") {
      a.source = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!a.capacity && a.workload != "large_solve" &&
      a.workload != "small_batch" && a.workload != "service_mixed")
    usage("unknown --workload");
  return a;
}

// ---------------------------------------------------------- host stamp ---

int nproc() { return static_cast<int>(sched::affinity_cpus().size()); }

/// Constructing a pinned Session pins the calling thread as team thread 0.
/// The service workloads restore the caller's original mask so the
/// generator keeps the CPU the service team leaves free.
class AffinityGuard {
 public:
  AffinityGuard() { sched_getaffinity(0, sizeof(mask_), &mask_); }
  void restore() const { sched_setaffinity(0, sizeof(mask_), &mask_); }

 private:
  cpu_set_t mask_{};
};

void print_host(const Args& args, int session_threads, int service_threads) {
  std::string cpus;
  for (int c : sched::affinity_cpus())
    cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
  std::printf(
      "{\"host\": {\"affinity_cpus\": %d, \"cpu_list\": \"%s\", "
      "\"session_threads\": %d, \"service_threads\": %d, \"kernel\": "
      "\"%s\", \"topology\": \"%s\", \"source\": \"%s\"}}\n",
      nproc(), cpus.c_str(), session_threads, service_threads,
      blas::active_kernel().name,
      sched::system_topology().summary().c_str(), args.source.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --------------------------------------------------------------- inputs ---

/// One solve: a system and the Options it is submitted with.
struct Job {
  layout::Matrix* a = nullptr;
  const layout::Matrix* b = nullptr;
  core::Options opt;
};

/// One call of a closed loop: a single gesv (large_solve) or one fused
/// batched_run over every job (small_batch, the service mix replay).
struct Unit {
  std::vector<Job> jobs;
  double flops = 0.0;  // computed, 2/3 n^3 per job
};

struct Inputs {
  std::vector<layout::Matrix> as, bs;
  std::vector<Unit> units;
  bool fused = true;
  int threads = 1;  // Session team size for the closed-loop units
};

double lu_model_flops(int n) { return 2.0 / 3.0 * double(n) * n * n; }

void add_job(Unit& u, layout::Matrix* a, const layout::Matrix* b,
             const core::Options& opt) {
  u.jobs.push_back({a, b, opt});
  u.flops += lu_model_flops(a->rows());
}

/// Service request mix: one entry per arrival, in arrival order.
struct Arrival {
  double due = 0.0;  // seconds from the start of the open loop
  bool interactive = false;
  int system = 0;    // index into Inputs::as / bs
};

struct ServiceInputs {
  Inputs pool;                     // systems; units = groups of the mix
  std::vector<core::Options> base;  // per system
  std::vector<Arrival> mix;        // schedule for the open loop
};

/// A request's Options: its system's, with the arrival's class and the
/// engine the Service forces onto every request.
core::Options request_options(const ServiceInputs& si, const Arrival& a) {
  core::Options o = si.base[std::size_t(a.system)];
  o.engine = kServiceEngine;
  o.priority_class = a.interactive ? core::PriorityClass::Interactive
                                   : core::PriorityClass::Batch;
  return o;
}

Inputs make_large(std::uint64_t seed, int p) {
  Inputs in;
  in.fused = false;
  in.threads = p;
  in.as.push_back(pb::random_matrix(kLargeN, kLargeN, seed * 1000 + 1));
  in.bs.push_back(pb::random_matrix(kLargeN, 1, seed * 1000 + 2));
  core::Options opt;
  opt.threads = p;
  in.units.emplace_back();
  add_job(in.units[0], &in.as[0], &in.bs[0], opt);
  return in;
}

Inputs make_small(std::uint64_t seed, int p) {
  Inputs in;
  in.threads = p;
  // Every call carries the same sizes (kBatchJobs / 4 of each) in one
  // fixed shuffled order: the seed changes the matrices, not the work.
  // (The order sets how the fused DAGs interleave; seeding it moved
  // throughput by ~10% between seeds.)
  std::mt19937_64 rng(3);
  const int total = kBatchCalls * kBatchJobs;
  std::vector<int> sizes;
  for (int c = 0; c < kBatchCalls; ++c) {
    std::vector<int> call;
    for (int j = 0; j < kBatchJobs; ++j) call.push_back(kBatchSizes[j % 4]);
    std::shuffle(call.begin(), call.end(), rng);
    sizes.insert(sizes.end(), call.begin(), call.end());
  }
  in.as.reserve(total);
  in.bs.reserve(total);
  for (int j = 0; j < total; ++j) {
    const int n = sizes[std::size_t(j)];
    in.as.push_back(pb::random_matrix(n, n, seed * 100000 + 10 + 2 * j));
    in.bs.push_back(pb::random_matrix(n, 1, seed * 100000 + 11 + 2 * j));
  }
  core::Options opt;
  opt.b = kBatchB;
  opt.threads = p;
  in.units.resize(kBatchCalls);
  for (int j = 0; j < total; ++j)
    add_job(in.units[j / kBatchJobs], &in.as[j], &in.bs[j], opt);
  return in;
}

ServiceInputs make_service(std::uint64_t seed, int team, double seconds) {
  ServiceInputs s;
  Inputs& in = s.pool;
  in.threads = team;
  const int total = kServiceSmallPool + kServiceLargePool;
  in.as.reserve(total);
  in.bs.reserve(total);
  core::Options opt;
  opt.b = kServiceB;
  opt.threads = team;
  for (int j = 0; j < total; ++j) {
    const int n = j < kServiceSmallPool ? kServiceSmallN : kServiceLargeN;
    in.as.push_back(pb::random_matrix(n, n, seed * 100000 + 500 + 2 * j));
    in.bs.push_back(pb::random_matrix(n, 1, seed * 100000 + 501 + 2 * j));
    s.base.push_back(opt);
  }
  std::mt19937_64 rng(seed * 104729 + 5);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (double due : pb::poisson_schedule(seed, kServiceRate, seconds)) {
    Arrival a;
    a.due = due;
    a.interactive = uni(rng) < kInteractiveShare;
    a.system = uni(rng) < kLargeShare
                   ? kServiceSmallPool + int(uni(rng) * kServiceLargePool)
                   : int(uni(rng) * kServiceSmallPool);
    s.mix.push_back(a);
  }
  // The traced replay fuses consecutive requests of the same mix.
  for (std::size_t i = 0; i + kServiceGroup <= s.mix.size() &&
                          in.units.size() < 64;
       i += kServiceGroup) {
    Unit u;
    for (int g = 0; g < kServiceGroup; ++g) {
      const Arrival& a = s.mix[i + g];
      add_job(u, &in.as[a.system], &in.bs[a.system],
              request_options(s, a));
    }
    in.units.push_back(std::move(u));
  }
  return s;
}

// ------------------------------------------------------- untraced calls ---

/// The call a user makes: core::gesv for one job, batched_run(Fused) for
/// a batch.  Returns each job's x.
std::vector<layout::Matrix> run_unit(const Unit& u, bool fused,
                                     sched::Session& s) {
  std::vector<layout::Matrix> xs;
  if (!fused) {
    const Job& j = u.jobs[0];
    xs.push_back(core::gesv(*j.a, *j.b, j.opt, s).x);
    return xs;
  }
  std::vector<core::BatchJob> jobs(u.jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].a = u.jobs[i].a;
    jobs[i].rhs = u.jobs[i].b;
    jobs[i].options = u.jobs[i].opt;
  }
  core::BatchRunResult r = core::batched_run(jobs, s, core::BatchMode::Fused);
  for (core::BatchJobResult& jr : r.jobs) xs.push_back(std::move(jr.x));
  return xs;
}

/// Failed solves in a unit's answers (independent residual check).
int count_bad(const Unit& u, const std::vector<layout::Matrix>& xs) {
  int bad = 0;
  for (std::size_t i = 0; i < u.jobs.size(); ++i)
    if (i >= xs.size() ||
        !pb::residual_ok(pb::normalized_residual(*u.jobs[i].a, xs[i],
                                                 *u.jobs[i].b)))
      ++bad;
  return bad;
}

bool same_bits(const layout::Matrix& x, const layout::Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(double) * std::size_t(x.rows()) * x.cols()) == 0;
}

// ---------------------------------------------------------- traced path ---

/// Spans kept in memory for the whole run, written out at exit.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}
  void next_request() { ++request_; }
  int open(const char* name, int parent) {
    spans_.push_back({name, now(), 0.0, parent, request_});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int i) { spans_[std::size_t(i)].end = now(); }
  const std::vector<pb::Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds_since(t0_); }
  Clock::time_point t0_;
  std::int64_t request_ = -1;
  std::vector<pb::Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent)
      : t_(t), i_(t.open(name, parent)) {}
  ~Scope() { t_.close(i_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int i_;
};

/// Counters gathered from the traced engine runs.
struct EngineTally {
  double busy[trace::kKindCount] = {};  // seconds, summed over threads
  double capacity = 0.0;                // sum of threads x makespan
  double s_flops = 0.0, panel_flops = 0.0;
  sched::EngineStats engine;
  long refine_steps = 0;
  long solves = 0;
};

/// The traced call: the same public steps core::gesv (one job) or
/// core::batched_run(Fused) take, one span each.
std::vector<layout::Matrix> run_unit_traced(const Unit& u, bool fused,
                                            sched::Session& s, Tracer& tr,
                                            EngineTally& tally) {
  tr.next_request();
  const int root = tr.open("request", -1);
  const std::size_t n = u.jobs.size();
  trace::Recorder rec;
  std::vector<core::Options> opts(n);
  std::vector<layout::Matrix> lu(n);
  std::vector<layout::PackedMatrix> packed;
  std::vector<core::GetrfJob> prepared;
  packed.reserve(n);
  prepared.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Job& j = u.jobs[i];
    core::Options& o = opts[i];
    o = core::with_tune_key(j.opt, j.a->rows(), j.a->cols());
    o.b = o.resolved_b();
    o.recorder = &rec;
    {
      Scope sp(tr, "layout.copy", root);
      lu[i] = *j.a;
    }
    {
      Scope sp(tr, "layout.pack", root);
      packed.push_back(layout::PackedMatrix::pack(
          lu[i], o.layout, o.b, o.resolved_grid(),
          core::owner_runner_from(o, s.team())));
    }
    Scope sp(tr, "core.plan", root);
    prepared.emplace_back(packed.back(), o);
  }

  std::unique_ptr<noise::Injector> injector;
  const sched::RunHooks hooks =
      core::run_hooks_from(opts[0], s.threads(), injector);
  const std::string engine = opts[0].resolved_engine();
  rec.start(s.threads());
  {
    Scope sp(tr, "sched.engine", root);
    if (!fused) {
      tally.engine.merge(s.run(
          prepared[0].graph(),
          [&prepared](int id, int tid) { prepared[0].exec(id, tid); }, hooks,
          engine));
    } else {
      std::vector<sched::FusedJob> fj(n);
      for (std::size_t i = 0; i < n; ++i) {
        fj[i].graph = &prepared[i].graph();
        fj[i].exec = [&prepared, i](int id, int tid) {
          prepared[i].exec(id, tid);
        };
      }
      tally.engine.merge(s.run_fused(fj, hooks, engine).engine);
    }
  }
  rec.stop();

  // gesv frees the job after finish() and the packed copy after
  // unpack(); batched_run keeps both until it returns.  The split path
  // frees them at the same points, so the allocator sees the same
  // lifetimes as the untraced call.
  std::vector<layout::Matrix> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Job& j = u.jobs[i];
    core::SolveResult r;
    {
      Scope sp(tr, "core.swap", root);
      r.factorization = prepared[i].finish(s.team());
      if (!fused) prepared.clear();
    }
    {
      Scope sp(tr, "layout.unpack", root);
      packed[i].unpack(lu[i]);
      if (!fused) packed.clear();
    }
    {
      Scope sp(tr, "core.solve", root);
      core::solve_factored(*j.a, *j.b, lu[i], r.factorization.ipiv,
                           opts[i].max_refine, r);
    }
    xs[i] = std::move(r.x);
    tally.refine_steps += r.refine_steps;
    ++tally.solves;
    const pb::LuFlops f = pb::lu_flop_split(j.a->rows(), opts[i].b);
    tally.s_flops += f.s;
    tally.panel_flops += f.panel;
  }
  tr.close(root);

  for (int t = 0; t < rec.threads(); ++t)
    for (const trace::Event& e : rec.thread_events(t))
      tally.busy[static_cast<int>(e.kind)] += e.t1 - e.t0;
  tally.capacity += rec.makespan() * rec.threads();
  return xs;
}

// ------------------------------------------------------------- results ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0, failed = 0;
  bool identical = true;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed before the JSON line
  void add(const std::string& name, double v, const char* unit) {
    metrics.push_back({name, std::isfinite(v) ? v : 0.0, unit});
  }
};

double ms(double s) { return s * 1e3; }

/// Tail percentile string and its support, for the notes.
std::string tail_note(const char* what, std::size_t n, double p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: p%g over %zu samples (%zu beyond)%s",
                what, p, n, pb::samples_beyond(n, p),
                pb::tail_supported(n, p) ? "" : " -- TOO FEW for this tail");
  return buf;
}

// ------------------------------------------------------ closed loops ---

/// Time slices the end-to-end percentiles are taken over (harness.h,
/// sliced_percentile).
constexpr int kSlices = 10;

struct LoopResult {
  std::vector<double> latency;  // seconds per unit, sorted
  std::vector<pb::Sample> timed;  // (start offset, latency) per unit
  std::vector<double> solve_rate, flop_rate;  // per unit, /s
};

/// Runs units back to back for `seconds` (at least one), untraced, and
/// checks every answer.
LoopResult closed_loop(const Inputs& in, sched::Session& s, double seconds,
                       Outcome& out) {
  LoopResult r;
  const auto start = Clock::now();
  for (std::size_t k = 0; k == 0 || seconds_since(start) < seconds; ++k) {
    const Unit& u = in.units[k % in.units.size()];
    const auto t0 = Clock::now();
    std::vector<layout::Matrix> xs;
    try {
      xs = run_unit(u, in.fused, s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: call failed: %s\n", e.what());
    }
    const double dt = seconds_since(t0);
    const int bad = count_bad(u, xs);
    out.attempted += u.jobs.size();
    out.failed += std::uint64_t(bad);
    r.latency.push_back(dt);
    r.timed.push_back({std::chrono::duration<double>(t0 - start).count(), dt});
    r.solve_rate.push_back(double(u.jobs.size() - std::size_t(bad)) / dt);
    r.flop_rate.push_back(u.flops / dt);
  }
  std::sort(r.latency.begin(), r.latency.end());
  return r;
}

/// Setup time: a fresh Session plus its first, warm-up call, repeated
/// `reps` times; the last Session is returned for the measurement.  The
/// workloads set up half their times before the measured loop and half
/// after it, so one slow stretch on the host cannot move the median.
std::unique_ptr<sched::Session> setup_session(const Inputs& in, int reps,
                                              std::vector<double>& setup,
                                              Outcome& out) {
  std::unique_ptr<sched::Session> s;
  for (int r = 0; r < reps; ++r) {
    s.reset();
    const auto t0 = Clock::now();
    s = std::make_unique<sched::Session>(
        sched::SessionOptions{in.threads, true});
    const std::vector<layout::Matrix> xs = run_unit(in.units[0], in.fused, *s);
    setup.push_back(seconds_since(t0));
    out.attempted += in.units[0].jobs.size();
    out.failed += std::uint64_t(count_bad(in.units[0], xs));
  }
  return s;
}

/// The first request of the workload must come out of the split-up
/// traced path with the very bits the untraced call returns.
bool split_matches(const Inputs& in, sched::Session& s) {
  const std::vector<layout::Matrix> want = run_unit(in.units[0], in.fused, s);
  Tracer tr;
  EngineTally tally;
  const std::vector<layout::Matrix> got =
      run_unit_traced(in.units[0], in.fused, s, tr, tally);
  if (want.size() != got.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!same_bits(want[i], got[i])) return false;
  return true;
}

void add_end_to_end(Outcome& out, const std::vector<double>& setup,
                    const LoopResult& r, double throughput, double gflops) {
  out.add("setup_s", pb::median(setup), "s");
  out.add("throughput_per_s", throughput, "1/s");
  out.add("latency_p50_ms",
          ms(pb::sliced_percentile(r.timed, kSlices, 50.0)), "ms");
  out.add("gflops", gflops, "GF/s");
  // Tails are reported, not gated: on a shared VM they moved with the
  // host's steal time by more than any usable regression bound.
  for (const double p : {90.0, 99.0})
    out.notes.push_back(
        tail_note(p == 90.0 ? "latency_p90_ms" : "latency_p99_ms",
                  r.latency.size(), p) +
        ", value " +
        std::to_string(ms(pb::sliced_percentile(r.timed, kSlices, p))) +
        " ms (median over " + std::to_string(kSlices) +
        " time slices when each slice has the samples)");
  char buf[160];
  std::snprintf(buf, sizeof(buf), "setup_s: median of %zu set-ups",
                setup.size());
  out.notes.push_back(buf);
}

// ------------------------------------------------------------- service ---

struct ServiceTally {
  std::vector<double> latency, interactive, batch;  // from due, seconds
  std::vector<pb::Sample> timed;                    // (due, latency)
  std::vector<double> queue, run, rest, late;       // seconds
  std::uint64_t completed = 0;
  std::uint64_t fused_runs = 0;
  double flops = 0.0;
  double elapsed = 0.0;  // first due -> last completion
};

/// Submits `reqs` at their due times (seconds from now, slept for by the
/// calling thread), waits for every answer, checks it and collects the
/// per-request timings.
ServiceTally drive_service(sched::Service& svc, ServiceInputs& si,
                           const std::vector<Arrival>& reqs, Outcome& out) {
  ServiceTally t;
  const std::size_t n = reqs.size();
  std::vector<Clock::time_point> done_at(n);
  std::vector<Clock::time_point> sent_at(n);
  std::vector<std::future<sched::ServiceResponse>> futures(n);
  std::vector<char> accepted(n, 0);
  const std::uint64_t runs_before = svc.fused_runs();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t k = 0; k < n; ++k) {
    const Arrival& a = reqs[k];
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(a.due));
    std::this_thread::sleep_until(due);
    sched::ServiceRequest req;
    req.a = &si.pool.as[std::size_t(a.system)];
    req.rhs = &si.pool.bs[std::size_t(a.system)];
    req.options = request_options(si, a);
    req.on_complete = [&done_at, k](const sched::ServiceResponse&) {
      done_at[k] = Clock::now();
    };
    sent_at[k] = Clock::now();
    sched::Submission sub = svc.submit(std::move(req));
    if (sub.status == sched::SubmitStatus::Accepted) {
      futures[k] = std::move(sub.response);
      accepted[k] = 1;
    }
  }
  svc.drain();
  auto last = start;
  for (std::size_t k = 0; k < n; ++k) {
    ++out.attempted;
    const Arrival& a = reqs[k];
    if (!accepted[k] ||
        futures[k].wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
      ++out.failed;  // rejected or unanswered
      continue;
    }
    sched::ServiceResponse resp;
    try {
      resp = futures[k].get();
    } catch (const std::exception&) {
      ++out.failed;
      continue;
    }
    const layout::Matrix& A = si.pool.as[std::size_t(a.system)];
    if (!pb::residual_ok(pb::normalized_residual(
            A, resp.result.x, si.pool.bs[std::size_t(a.system)]))) {
      ++out.failed;
      continue;
    }
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(a.due));
    const double lat = std::chrono::duration<double>(done_at[k] - due).count();
    t.latency.push_back(lat);
    t.timed.push_back({a.due, lat});
    (a.interactive ? t.interactive : t.batch).push_back(lat);
    t.queue.push_back(resp.queue_seconds);
    t.run.push_back(resp.result.completed_at);
    t.rest.push_back(resp.latency_seconds - resp.queue_seconds -
                     resp.result.completed_at);
    t.late.push_back(std::chrono::duration<double>(sent_at[k] - due).count());
    t.flops += lu_model_flops(A.rows());
    ++t.completed;
    last = std::max(last, done_at[k]);
  }
  t.fused_runs = svc.fused_runs() - runs_before;
  t.elapsed = std::chrono::duration<double>(last - start).count();
  for (auto* v : {&t.latency, &t.interactive, &t.batch, &t.queue, &t.run,
                  &t.rest, &t.late})
    std::sort(v->begin(), v->end());
  return t;
}

sched::ServiceOptions service_config(int team) {
  sched::ServiceOptions o;
  o.session = sched::SessionOptions{team, true};
  o.engine = kServiceEngine;
  return o;
}

/// A closed-loop replay of a workload's calls through the Service: each
/// call's jobs are due together and the next call waits for the last
/// answer.  Gives the service-layer metrics for large_solve and
/// small_batch inputs.
void service_probe(const Inputs& in, double seconds, ServiceTally& t,
                   Outcome& out) {
  ServiceInputs si;
  si.pool.threads = std::max(1, in.threads - 1);
  si.pool.as.reserve(in.units.size() * in.units[0].jobs.size());
  si.pool.bs.reserve(si.pool.as.capacity());
  std::vector<std::vector<Arrival>> calls;
  for (const Unit& u : in.units) {
    std::vector<Arrival> call;
    for (const Job& j : u.jobs) {
      si.pool.as.push_back(*j.a);
      si.pool.bs.push_back(*j.b);
      si.base.push_back(j.opt);
      call.push_back({0.0, true, int(si.pool.as.size()) - 1});
    }
    calls.push_back(std::move(call));
  }
  sched::Service svc(service_config(si.pool.threads));
  const auto start = Clock::now();
  for (std::size_t k = 0; k == 0 || seconds_since(start) < seconds; ++k) {
    const ServiceTally c = drive_service(svc, si, calls[k % calls.size()], out);
    auto append = [](std::vector<double>& to, const std::vector<double>& v) {
      to.insert(to.end(), v.begin(), v.end());
    };
    append(t.latency, c.latency);
    append(t.queue, c.queue);
    append(t.run, c.run);
    append(t.rest, c.rest);
    append(t.late, c.late);
    t.completed += c.completed;
    t.fused_runs += c.fused_runs;
  }
  for (auto* v : {&t.latency, &t.queue, &t.run, &t.rest, &t.late})
    std::sort(v->begin(), v->end());
}

void add_service_layer(Outcome& out, const ServiceTally& t) {
  out.add("service.queue_p50_ms", ms(pb::percentile(t.queue, 50.0)), "ms");
  out.add("service.queue_p99_ms", ms(pb::percentile(t.queue, 99.0)), "ms");
  out.add("service.run_ms", ms(pb::percentile(t.run, 50.0)), "ms");
  out.add("service.rest_ms", ms(pb::percentile(t.rest, 50.0)), "ms");
  out.add("service.fused_size_mean",
          t.fused_runs ? double(t.completed) / double(t.fused_runs) : 0.0,
          "count");
  out.add("service.generator_late_p99_ms", ms(pb::percentile(t.late, 99.0)),
          "ms");
  out.notes.push_back(tail_note("service.queue_p99_ms", t.queue.size(), 99));
  out.notes.push_back(tail_note("service.generator_late_p99_ms",
                                t.late.size(), 99));
}

// -------------------------------------------------------- per-layer ---

double peak_gemm_gflops(int b) {
  const layout::Matrix a = pb::random_matrix(b, b, 11);
  const layout::Matrix bb = pb::random_matrix(b, b, 12);
  layout::Matrix c = pb::random_matrix(b, b, 13);
  const double flops = 2.0 * b * b * b;
  const int calls = std::max(1, int(2e7 / flops));  // ~20 Mflop per sample
  std::vector<double> rates;
  for (int r = 0; r < 9; ++r) {
    const auto t0 = Clock::now();
    for (int k = 0; k < calls; ++k)
      blas::gemm(blas::Trans::No, blas::Trans::No, b, b, b, -1e-3, a.data(),
                 b, bb.data(), b, 1.0, c.data(), b);
    rates.push_back(flops * calls / seconds_since(t0) / 1e9);
  }
  return pb::median(rates);
}

/// Per-layer metrics from the traced loop: median per call of each
/// layer's self time, plus engine counters and computed kernel rates.
void add_layers(Outcome& out, const Tracer& tr, const EngineTally& tally,
                std::size_t units, int threads, int b, double untraced_p50,
                double traced_p50, double e2e_gflops) {
  static const char* const kLayers[] = {
      "layout.copy", "layout.pack", "layout.unpack", "core.plan",
      "core.swap",   "core.solve",  "sched.engine",  "request"};
  constexpr int kL = sizeof(kLayers) / sizeof(kLayers[0]);
  const std::vector<pb::Span>& spans = tr.spans();
  const std::vector<double> self = pb::self_times(spans);
  std::map<std::int64_t, std::vector<double>> per_req;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<double>& v = per_req[spans[i].request];
    v.resize(kL, 0.0);
    for (int l = 0; l < kL; ++l)
      if (std::strcmp(spans[i].name, kLayers[l]) == 0) v[l] += self[i];
  }
  for (int l = 0; l < kL; ++l) {
    std::vector<double> vals;
    for (const auto& [req, v] : per_req) vals.push_back(v[l]);
    const std::string name = l + 1 == kL ? "trace.unaccounted" : kLayers[l];
    out.add(name + "_ms", ms(pb::median(vals)), "ms");
  }
  out.add("trace.overhead_ms", ms(traced_p50 - untraced_p50), "ms");

  const double u = std::max<double>(1.0, double(units));
  out.add("core.refine_steps",
          tally.solves ? double(tally.refine_steps) / tally.solves : 0.0,
          "count");
  double busy = 0.0;
  for (double s : tally.busy) busy += s;
  out.add("sched.idle_frac",
          tally.capacity > 0 ? 1.0 - busy / tally.capacity : 0.0, "ratio");
  const std::pair<const char*, trace::Kind> kinds[] = {
      {"P", trace::Kind::P},         {"L", trace::Kind::L},
      {"U", trace::Kind::U},         {"S", trace::Kind::S},
      {"PackL", trace::Kind::PackL}, {"PackU", trace::Kind::PackU}};
  for (const auto& [nm, k] : kinds)
    out.add(std::string("sched.busy_ms.") + nm,
            ms(tally.busy[static_cast<int>(k)]) / u, "ms");
  const sched::EngineStats& e = tally.engine;
  out.add("sched.static_pops", double(e.static_pops) / u, "count");
  out.add("sched.dynamic_pops", double(e.dynamic_pops) / u, "count");
  out.add("sched.steal_success",
          e.steal_attempts ? double(e.steals) / double(e.steal_attempts) : 0.0,
          "ratio");
  out.add("sched.promotions", double(e.promotions) / u, "count");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "sched.steal_success: %llu steals over %llu attempts",
                static_cast<unsigned long long>(e.steals),
                static_cast<unsigned long long>(e.steal_attempts));
  out.notes.push_back(buf);

  const double peak = peak_gemm_gflops(b);
  const double s_busy = tally.busy[static_cast<int>(trace::Kind::S)];
  const double p_busy = tally.busy[static_cast<int>(trace::Kind::P)] +
                        tally.busy[static_cast<int>(trace::Kind::L)];
  out.add("blas.gemm_peak_gflops", peak, "GF/s");
  out.add("blas.s_gflops", s_busy > 0 ? tally.s_flops / s_busy / 1e9 : 0.0,
          "GF/s");
  out.add("blas.panel_gflops",
          p_busy > 0 ? tally.panel_flops / p_busy / 1e9 : 0.0, "GF/s");
  out.add("blas.gflops_vs_peak", e2e_gflops / (threads * peak), "ratio");
  std::snprintf(buf, sizeof(buf),
                "blas.s_gflops / blas.panel_gflops: computed LU flops "
                "over recorder busy time; gemm peak single-thread at "
                "m=n=k=%d",
                b);
  out.notes.push_back(buf);
}

void write_spans(const std::string& path, const Tracer& tr) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "index\tname\tstart_s\tend_s\tparent\trequest\n");
  const std::vector<pb::Span>& s = tr.spans();
  for (std::size_t i = 0; i < s.size(); ++i)
    std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t%d\t%lld\n", i, s[i].name,
                 s[i].start, s[i].end, s[i].parent,
                 static_cast<long long>(s[i].request));
  std::fclose(f);
}

/// Trace mode for a closed-loop workload (or the service mix replay):
/// untraced calls, then the split-up traced calls on the same inputs.
void traced_closed_loop(const Inputs& in, sched::Session& s, double seconds,
                        const std::string& spans_path, int b,
                        Outcome& out) {
  const LoopResult plain = closed_loop(in, s, seconds / 3.0, out);
  Tracer tr;
  EngineTally tally;
  std::vector<double> traced;
  const auto start = Clock::now();
  std::size_t units = 0;
  for (std::size_t k = 0; k == 0 || seconds_since(start) < seconds; ++k) {
    const Unit& u = in.units[k % in.units.size()];
    const auto t0 = Clock::now();
    const std::vector<layout::Matrix> xs =
        run_unit_traced(u, in.fused, s, tr, tally);
    traced.push_back(seconds_since(t0));
    const int bad = count_bad(u, xs);
    out.attempted += u.jobs.size();
    out.failed += std::uint64_t(bad);
    ++units;
  }
  const double gflops = pb::median(plain.flop_rate) / 1e9;
  add_layers(out, tr, tally, units, s.threads(), b,
             pb::percentile(plain.latency, 50.0), pb::median(traced), gflops);
  write_spans(spans_path, tr);
}

// ----------------------------------------------------------- workloads ---

Outcome run_closed(const Args& args, const Inputs& in, int setup_reps,
                   int b) {
  Outcome out;
  AffinityGuard affinity;
  std::vector<double> setup;
  std::unique_ptr<sched::Session> s =
      setup_session(in, setup_reps - setup_reps / 2, setup, out);
  out.identical = out.identical && split_matches(in, *s);
  if (!args.trace) {
    const LoopResult r = closed_loop(in, *s, args.seconds, out);
    s.reset();
    setup_session(in, setup_reps / 2, setup, out);
    add_end_to_end(out, setup, r, pb::median(r.solve_rate),
                   pb::median(r.flop_rate) / 1e9);
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }
  traced_closed_loop(in, *s, args.seconds * 0.6, args.spans_path, b, out);
  s.reset();
  affinity.restore();
  ServiceTally t;
  service_probe(in, args.seconds * 0.25, t, out);
  add_service_layer(out, t);
  return out;
}

/// Setup time of the service: construction plus the first request's
/// round trip, repeated `reps` times; returns the last Service and its
/// answer to that request.
std::unique_ptr<sched::Service> setup_service(ServiceInputs& si, int reps,
                                              std::vector<double>& setup,
                                              layout::Matrix& first_x,
                                              Outcome& out) {
  const Arrival& first = si.mix.front();
  std::unique_ptr<sched::Service> svc;
  for (int r = 0; r < reps; ++r) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = std::make_unique<sched::Service>(service_config(si.pool.threads));
    sched::ServiceRequest req;
    req.a = &si.pool.as[std::size_t(first.system)];
    req.rhs = &si.pool.bs[std::size_t(first.system)];
    req.options = request_options(si, first);
    sched::Submission sub = svc->submit(std::move(req));
    ++out.attempted;
    if (sub.status != sched::SubmitStatus::Accepted) {
      ++out.failed;
      continue;
    }
    first_x = sub.response.get().result.x;
    setup.push_back(seconds_since(t0));
    if (!pb::residual_ok(pb::normalized_residual(
            si.pool.as[std::size_t(first.system)], first_x,
            si.pool.bs[std::size_t(first.system)])))
      ++out.failed;
  }
  return svc;
}

Outcome run_service(const Args& args) {
  Outcome out;
  AffinityGuard affinity;
  const int team = std::max(1, nproc() - 1);
  const double open_seconds = args.trace ? args.seconds * 0.4 : args.seconds;
  ServiceInputs si = make_service(args.seed, team, open_seconds);
  const Arrival& first = si.mix.front();
  constexpr int kSetupReps = 40;

  // The first request's x through the Service must match the split-up
  // traced path bit for bit.
  std::vector<double> setup;
  layout::Matrix first_x;
  std::unique_ptr<sched::Service> svc =
      setup_service(si, kSetupReps / 2, setup, first_x, out);
  {
    Inputs one;
    one.threads = team;
    one.units.emplace_back();
    add_job(one.units[0], &si.pool.as[std::size_t(first.system)],
            &si.pool.bs[std::size_t(first.system)],
            request_options(si, first));
    sched::Session s(sched::SessionOptions{team, true});
    Tracer tr;
    EngineTally tally;
    const std::vector<layout::Matrix> got =
        run_unit_traced(one.units[0], true, s, tr, tally);
    out.identical = out.identical && !got.empty() && same_bits(got[0], first_x);
  }
  affinity.restore();

  const ServiceTally t = drive_service(*svc, si, si.mix, out);
  if (!args.trace) {
    LoopResult r;
    r.latency = t.latency;
    r.timed = t.timed;
    add_end_to_end(out, setup, r, double(t.completed) / t.elapsed,
                   t.flops / t.elapsed / 1e9);
    svc.reset();
    setup_service(si, kSetupReps / 2, setup, first_x, out);
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "service_mixed: offered %.0f req/s for %.1f s, %zu "
                  "requests",
                  kServiceRate, open_seconds, si.mix.size());
    out.notes.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "interactive_p99_ms %.4f ms, batch_p99_ms %.4f ms",
                  ms(pb::percentile(t.interactive, 99.0)),
                  ms(pb::percentile(t.batch, 99.0)));
    out.notes.push_back(buf);
    out.notes.push_back(
        tail_note("interactive_p99_ms", t.interactive.size(), 99.0));
    out.notes.push_back(tail_note("batch_p99_ms", t.batch.size(), 99.0));
    return out;
  }
  add_service_layer(out, t);
  svc.reset();
  // The service's own steps run inside its dispatcher; the layer split
  // replays the same request mix, kServiceGroup requests per fused run,
  // on a Session shaped like the service's team.
  std::thread replay([&] {
    sched::Session s(sched::SessionOptions{team, true});
    traced_closed_loop(si.pool, s, args.seconds * 0.5, args.spans_path,
                       kServiceB, out);
  });
  replay.join();
  return out;
}

/// Closed-loop burst capacity of the service on the service_mixed mix:
/// the number kServiceRate is set from.
void print_capacity(const Args& args) {
  const int team = std::max(1, nproc() - 1);
  ServiceInputs si = make_service(args.seed, team, 1.0);
  sched::Service svc(service_config(team));
  Outcome out;
  std::vector<Arrival> burst(si.mix.begin(),
                             si.mix.begin() + std::min<std::size_t>(
                                                  256, si.mix.size()));
  for (Arrival& a : burst) a.due = 0.0;
  std::vector<double> rates;
  const auto start = Clock::now();
  while (seconds_since(start) < args.seconds) {
    const auto t0 = Clock::now();
    const ServiceTally t = drive_service(svc, si, burst, out);
    rates.push_back(double(t.completed) / seconds_since(t0));
  }
  std::printf("capacity %.1f req/s (median of %zu bursts of %zu), failed "
              "%llu of %llu\n",
              pb::median(rates), rates.size(), burst.size(),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
}

void print_result(const Outcome& out) {
  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  std::printf("# failed_frac %.6g (%llu of %llu attempted)\n",
              out.attempted ? double(out.failed) / double(out.attempted) : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const Metric& m : out.metrics)
    std::printf("# %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const bool correct = out.identical && out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out.metrics[i].name.c_str(),
                out.metrics[i].value, out.metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // The first system_topology() call measures steal latencies by pinning
  // the calling thread to single CPUs and leaves it pinned; probe it here
  // and restore the mask so the caller keeps every CPU.
  {
    const AffinityGuard affinity;
    sched::system_topology();
    affinity.restore();
  }
  if (args.capacity) {
    print_capacity(args);
    return 0;
  }
  const int p = nproc();
  print_host(args, p, std::max(1, p - 1));
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Outcome out;
  if (args.workload == "large_solve") {
    out = run_closed(args, make_large(args.seed, p), 9, 100);
  } else if (args.workload == "small_batch") {
    out = run_closed(args, make_small(args.seed, p), 21, kBatchB);
  } else {
    out = run_service(args);
  }
  out.notes.push_back(std::string("bit-identity of the split-up path: ") +
                      (out.identical ? "ok" : "MISMATCH"));
  print_result(out);
  return 0;
}
