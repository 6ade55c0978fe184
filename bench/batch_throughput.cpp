// batch_throughput.cpp — the batch-execution bench: jobs/s and open-loop
// per-job latency percentiles for batches of small/medium factorize+solve
// jobs, across three submission modes:
//
//   oneshot     every job is a one-shot gesv spawning its own thread team
//   sequential  one persistent sched::Session, one engine run per job
//               (the PR-5 amortization)
//   fused       one persistent session, every job's task graph merged
//               into ONE engine run (core::batched_run, BatchMode::Fused)
//               so engines steal across jobs — the scheduling itself is
//               amortized, not just the thread spawn
//
//   batch_throughput [--json=PATH] [--engine=NAME] [--threads=N]
//
// Environment: CALU_BENCH_FULL / CALU_BENCH_REPS / CALU_BENCH_THREADS as
// in every bench.  --threads may exceed the hardware count (unlike the
// CALU_BENCH_THREADS cap): spawning an oversubscribed team per call is
// exactly the overhead under measurement, and small containers would
// otherwise hide it.  --json writes BENCH_batch.json (committed at the
// repo root as the perf-trajectory artifact; CI smoke-validates its
// shape).
// Each row reports the median of its reps (CALU_BENCH_REPS); a lone-job
// row repeats until it has run >= 0.2 s and >= 15 reps, since a few reps
// of one ~1 ms job are too noisy to be a trajectory.  The JSON records
// each row's rep count and the host (cpu counts, dispatched kernel).
// Timed regions include team construction — that is the cost under
// measurement — and `teams_spawned` is counted via
// ThreadTeam::teams_constructed(), not inferred from timing.  Latency is
// open-loop: seconds from batch start to each job's completion (DAG
// retirement in fused mode), pooled across reps before taking
// percentiles.
//
// Besides the uniform-size sweep, one fused `mixed_sizes` row runs the
// repository benchmark's small_batch mix: 32 jobs, 8 each of n = 48, 64,
// 96 and 128, b = 32.  Fused rows also report busy_max_over_mean: per-
// thread busy time (task bodies, from a trace::Recorder on extra untimed
// reps) of the busiest team thread over the team mean — 1.0 is a
// perfectly balanced run.  Other rows report -1 (not measured).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/blas/microkernel.h"
#include "src/core/batch.h"
#include "src/core/solve.h"
#include "src/sched/engine_registry.h"
#include "src/sched/topology.h"
#include "src/trace/trace.h"
#include "src/util/percentile.h"

namespace {

using namespace calu;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

enum class Mode { OneShot, Sequential, Fused };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::OneShot:
      return "oneshot";
    case Mode::Sequential:
      return "sequential";
    default:
      return "fused";
  }
}

/// The small_batch mix of the mixed_sizes row, cycled over its jobs.
constexpr int kMixedSizes[] = {48, 64, 96, 128};

struct Config {
  int n = 0, b = 0, jobs = 0;
  Mode mode = Mode::OneShot;
  bool mixed = false;  ///< job i has n = kMixedSizes[i % 4] (n is the max)
  bool reuse() const { return mode != Mode::OneShot; }
  int job_n(int i) const { return mixed ? kMixedSizes[i % 4] : n; }
};

const char* shape_name(const Config& c) {
  return c.mixed ? "mixed_sizes" : "uniform";
}

struct Result {
  Config cfg;
  int reps = 0;
  double seconds = 0.0;  // median over reps, whole batch
  double jobs_per_s = 0.0;
  double latency_ms = 0.0;   // mean per-job, seconds / jobs
  double lat_p50_ms = 0.0;   // open-loop completion-latency percentiles
  double lat_p95_ms = 0.0;
  double lat_p99_ms = 0.0;
  std::uint64_t teams_spawned = 0;
  std::uint64_t dag_runs = 0;
  double busy_max_over_mean = -1.0;  // fused rows only
};

std::string json_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) return a.substr(7);
  }
  return {};
}

int threads_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--threads=", 0) == 0) return std::atoi(a.c_str() + 10);
  }
  return 0;
}

double percentile_ms(const std::vector<double>& sorted_s, double p) {
  return util::percentile(sorted_s, p) * 1e3;
}

/// Busiest thread's task time over the team mean, the median over three
/// traced fused runs on one warmed-up session.
double fused_busy_balance(std::vector<core::BatchJob> jobs,
                          const core::Options& opt) {
  sched::Session session(core::session_options_from(opt));
  core::batched_run(jobs, session, core::BatchMode::Fused);  // warm-up
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    trace::Recorder rec;
    jobs[0].options.recorder = &rec;  // the fused run takes hooks from job 0
    core::batched_run(jobs, session, core::BatchMode::Fused);
    double max = 0.0, sum = 0.0;
    for (int t = 0; t < rec.threads(); ++t) {
      double busy = 0.0;
      for (const trace::Event& e : rec.thread_events(t)) busy += e.t1 - e.t0;
      max = std::max(max, busy);
      sum += busy;
    }
    if (sum > 0.0) ratios.push_back(max * rec.threads() / sum);
  }
  if (ratios.empty()) return -1.0;
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

/// A lone job is ~1 ms, where a few reps swing its jobs/s by 10-20%
/// between runs: such rows repeat until both floors are met and report
/// the median.
constexpr double kLoneJobMinSeconds = 0.2;
constexpr int kLoneJobMinReps = 15;

Result run_config(const Config& cfg, const core::Options& opt, int reps) {
  std::vector<layout::Matrix> as, bs;
  for (int i = 0; i < cfg.jobs; ++i) {
    const int n = cfg.job_n(i);
    as.push_back(
        layout::Matrix::random(n, n, 4000 + static_cast<std::uint64_t>(i)));
    bs.push_back(
        layout::Matrix::random(n, 1, 5000 + static_cast<std::uint64_t>(i)));
  }
  auto make_jobs = [&] {
    std::vector<core::BatchJob> jobs(as.size());
    for (std::size_t i = 0; i < as.size(); ++i) {
      jobs[i].a = &as[i];
      jobs[i].rhs = &bs[i];
      jobs[i].options = opt;
    }
    return jobs;
  };

  Result res;
  res.cfg = cfg;
  std::vector<double> secs;
  std::vector<double> lat;  // per-job open-loop latency, pooled over reps
  lat.reserve(static_cast<std::size_t>(cfg.jobs) * reps);
  const bool lone = cfg.jobs == 1;
  double total = 0.0;
  for (int r = 0; r < reps || (lone && (r < kLoneJobMinReps ||
                                        total < kLoneJobMinSeconds));
       ++r) {
    const std::uint64_t teams0 = sched::ThreadTeam::teams_constructed();
    const auto t0 = std::chrono::steady_clock::now();
    if (cfg.mode == Mode::OneShot) {
      for (int i = 0; i < cfg.jobs; ++i) {
        core::gesv(as[i], bs[i], opt);
        lat.push_back(seconds_since(t0));
      }
      res.dag_runs = static_cast<std::uint64_t>(cfg.jobs);
    } else {
      sched::Session session(core::session_options_from(opt));
      std::vector<core::BatchJob> jobs = make_jobs();
      core::BatchRunResult batch = core::batched_run(
          jobs, session,
          cfg.mode == Mode::Fused ? core::BatchMode::Fused
                                  : core::BatchMode::Sequential);
      res.dag_runs = batch.stats.dag_runs;
      for (const core::BatchJobResult& j : batch.jobs)
        lat.push_back(j.completed_at);
    }
    secs.push_back(seconds_since(t0));
    total += secs.back();
    if (r == 0)
      res.teams_spawned = sched::ThreadTeam::teams_constructed() - teams0;
  }
  res.reps = static_cast<int>(secs.size());
  std::sort(secs.begin(), secs.end());
  res.seconds = secs[secs.size() / 2];
  res.jobs_per_s = cfg.jobs / res.seconds;
  res.latency_ms = res.seconds / cfg.jobs * 1e3;
  std::sort(lat.begin(), lat.end());
  res.lat_p50_ms = percentile_ms(lat, 50.0);
  res.lat_p95_ms = percentile_ms(lat, 95.0);
  res.lat_p99_ms = percentile_ms(lat, 99.0);
  if (cfg.mode == Mode::Fused)
    res.busy_max_over_mean = fused_busy_balance(make_jobs(), opt);
  return res;
}

/// One engine's steal-distance profile on a representative factorization.
struct LocalityResult {
  std::string engine;
  sched::EngineStats stats;
};

/// Factors the same matrix under the topology-blind work-stealing
/// baseline and the distance-aware numa-hierarchical engine, so the
/// committed JSON carries a steals-by-class comparison.  Both are the
/// same Chase-Lev engine and classify every steal, so the two by_class
/// histograms show how much more of the stolen work the topology-ordered
/// victim walk keeps cache-near.
std::vector<LocalityResult> steal_locality_sweep(int threads) {
  std::vector<LocalityResult> out;
  for (const char* name : {"work-stealing", "numa-hierarchical"}) {
    core::Options o;
    o.threads = threads;
    o.engine = name;
    o.b = 32;
    layout::Matrix a = layout::Matrix::random(320, 320, 99);
    out.push_back({name, core::getrf(a, o).stats.engine});
  }
  return out;
}

void write_json(const char* path, const std::vector<Result>& results,
                int threads, const std::string& engine, int reps,
                const bench::HostCpus& hc) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"batch_throughput\",\n");
  std::fprintf(f,
               "  \"host\": {\"hardware_threads\": %d, \"cpus_online\": %ld, "
               "\"cpus_configured\": %ld, \"cpus_affinity\": %d, "
               "\"kernel\": \"%s\"},\n",
               hc.hardware_threads, hc.online, hc.configured, hc.affinity,
               blas::active_kernel().name);
  std::fprintf(f, "  \"threads\": %d,\n", threads);
  std::fprintf(f, "  \"engine\": \"%s\",\n", engine.c_str());
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"full_scale\": %s,\n",
               bench::full_scale() ? "true" : "false");
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"b\": %d, \"jobs\": %d, "
                 "\"shape\": \"%s\", "
                 "\"mode\": \"%s\", \"session_reuse\": %s, \"reps\": %d, "
                 "\"seconds\": %.6f, \"jobs_per_s\": %.2f, "
                 "\"latency_ms\": %.3f, \"lat_p50_ms\": %.3f, "
                 "\"lat_p95_ms\": %.3f, \"lat_p99_ms\": %.3f, "
                 "\"teams_spawned\": %llu, \"dag_runs\": %llu, "
                 "\"busy_max_over_mean\": %.3f}%s\n",
                 r.cfg.n, r.cfg.b, r.cfg.jobs, shape_name(r.cfg),
                 mode_name(r.cfg.mode), r.cfg.reuse() ? "true" : "false",
                 r.reps, r.seconds, r.jobs_per_s, r.latency_ms, r.lat_p50_ms,
                 r.lat_p95_ms, r.lat_p99_ms,
                 static_cast<unsigned long long>(r.teams_spawned),
                 static_cast<unsigned long long>(r.dag_runs),
                 r.busy_max_over_mean, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Steal-locality comparison (see steal_locality_sweep).  cross_fraction
  // = steals that left the L3 group (pkg + xpkg + unk classes) over total
  // steals, or -1 when an engine stole nothing.
  const std::vector<LocalityResult> loc = steal_locality_sweep(threads);
  std::fprintf(f, "  \"steal_locality\": {\"topology\": \"%s\", "
               "\"engines\": [\n",
               sched::system_topology().summary().c_str());
  for (std::size_t i = 0; i < loc.size(); ++i) {
    const sched::EngineStats& st = loc[i].stats;
    std::uint64_t classified = 0, cross = 0;
    for (int c = 0; c < sched::kStealClassCount; ++c) {
      classified += st.steals_by_class[c];
      if (c >= static_cast<int>(sched::StealClass::kSamePackage))
        cross += st.steals_by_class[c];
    }
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"steals\": %llu, "
                 "\"steal_attempts\": %llu, \"pinned_threads\": %d, "
                 "\"by_class\": {",
                 loc[i].engine.c_str(),
                 static_cast<unsigned long long>(st.steals),
                 static_cast<unsigned long long>(st.steal_attempts),
                 st.pinned_threads);
    for (int c = 0; c < sched::kStealClassCount; ++c)
      std::fprintf(f, "%s\"%s\": %llu", c ? ", " : "",
                   sched::steal_class_name(static_cast<sched::StealClass>(c)),
                   static_cast<unsigned long long>(st.steals_by_class[c]));
    std::fprintf(f, "}, \"cross_fraction\": %.4f}%s\n",
                 classified > 0
                     ? static_cast<double>(cross) / static_cast<double>(classified)
                     : -1.0,
                 i + 1 < loc.size() ? "," : "");
  }
  std::fprintf(f, "  ]}\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace calu::bench;

  const std::string engine_arg = engine_flag(argc, argv);
  const std::string engine = engine_arg.empty() ? "hybrid" : engine_arg;
  const std::string json_path = json_flag(argc, argv);
  const int arg_threads = threads_flag(argc, argv);
  const int threads = arg_threads > 0 ? arg_threads : numa_threads();
  const int nreps = reps();
  // Before any pinned session narrows this thread's affinity mask.
  const HostCpus host = host_cpus();

  core::Options opt;
  opt.threads = threads;
  opt.engine = engine;
  opt.max_refine = 1;

  print_banner("batch_throughput",
               "jobs/s for batched factorize+solve: oneshot vs sequential "
               "session vs fused multi-DAG",
               "amortization target: fused >= sequential >= oneshot, gap "
               "largest at small n x many jobs");

  const std::vector<int> ns = sizes({64, 160}, {256, 512});
  const std::vector<int> job_counts =
      full_scale() ? std::vector<int>{4, 16, 64}
                   : std::vector<int>{1, 4, 16, 48};

  std::printf("%11s %4s %5s %11s %10s %10s %10s %9s %9s %6s %9s\n", "n",
              "b", "jobs", "mode", "seconds", "jobs/s", "lat_p50", "lat_p95",
              "lat_p99", "teams", "busy_max");
  std::vector<Result> results;
  auto run_row = [&](const Config& cfg) {
    core::Options o = opt;
    o.b = cfg.b;
    results.push_back(run_config(cfg, o, nreps));
    const Result& r = results.back();
    const std::string n =
        r.cfg.mixed ? std::string(shape_name(r.cfg)) : std::to_string(r.cfg.n);
    std::printf("%11s %4d %5d %11s %10.4f %10.1f %10.3f %9.3f %9.3f %6llu "
                "%9.3f\n",
                n.c_str(), r.cfg.b, r.cfg.jobs, mode_name(r.cfg.mode),
                r.seconds, r.jobs_per_s, r.lat_p50_ms, r.lat_p95_ms,
                r.lat_p99_ms, static_cast<unsigned long long>(r.teams_spawned),
                r.busy_max_over_mean);
  };
  for (int n : ns)
    for (int jobs : job_counts)
      for (Mode mode : {Mode::OneShot, Mode::Sequential, Mode::Fused}) {
        Config cfg;
        cfg.n = n;
        cfg.b = default_b(n);
        cfg.jobs = jobs;
        cfg.mode = mode;
        run_row(cfg);
      }
  Config mixed;
  mixed.n = 128;
  mixed.b = 32;
  mixed.jobs = 32;
  mixed.mode = Mode::Fused;
  mixed.mixed = true;
  run_row(mixed);

  if (!json_path.empty())
    write_json(json_path.c_str(), results, threads, engine, nreps, host);
  return 0;
}
