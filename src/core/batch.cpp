#include "src/core/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/model/lu_cost.h"

namespace calu::core {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Stamps the batch-wide counters from the session's run/total deltas.
void finish_stats(BatchStats& st, const sched::Session& session,
                  std::uint64_t runs_before,
                  std::chrono::steady_clock::time_point t0,
                  std::size_t njobs) {
  st.dag_runs = session.runs() - runs_before;
  st.seconds = seconds_since(t0);
  st.jobs_per_second =
      st.seconds > 0.0 ? static_cast<double>(njobs) / st.seconds : 0.0;
}

/// Sequential mode: one engine run per job, submission order — exactly
/// the per-job getrf/gesv drivers back-to-back on the session, each on
/// its job's resolved Options.
BatchRunResult run_sequential(std::vector<BatchJob>& jobs,
                              sched::Session& session) {
  BatchRunResult res;
  res.jobs.resize(jobs.size());
  res.completion_order.reserve(jobs.size());
  const std::uint64_t runs_before = session.runs();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    BatchJob& job = jobs[i];
    BatchJobResult& out = res.jobs[i];
    job.options = resolve(job.options, job.a->rows(), job.a->cols(), session);
    if (job.rhs != nullptr) {
      // Float32 solve jobs get the full mixed-precision treatment
      // (refinement to double accuracy + fallback), exactly as if the
      // caller had invoked gesv_mixed directly.
      SolveResult sr =
          job.options.precision == Precision::Float32
              ? gesv_mixed(*job.a, *job.rhs, job.options, session)
              : gesv(*job.a, *job.rhs, job.options, session);
      out.factorization = std::move(sr.factorization);
      out.x = std::move(sr.x);
      out.refine_steps = sr.refine_steps;
      out.residual = sr.residual;
      out.used_fallback = sr.used_fallback;
    } else {
      out.factorization = getrf(*job.a, job.options, session);
    }
    res.stats.engine.merge(out.factorization.stats.engine);
    out.completed_at = seconds_since(t0);
    res.completion_order.push_back(static_cast<int>(i));
    if (job.on_complete) job.on_complete(static_cast<int>(i));
  }
  finish_stats(res.stats, session, runs_before, t0, jobs.size());
  return res;
}

/// Fused mode: prepare every job through the same GetrfJob seam getrf
/// uses, merge all graphs into one engine run via Session::run_fused,
/// then run each job's epilogue (left swaps, solve + refinement or unpack).
/// Small double jobs that job parallelism alone can spread over the team
/// run whole instead: one task each in the same engine run (see below).
BatchRunResult run_fused(std::vector<BatchJob>& jobs,
                         sched::Session& session) {
  BatchRunResult res;
  res.jobs.resize(jobs.size());
  const std::uint64_t runs_before = session.runs();
  const auto t0 = std::chrono::steady_clock::now();
  if (jobs.empty()) {
    finish_stats(res.stats, session, runs_before, t0, 0);
    return res;
  }

  // Each job's Options are resolved once, for that job's own matrix:
  // grid, tile size, dratio and engine are fixed on the caller, so no
  // tuner lookup, and no pinned worker's one-cpu mask, decides them
  // inside the engine.
  //
  // One engine executes the fused graph: a job set that names two engines
  // has no faithful fused schedule, and silently picking one would betray
  // whichever job asked for the other (the make_engine_or_default "warn
  // and degrade" move is wrong here).  Reject loudly instead.  Tuned
  // jobs with no explicit ask are the exception: different sizes may
  // carry different profile engines, and the caller's intent ("whatever
  // is fastest") is served by adopting the lead job's resolution, not by
  // a throw the caller cannot predict.
  std::string engine;
  for (BatchJob& job : jobs) {
    Options& o = job.options;
    const bool adopt = o.tune != TuneMode::Off && o.engine.empty();
    o = resolve(o, job.a->rows(), job.a->cols(), session);
    if (engine.empty()) {
      engine = o.engine;
    } else if (adopt) {
      o.engine = engine;
    } else if (o.engine != engine) {
      throw std::invalid_argument(
          "batched_run(BatchMode::Fused): jobs disagree on the engine (\"" +
          engine + "\" vs \"" + o.engine +
          "\"); align Options::engine across jobs or use "
          "BatchMode::Sequential");
    }
  }

  // Job grain.  A double job below the team_share() floor keeps its
  // whole epilogue on one thread.  When its flops are also at most the
  // batch's share per thread, job parallelism alone fills the team, and
  // the job runs whole: pack, CALU DAG and epilogue on the one team
  // thread that dequeues it (static within the job, dynamic across jobs
  // — one dequeue per job).  A job above that share would leave threads
  // idle, so it keeps the tile-level DAG and spreads over the team.
  const std::size_t n = jobs.size();
  const int p = session.threads();
  std::vector<double> flops(n);
  double total_flops = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    flops[i] = model::lu_flops(jobs[i].a->rows(), jobs[i].a->cols());
    total_flops += flops[i];
  }
  std::vector<char> one_thread(n), whole(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bytes = sizeof(double) *
                              static_cast<std::size_t>(jobs[i].a->rows()) *
                              static_cast<std::size_t>(jobs[i].a->cols());
    one_thread[i] = jobs[i].options.precision == Precision::Double &&
                    team_share(bytes, p) <= 1;
    whole[i] = one_thread[i] && flops[i] <= total_flops / p;
  }

  // Prepare the tile-level jobs: per-job pack + plan with that job's own
  // Options.  Every job packs straight from its A (rhs jobs never write
  // it: they solve on the packed factors, gesv-style).  Whole jobs pack
  // and plan in their own task.  GetrfJob keeps a reference to its
  // PackedMatrix element, so both vectors are sized up front.
  std::vector<layout::PackedMatrix> packed(n);
  std::vector<std::optional<GetrfJob>> prepared(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (whole[i]) continue;
    const Options& o = jobs[i].options;
    // Placed for the owner rotation run_fused applies to this job.
    packed[i] = layout::PackedMatrix::pack(
        *jobs[i].a, o.layout, o.b, o.resolved_grid(),
        owner_runner_from(o, session.team(),
                          sched::fused_owner_shift(static_cast<int>(i), p)));
    prepared[i].emplace(packed[i], o);
  }

  // Epilogue, per job: deferred left swaps, then for rhs jobs the same
  // solve_factored() refinement gesv runs, on the packed factors (double)
  // or on unpacked ones (float32, whose refinement reads the LU); getrf
  // jobs unpack into their A.  Bit-identity with the sequential path is
  // shared code, not a re-implementation.  `team` is the session team for
  // a job run from the caller, and null for a job whose whole epilogue
  // runs on the one team thread that picked it up.
  const auto epilogue = [&](std::size_t i, sched::ThreadTeam* team) {
    BatchJob& job = jobs[i];
    BatchJobResult& out = res.jobs[i];
    out.factorization =
        team != nullptr ? prepared[i]->finish(*team) : prepared[i]->finish();
    // Without a team the job is below the team_share() floor, where
    // unpack_factors stays on the calling thread whatever team it gets.
    sched::ThreadTeam& unpack_team = session.team();
    if (job.rhs != nullptr) {
      SolveResult sr;
      sr.factorization = std::move(out.factorization);
      if (job.options.precision == Precision::Float32) {
        // Mixed epilogue shared with gesv_mixed.  On fallback the whole
        // result — fused attribution included — is replaced by the
        // double re-solve's stats: the factors the caller gets really
        // did come from that run, not the fused one.
        layout::Matrix lu;
        unpack_factors(packed[i], lu, job.options, unpack_team);
        refine_mixed(*job.a, *job.rhs, lu, job.options, session, sr);
      } else {
        solve_factored(*job.a, *job.rhs, packed[i], sr.factorization.ipiv,
                       job.options.max_refine, sr, 0.0, team);
      }
      out.factorization = std::move(sr.factorization);
      out.x = std::move(sr.x);
      out.refine_steps = sr.refine_steps;
      out.residual = sr.residual;
      out.used_fallback = sr.used_fallback;
    } else {
      unpack_factors(packed[i], *job.a, job.options, unpack_team);
    }
  };

  // A whole job, start to finish on team thread `tid`: a serial pack
  // (first touch lands on this thread), the plan, every CALU task in id
  // order — CALU's ids are a topological order of its DAG — and the
  // epilogue.  The tasks run the same bodies on the same operands as in
  // any other schedule, so the bits do not change.
  const auto run_whole = [&](std::size_t i, int tid) {
    const Options& o = jobs[i].options;
    packed[i] = layout::PackedMatrix::pack(*jobs[i].a, o.layout, o.b,
                                           o.resolved_grid());
    GetrfJob& job = prepared[i].emplace(packed[i], o);
    const sched::TaskGraph& dag = job.graph();
    if (!dag.id_ordered())
      throw std::logic_error("batched_run: CALU task ids are not a "
                             "topological order; whole-job run impossible");
    for (int id = 0; id < dag.num_tasks(); ++id) job.exec(id, tid);
    epilogue(i, nullptr);
    // The result is out; free the job's plan and tiles here, so this
    // thread's next job reuses memory that is still in its cache.
    prepared[i].reset();
    packed[i] = layout::PackedMatrix();
  };

  // Whole jobs are one-task graphs: dynamic, never promoted, and ranked
  // largest first so the long jobs start early and the short ones fill
  // the tail.
  std::vector<std::size_t> by_size;
  for (std::size_t i = 0; i < n; ++i)
    if (whole[i]) by_size.push_back(i);
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&flops](std::size_t x, std::size_t y) {
                     return flops[x] > flops[y];
                   });
  std::vector<sched::TaskGraph> whole_graph(n);
  for (std::size_t rank = 0; rank < by_size.size(); ++rank) {
    sched::Task t;
    t.priority = rank;
    t.promotable = false;
    whole_graph[by_size[rank]].add_task(t);
    whole_graph[by_size[rank]].finalize();
  }

  // A throwing job is recorded and rethrown on the caller once the
  // team is back; the other jobs still finish.
  std::vector<std::exception_ptr> errors(n);
  std::vector<sched::FusedJob> fused(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (whole[i]) {
      fused[i].graph = &whole_graph[i];
      fused[i].exec = [&run_whole, &errors, i](int, int tid) {
        try {
          run_whole(i, tid);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      };
    } else {
      fused[i].graph = &prepared[i]->graph();
      fused[i].exec = [&prepared, i](int id, int tid) {
        prepared[i]->exec(id, tid);
      };
    }
    fused[i].on_complete = jobs[i].on_complete;
  }

  std::unique_ptr<noise::Injector> injector;
  sched::RunHooks hooks =
      run_hooks_from(jobs[0].options, session.threads(), injector);
  sched::FusedRunResult fr = session.run_fused(fused, hooks, engine);

  // Job-parallel epilogue for the tile-level jobs below the floor: each
  // runs its whole epilogue on one team thread, jobs handed out largest
  // first through one counter (the dynamic remainder that absorbs uneven
  // job sizes).  Float32 jobs may fall back to a double re-solve on the
  // session, and jobs above the floor spread their own epilogue over the
  // team, so both stay on the caller.  Each step writes the same bits
  // with or without a team, so the split never shows in the results.
  std::vector<std::size_t> job_parallel, on_caller;
  for (std::size_t i = 0; i < n; ++i) {
    if (whole[i]) continue;
    (one_thread[i] ? job_parallel : on_caller).push_back(i);
  }
  std::stable_sort(job_parallel.begin(), job_parallel.end(),
                   [&flops](std::size_t x, std::size_t y) {
                     return flops[x] > flops[y];
                   });
  if (!job_parallel.empty()) {
    std::atomic<std::size_t> next{0};
    session.team().run([&](int) {
      for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
           k < job_parallel.size();
           k = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          epilogue(job_parallel[k], nullptr);
        } catch (...) {
          errors[job_parallel[k]] = std::current_exception();
        }
      }
    });
  }
  for (std::size_t i : on_caller) epilogue(i, &session.team());
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  // Attribution split out of the fused run: a whole job is one pop, and
  // its completion stamp covers its epilogue too.  A Float32 fallback
  // keeps the stats of the double re-solve that produced its factors.
  for (std::size_t i = 0; i < n; ++i) {
    BatchJobResult& out = res.jobs[i];
    out.completed_at = fr.jobs[i].completed_at;
    out.whole_job = whole[i] != 0;
    if (out.used_fallback) continue;
    Stats& st = out.factorization.stats;
    st.engine.static_pops = fr.jobs[i].static_pops;
    st.engine.dynamic_pops = fr.jobs[i].dynamic_pops;
    st.engine.elapsed = fr.jobs[i].completed_at;
    st.factor_seconds = fr.jobs[i].completed_at;
  }

  res.completion_order = std::move(fr.completion_order);
  res.stats.engine = fr.engine;
  finish_stats(res.stats, session, runs_before, t0, n);
  return res;
}

/// Rejects the whole batch, naming the first invalid job, before any
/// job runs: a bad shape would otherwise read and write out of bounds on
/// worker threads, where no assert of a Release build catches it.
void validate_all(const std::vector<BatchJob>& jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobError e = validate(jobs[i]);
    if (e != JobError::None)
      throw std::invalid_argument("batched_run: job " + std::to_string(i) +
                                  ": " + job_error_message(e));
  }
}

}  // namespace

BatchRunResult batched_run(std::vector<BatchJob>& jobs,
                           sched::Session& session, BatchMode mode) {
  validate_all(jobs);
  return mode == BatchMode::Fused ? run_fused(jobs, session)
                                  : run_sequential(jobs, session);
}

BatchRunResult batched_run(std::vector<BatchJob>& jobs, BatchMode mode) {
  validate_all(jobs);  // before the ephemeral session spawns its team
  sched::Session ephemeral(session_options_from(
      jobs.empty() ? Options{} : jobs.front().options));
  return batched_run(jobs, ephemeral, mode);
}

}  // namespace calu::core
