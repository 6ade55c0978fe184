// batch_test.cpp — the session / batched-multi-solve contract.
//
// The solver-service layer promises two things (ISSUE 5 acceptance):
//  1. Bit-identity: N jobs run back-to-back through one persistent
//     sched::Session produce exactly the factors, pivots, and solutions
//     of N one-shot calls — across every registered engine and both
//     pack_panels modes (the engine-matrix style, extended to sessions).
//  2. Amortization: threads are spawned once per session, asserted by
//     counting ThreadTeam constructions (never by timing).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/batch.h"
#include "src/core/calu.h"
#include "src/core/calu_dag.h"
#include "src/core/cholesky.h"
#include "src/core/incpiv.h"
#include "src/core/solve.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/sched/engine_registry.h"
#include "src/sched/session.h"
#include "src/sched/thread_team.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Options;
using layout::Matrix;

Options batch_options(const std::string& engine, bool pack) {
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pack_panels = pack;
  o.pin_threads = false;
  o.engine = engine;
  // Pin the grid: the TSLU tournament shape follows the grid, and the
  // bit-identity under test is session-vs-one-shot, not grid choice.
  o.pr = 2;
  o.pc = 2;
  return o;
}

/// Mixed-size job set: two squares, one tall-skinny (edge tiles included).
std::vector<Matrix> mixed_jobs(std::uint64_t seed) {
  std::vector<Matrix> jobs;
  jobs.push_back(Matrix::random(96, 96, seed));
  jobs.push_back(Matrix::random(64, 64, seed + 1));
  jobs.push_back(Matrix::random(120, 56, seed + 2));
  return jobs;
}

// -------------------------------------------------------- bit-identity ---

/// Builds the BatchJob vector for a set of in-place factor jobs.
std::vector<core::BatchJob> factor_jobs(std::vector<Matrix>& ms,
                                        const Options& opt) {
  std::vector<core::BatchJob> jobs(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    jobs[i].a = &ms[i];
    jobs[i].options = opt;
  }
  return jobs;
}

/// Builds the BatchJob vector for a set of factor + solve jobs (gesv
/// semantics: as[i] is left untouched).
std::vector<core::BatchJob> solve_jobs(std::vector<Matrix>& as,
                                       const std::vector<Matrix>& bs,
                                       const Options& opt) {
  std::vector<core::BatchJob> jobs(as.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    jobs[i].a = &as[i];
    jobs[i].rhs = &bs[i];
    jobs[i].options = opt;
  }
  return jobs;
}

TEST(BatchedFactor, BitIdenticalToOneShotAcrossEnginesAndPackModes) {
  for (const std::string& engine : sched::engine_names())
    for (bool pack : {true, false}) {
      SCOPED_TRACE(engine + " pack=" + std::to_string(pack));
      const Options opt = batch_options(engine, pack);

      std::vector<Matrix> ref = mixed_jobs(1201);
      std::vector<core::Factorization> ref_f;
      for (Matrix& a : ref) ref_f.push_back(core::getrf(a, opt));

      std::vector<Matrix> batch = mixed_jobs(1201);
      std::vector<core::BatchJob> jobs = factor_jobs(batch, opt);
      sched::Session session(sched::SessionOptions{4, false});
      core::BatchRunResult res =
          core::batched_run(jobs, session, core::BatchMode::Sequential);

      ASSERT_EQ(res.jobs.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(res.jobs[i].factorization.ipiv, ref_f[i].ipiv);
        EXPECT_EQ(test::max_abs_diff(batch[i], ref[i]), 0.0);
      }
      EXPECT_EQ(res.stats.dag_runs, ref.size());
    }
}

TEST(BatchedGesv, BitIdenticalToOneShotAcrossEngines) {
  std::vector<Matrix> as;
  as.push_back(Matrix::random(96, 96, 1301));
  as.push_back(Matrix::random(48, 48, 1302));
  as.push_back(Matrix::random(112, 112, 1303));
  std::vector<Matrix> bs;
  bs.push_back(Matrix::random(96, 2, 1304));
  bs.push_back(Matrix::random(48, 1, 1305));
  bs.push_back(Matrix::random(112, 3, 1306));

  for (const std::string& engine : sched::engine_names()) {
    SCOPED_TRACE(engine);
    const Options opt = batch_options(engine, true);

    std::vector<core::SolveResult> ref;
    for (std::size_t i = 0; i < as.size(); ++i)
      ref.push_back(core::gesv(as[i], bs[i], opt));

    std::vector<core::BatchJob> jobs = solve_jobs(as, bs, opt);
    sched::Session session(sched::SessionOptions{4, false});
    core::BatchRunResult res =
        core::batched_run(jobs, session, core::BatchMode::Sequential);

    ASSERT_EQ(res.jobs.size(), as.size());
    for (std::size_t i = 0; i < as.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      EXPECT_EQ(test::max_abs_diff(res.jobs[i].x, ref[i].x), 0.0);
      EXPECT_EQ(res.jobs[i].refine_steps, ref[i].refine_steps);
      EXPECT_LT(res.jobs[i].residual, 1e-13);
    }
  }
}

TEST(Session, CholeskyBitIdenticalToOneShot) {
  const Options opt = batch_options("hybrid", true);
  Matrix a0 = core::spd_matrix(112, 1401);

  Matrix l_ref = a0;
  core::potrf(l_ref, opt);

  sched::Session session(sched::SessionOptions{4, false});
  Matrix l1 = a0, l2 = a0;
  core::potrf(l1, opt, session);
  core::potrf(l2, opt, session);  // second run on the same warm team
  EXPECT_EQ(test::max_abs_diff(l1, l_ref), 0.0);
  EXPECT_EQ(test::max_abs_diff(l2, l_ref), 0.0);
  EXPECT_EQ(session.runs(), 2u);
}

TEST(Session, IncpivBitIdenticalToOneShot) {
  const int n = 96, b = 16;
  const Options opt = batch_options("hybrid", true);
  const Matrix a0 = Matrix::random(n, n, 1501);
  const Matrix rhs0 = Matrix::random(n, 2, 1502);

  layout::PackedMatrix p_ref = layout::PackedMatrix::pack(
      a0, layout::Layout::TwoLevelBlock, b, layout::Grid{2, 2});
  sched::Session session_ref(sched::SessionOptions{4, false});
  core::IncpivFactor f_ref = core::getrf_incpiv(p_ref, opt, session_ref);
  Matrix x_ref = rhs0;
  f_ref.solve(x_ref);

  layout::PackedMatrix p = layout::PackedMatrix::pack(
      a0, layout::Layout::TwoLevelBlock, b, layout::Grid{2, 2});
  sched::Session session(sched::SessionOptions{4, false});
  core::IncpivFactor f = core::getrf_incpiv(p, opt, session);
  Matrix x = rhs0;
  f.solve(x);

  Matrix lu_ref(n, n), lu(n, n);
  p_ref.unpack(lu_ref);
  p.unpack(lu);
  EXPECT_EQ(test::max_abs_diff(lu, lu_ref), 0.0);
  EXPECT_EQ(test::max_abs_diff(x, x_ref), 0.0);
}

// --------------------------------------------------- spawn accounting ---

TEST(Session, ThreadsSpawnOncePerSession) {
  std::vector<Matrix> as;
  as.push_back(Matrix::random(64, 64, 1601));
  as.push_back(Matrix::random(80, 80, 1602));
  as.push_back(Matrix::random(48, 48, 1603));
  std::vector<Matrix> bs;
  bs.push_back(Matrix::random(64, 1, 1604));
  bs.push_back(Matrix::random(80, 1, 1605));
  bs.push_back(Matrix::random(48, 1, 1606));
  const Options opt = batch_options("hybrid", true);

  // Batched on one session: exactly one team construction (the session's),
  // exactly threads-1 worker spawns, no matter how many jobs run.
  const std::uint64_t teams0 = sched::ThreadTeam::teams_constructed();
  const std::uint64_t workers0 = sched::ThreadTeam::workers_spawned();
  {
    std::vector<core::BatchJob> jobs = solve_jobs(as, bs, opt);
    sched::Session session(sched::SessionOptions{4, false});
    core::BatchRunResult res =
        core::batched_run(jobs, session, core::BatchMode::Sequential);
    EXPECT_EQ(res.jobs.size(), 3u);
    EXPECT_EQ(session.runs(), 3u);
  }
  EXPECT_EQ(sched::ThreadTeam::teams_constructed(), teams0 + 1);
  EXPECT_EQ(sched::ThreadTeam::workers_spawned(), workers0 + 3);

  // One-shot calls pay the spawn per job: one team construction each.
  const std::uint64_t teams1 = sched::ThreadTeam::teams_constructed();
  for (std::size_t i = 0; i < as.size(); ++i)
    core::gesv(as[i], bs[i], opt);
  EXPECT_EQ(sched::ThreadTeam::teams_constructed(),
            teams1 + static_cast<std::uint64_t>(as.size()));
}

// ------------------------------------------------------ session state ---

TEST(Session, EngineInstancesAreCachedByName) {
  sched::Session session(sched::SessionOptions{1, false});
  sched::Engine& e1 = session.engine("work-stealing");
  sched::Engine& e2 = session.engine("work-stealing");
  EXPECT_EQ(&e1, &e2);
  EXPECT_EQ(e1.name(), "work-stealing");
  // Unknown names degrade to hybrid (make_engine_or_default semantics),
  // and the fallback instance is cached under the requested name.
  sched::Engine& u1 = session.engine("batch-test-unknown-engine");
  sched::Engine& u2 = session.engine("batch-test-unknown-engine");
  EXPECT_EQ(&u1, &u2);
  EXPECT_EQ(u1.name(), "hybrid");
}

TEST(Session, TotalsAccumulateAcrossRuns) {
  sched::Session session(sched::SessionOptions{4, false});
  const Options opt = batch_options("hybrid", true);
  std::uint64_t tasks = 0;
  for (std::uint64_t r = 1; r <= 3; ++r) {
    Matrix a = Matrix::random(64, 64, 1800 + r);
    core::Factorization f = core::getrf(a, opt, session);
    tasks += static_cast<std::uint64_t>(f.stats.tasks);
    EXPECT_EQ(session.runs(), r);
  }
  const sched::EngineStats& tot = session.totals();
  // Every task of every DAG was served exactly once, from some queue.
  EXPECT_EQ(tot.static_pops + tot.dynamic_pops + tot.steals, tasks);
}

TEST(Session, MixedWorkloadSharesOneTeam) {
  // CALU + Cholesky + incpiv back-to-back on the same session: the
  // whole mixed workload runs on one team and the DAG-run counter sees
  // all three.
  const std::uint64_t teams0 = sched::ThreadTeam::teams_constructed();
  sched::Session session(sched::SessionOptions{4, false});
  const Options opt = batch_options("hybrid", true);

  Matrix a = Matrix::random(96, 96, 1901);
  core::getrf(a, opt, session);

  Matrix spd = core::spd_matrix(64, 1902);
  core::potrf(spd, opt, session);

  const Matrix a0 = Matrix::random(64, 64, 1903);
  layout::PackedMatrix p = layout::PackedMatrix::pack(
      a0, layout::Layout::TwoLevelBlock, 16, layout::Grid{2, 2});
  core::getrf_incpiv(p, opt, session);

  EXPECT_EQ(session.runs(), 3u);
  EXPECT_EQ(sched::ThreadTeam::teams_constructed(), teams0 + 1);
}

// ------------------------------------------------------- fused batches ---

// The tentpole acceptance matrix: a fused submission (one engine run for
// the whole batch) must produce exactly the factors and pivots of the
// sequential mode, for every registered engine and both pack modes, on
// mixed sizes including a tall-skinny edge-tile job.
TEST(BatchedRun, FusedBitIdenticalToSequentialAcrossEnginesAndPackModes) {
  for (const std::string& engine : sched::engine_names())
    for (bool pack : {true, false}) {
      SCOPED_TRACE(engine + " pack=" + std::to_string(pack));
      const Options opt = batch_options(engine, pack);

      std::vector<Matrix> seq_ms = mixed_jobs(2101);
      std::vector<core::BatchJob> seq_jobs = factor_jobs(seq_ms, opt);
      sched::Session seq_session(sched::SessionOptions{4, false});
      core::BatchRunResult seq = core::batched_run(
          seq_jobs, seq_session, core::BatchMode::Sequential);

      std::vector<Matrix> fus_ms = mixed_jobs(2101);
      std::vector<core::BatchJob> fus_jobs = factor_jobs(fus_ms, opt);
      sched::Session fus_session(sched::SessionOptions{4, false});
      core::BatchRunResult fus =
          core::batched_run(fus_jobs, fus_session, core::BatchMode::Fused);

      EXPECT_EQ(seq.stats.dag_runs, seq_ms.size());
      EXPECT_EQ(fus.stats.dag_runs, 1u);  // the whole batch, one engine run
      ASSERT_EQ(fus.jobs.size(), seq.jobs.size());
      for (std::size_t i = 0; i < seq_ms.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_EQ(fus.jobs[i].factorization.ipiv,
                  seq.jobs[i].factorization.ipiv);
        EXPECT_EQ(test::max_abs_diff(fus_ms[i], seq_ms[i]), 0.0);
        // Per-job attribution split out of the fused run covers every task
        // of a tile-level job, and is the one task of a whole job.
        const auto& eng = fus.jobs[i].factorization.stats.engine;
        EXPECT_EQ(eng.static_pops + eng.dynamic_pops,
                  fus.jobs[i].whole_job
                      ? 1u
                      : static_cast<std::uint64_t>(
                            fus.jobs[i].factorization.stats.tasks));
      }
    }
}

TEST(BatchedRun, FusedGesvJobsMatchSequentialAndLeaveInputsUntouched) {
  std::vector<Matrix> as;
  as.push_back(Matrix::random(96, 96, 2201));
  as.push_back(Matrix::random(48, 48, 2202));
  as.push_back(Matrix::random(112, 112, 2203));
  std::vector<Matrix> bs;
  bs.push_back(Matrix::random(96, 2, 2204));
  bs.push_back(Matrix::random(48, 1, 2205));
  bs.push_back(Matrix::random(112, 3, 2206));
  const std::vector<Matrix> as0 = as;  // inputs must come back untouched

  for (const std::string& engine : sched::engine_names()) {
    SCOPED_TRACE(engine);
    auto make_jobs = [&] {
      std::vector<core::BatchJob> jobs(as.size());
      for (std::size_t i = 0; i < as.size(); ++i) {
        jobs[i].a = &as[i];
        jobs[i].rhs = &bs[i];
        jobs[i].options = batch_options(engine, true);
      }
      // Options are per job: the middle job skips refinement entirely.
      jobs[1].options.max_refine = 0;
      return jobs;
    };

    std::vector<core::BatchJob> seq_jobs = make_jobs();
    sched::Session seq_session(sched::SessionOptions{4, false});
    core::BatchRunResult seq = core::batched_run(
        seq_jobs, seq_session, core::BatchMode::Sequential);

    std::vector<core::BatchJob> fus_jobs = make_jobs();
    sched::Session fus_session(sched::SessionOptions{4, false});
    core::BatchRunResult fus =
        core::batched_run(fus_jobs, fus_session, core::BatchMode::Fused);

    ASSERT_EQ(fus.jobs.size(), seq.jobs.size());
    for (std::size_t i = 0; i < as.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      EXPECT_EQ(test::max_abs_diff(fus.jobs[i].x, seq.jobs[i].x), 0.0);
      EXPECT_EQ(fus.jobs[i].refine_steps, seq.jobs[i].refine_steps);
      EXPECT_EQ(fus.jobs[i].factorization.ipiv,
                seq.jobs[i].factorization.ipiv);
      EXPECT_EQ(test::max_abs_diff(as[i], as0[i]), 0.0);
    }
    EXPECT_EQ(seq.jobs[1].refine_steps, 0);  // max_refine=0 respected
  }
}

TEST(BatchedRun, FusedAboveTeamFloorMatchesSequentialBitForBit) {
  // One job above core::team_share()'s floor (its unpack and residual run
  // on the team) fused with small ones that stay on the caller.  Fused
  // must match Sequential (per-job gesv) bit for bit, leave every A and b
  // untouched, and the factor-only job must match in-place getrf.
  std::vector<Matrix> as;
  as.push_back(Matrix::random(600, 600, 2251));
  as.push_back(Matrix::random(72, 72, 2252));
  std::vector<Matrix> bs;
  bs.push_back(Matrix::random(600, 3, 2253));
  bs.push_back(Matrix::random(72, 1, 2254));
  const Matrix factor_only = Matrix::random(530, 530, 2255);
  const std::vector<Matrix> as0 = as, bs0 = bs;

  auto make_jobs = [&](Matrix& fo) {
    std::vector<core::BatchJob> jobs(3);
    for (std::size_t i = 0; i < 2; ++i) {
      jobs[i].a = &as[i];
      jobs[i].rhs = &bs[i];
      jobs[i].options = batch_options("hybrid", true);
      jobs[i].options.b = 48;
    }
    jobs[2].a = &fo;
    jobs[2].options = batch_options("hybrid", true);
    jobs[2].options.b = 48;
    return jobs;
  };

  Matrix seq_fo = factor_only, fus_fo = factor_only;
  std::vector<core::BatchJob> seq_jobs = make_jobs(seq_fo);
  sched::Session seq_session(sched::SessionOptions{4, false});
  core::BatchRunResult seq =
      core::batched_run(seq_jobs, seq_session, core::BatchMode::Sequential);

  std::vector<core::BatchJob> fus_jobs = make_jobs(fus_fo);
  sched::Session fus_session(sched::SessionOptions{4, false});
  core::BatchRunResult fus =
      core::batched_run(fus_jobs, fus_session, core::BatchMode::Fused);

  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_TRUE(test::same_bits(fus.jobs[i].x, seq.jobs[i].x));
    EXPECT_EQ(fus.jobs[i].refine_steps, seq.jobs[i].refine_steps);
    EXPECT_EQ(fus.jobs[i].factorization.ipiv,
              seq.jobs[i].factorization.ipiv);
    EXPECT_LT(fus.jobs[i].residual, 1e-13);
    EXPECT_TRUE(test::same_bits(as[i], as0[i]));
    EXPECT_TRUE(test::same_bits(bs[i], bs0[i]));
  }
  EXPECT_TRUE(test::same_bits(fus_fo, seq_fo));
  EXPECT_EQ(fus.jobs[2].factorization.ipiv, seq.jobs[2].factorization.ipiv);
}

TEST(BatchedRun, FusedRunCarriesMixedPrecisionJobs) {
  // One fused engine run interleaving a double job, a float32 solve job
  // (full gesv_mixed epilogue), and a float32 factor-only job.  The mixed
  // solve must land at double accuracy without fallback; fused and
  // sequential must agree bit-for-bit, precision stamps included.
  std::vector<Matrix> as;
  as.push_back(Matrix::random(96, 96, 2301));
  as.push_back(Matrix::random(64, 64, 2302));
  std::vector<Matrix> bs;
  bs.push_back(Matrix::random(96, 1, 2303));
  bs.push_back(Matrix::random(64, 2, 2304));
  Matrix factor_only = Matrix::random(80, 80, 2305);

  auto make_jobs = [&](std::vector<Matrix>& fo) {
    std::vector<core::BatchJob> jobs(3);
    jobs[0].a = &as[0];
    jobs[0].rhs = &bs[0];
    jobs[0].options = batch_options("hybrid", true);
    jobs[1].a = &as[1];
    jobs[1].rhs = &bs[1];
    jobs[1].options = batch_options("hybrid", true);
    jobs[1].options.precision = core::Precision::Float32;
    jobs[1].options.max_refine = 8;
    jobs[2].a = &fo[0];
    jobs[2].options = batch_options("hybrid", true);
    jobs[2].options.precision = core::Precision::Float32;
    return jobs;
  };

  std::vector<Matrix> seq_fo{factor_only}, fus_fo{factor_only};
  std::vector<core::BatchJob> seq_jobs = make_jobs(seq_fo);
  sched::Session seq_session(sched::SessionOptions{4, false});
  core::BatchRunResult seq =
      core::batched_run(seq_jobs, seq_session, core::BatchMode::Sequential);

  std::vector<core::BatchJob> fus_jobs = make_jobs(fus_fo);
  sched::Session fus_session(sched::SessionOptions{4, false});
  core::BatchRunResult fus =
      core::batched_run(fus_jobs, fus_session, core::BatchMode::Fused);

  for (core::BatchRunResult* r : {&seq, &fus}) {
    EXPECT_EQ(r->jobs[0].factorization.stats.precision,
              core::Precision::Double);
    EXPECT_EQ(r->jobs[1].factorization.stats.precision,
              core::Precision::Float32);
    EXPECT_EQ(r->jobs[2].factorization.stats.precision,
              core::Precision::Float32);
    EXPECT_LT(r->jobs[0].residual, 1e-13);
    EXPECT_LT(r->jobs[1].residual, 1e-13);  // refined to double accuracy
    EXPECT_FALSE(r->jobs[1].used_fallback);
    EXPECT_GE(r->jobs[1].refine_steps, 1);
  }
  EXPECT_EQ(test::max_abs_diff(fus.jobs[0].x, seq.jobs[0].x), 0.0);
  EXPECT_EQ(test::max_abs_diff(fus.jobs[1].x, seq.jobs[1].x), 0.0);
  EXPECT_EQ(fus.jobs[1].refine_steps, seq.jobs[1].refine_steps);
  // Factor-only float job: same float-accuracy factors either way.
  EXPECT_EQ(test::max_abs_diff(seq_fo[0], fus_fo[0]), 0.0);
  EXPECT_EQ(fus.jobs[2].factorization.ipiv, seq.jobs[2].factorization.ipiv);
}

// One fused call that mixes the job grains: the double jobs below the
// team_share() floor (rhs and factor-only) run whole, pack, DAG and
// epilogue on one team thread each; the Float32 job and the job above
// the floor keep the tile-level DAG and run their epilogue from the
// caller.  Every job must reproduce its Sequential result bit for bit.
TEST(BatchedRun, FusedEpiloguePathsMatchSequentialBitForBit) {
  std::vector<Matrix> as;
  as.push_back(Matrix::random(96, 96, 2271));
  as.push_back(Matrix::random(530, 530, 2272));  // above the floor
  as.push_back(Matrix::random(72, 72, 2273));
  as.push_back(Matrix::random(64, 64, 2274));    // float32
  std::vector<Matrix> bs;
  bs.push_back(Matrix::random(96, 2, 2275));
  bs.push_back(Matrix::random(530, 1, 2276));
  bs.push_back(Matrix::random(72, 1, 2277));
  bs.push_back(Matrix::random(64, 1, 2278));
  const std::vector<Matrix> factor_only = {Matrix::random(80, 80, 2279),
                                           Matrix::random(50, 50, 2280)};
  ASSERT_GT(core::team_share(sizeof(double) * 530 * 530, 4), 1);
  ASSERT_EQ(core::team_share(sizeof(double) * 96 * 96, 4), 1);

  auto make_jobs = [&](std::vector<Matrix>& fo) {
    std::vector<core::BatchJob> jobs(as.size() + fo.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].options = batch_options("hybrid", true);
      jobs[i].options.b = 48;
      if (i < as.size()) {
        jobs[i].a = &as[i];
        jobs[i].rhs = &bs[i];
      } else {
        jobs[i].a = &fo[i - as.size()];
      }
    }
    jobs[3].options.precision = core::Precision::Float32;
    jobs[3].options.max_refine = 8;
    return jobs;
  };

  std::vector<Matrix> seq_fo = factor_only, fus_fo = factor_only;
  std::vector<core::BatchJob> seq_jobs = make_jobs(seq_fo);
  sched::Session seq_session(sched::SessionOptions{4, false});
  core::BatchRunResult seq =
      core::batched_run(seq_jobs, seq_session, core::BatchMode::Sequential);

  std::vector<core::BatchJob> fus_jobs = make_jobs(fus_fo);
  sched::Session fus_session(sched::SessionOptions{4, false});
  core::BatchRunResult fus =
      core::batched_run(fus_jobs, fus_session, core::BatchMode::Fused);

  ASSERT_EQ(fus.jobs.size(), seq.jobs.size());
  for (std::size_t i = 0; i < fus.jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(fus.jobs[i].factorization.ipiv, seq.jobs[i].factorization.ipiv);
    EXPECT_EQ(fus.jobs[i].factorization.stats.precision,
              seq.jobs[i].factorization.stats.precision);
    if (i < as.size()) {
      EXPECT_TRUE(test::same_bits(fus.jobs[i].x, seq.jobs[i].x));
      EXPECT_TRUE(test::same_bits(fus.jobs[i].residual, seq.jobs[i].residual));
      EXPECT_EQ(fus.jobs[i].refine_steps, seq.jobs[i].refine_steps);
      EXPECT_EQ(fus.jobs[i].used_fallback, seq.jobs[i].used_fallback);
      EXPECT_LT(fus.jobs[i].residual, 1e-13);
    } else {
      EXPECT_TRUE(test::same_bits(fus_fo[i - as.size()],
                                  seq_fo[i - as.size()]));
    }
  }
}

// The first-touch pack of fused job j fills owner g on the thread that
// will run g's tasks after run_fused's rotation: (g + shift) % p.
TEST(BatchedRun, FusedPackPlacesOwnersOnTheRotatedThreads) {
  const int p = 4, nowners = 6;
  sched::ThreadTeam team(p, false);
  std::vector<std::thread::id> thread_of(p);
  team.run([&](int tid) { thread_of[tid] = std::this_thread::get_id(); });
  Options o = batch_options("hybrid", true);
  for (int job : {0, 1, 3, 6}) {
    SCOPED_TRACE("job " + std::to_string(job));
    const int shift = sched::fused_owner_shift(job, p);
    std::vector<std::thread::id> filled_by(nowners);
    core::owner_runner_from(o, team, shift)(
        nowners, [&](int g) { filled_by[g] = std::this_thread::get_id(); });
    for (int g = 0; g < nowners; ++g)
      EXPECT_EQ(filled_by[g], thread_of[(g + shift) % p]) << "owner " << g;
  }
}

TEST(BatchedRun, CompletionCallbacksFireOncePerJob) {
  const Options opt = batch_options("hybrid", true);

  // Fused: callbacks fire from worker threads as each job's DAG retires —
  // exactly once per job, and the recorded order must match the result's
  // completion_order (a permutation of the job indices).
  std::vector<Matrix> ms = mixed_jobs(2301);
  std::vector<core::BatchJob> jobs = factor_jobs(ms, opt);
  std::vector<std::atomic<int>> fired(jobs.size());
  for (auto& f : fired) f.store(0);
  std::vector<int> seen;
  std::mutex mu;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].on_complete = [&, i](int job) {
      EXPECT_EQ(job, static_cast<int>(i));
      fired[i].fetch_add(1);
      std::lock_guard<std::mutex> lk(mu);
      seen.push_back(job);
    };
  sched::Session session(sched::SessionOptions{4, false});
  core::BatchRunResult res =
      core::batched_run(jobs, session, core::BatchMode::Fused);
  for (auto& f : fired) EXPECT_EQ(f.load(), 1);
  EXPECT_EQ(seen, res.completion_order);
  std::vector<int> sorted = res.completion_order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
  for (const core::BatchJobResult& j : res.jobs)
    EXPECT_GT(j.completed_at, 0.0);

  // Sequential: caller thread, submission order.
  std::vector<Matrix> ms2 = mixed_jobs(2301);
  std::vector<core::BatchJob> jobs2 = factor_jobs(ms2, opt);
  std::vector<int> seq_seen;
  for (std::size_t i = 0; i < jobs2.size(); ++i)
    jobs2[i].on_complete = [&seq_seen](int job) { seq_seen.push_back(job); };
  core::BatchRunResult res2 =
      core::batched_run(jobs2, session, core::BatchMode::Sequential);
  EXPECT_EQ(seq_seen, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(res2.completion_order, seq_seen);
}

TEST(BatchedRun, FusedRejectsMixedEnginesSequentialAcceptsThem) {
  std::vector<Matrix> ms = mixed_jobs(2401);
  std::vector<core::BatchJob> jobs =
      factor_jobs(ms, batch_options("hybrid", true));
  jobs[1].options.engine = "work-stealing";

  sched::Session session(sched::SessionOptions{4, false});
  EXPECT_THROW(core::batched_run(jobs, session, core::BatchMode::Fused),
               std::invalid_argument);

  // Sequential mode runs each job on its own engine — no constraint.
  std::vector<Matrix> ref = mixed_jobs(2401);
  core::Factorization f0 = core::getrf(ref[1], jobs[1].options);
  core::BatchRunResult res =
      core::batched_run(jobs, session, core::BatchMode::Sequential);
  EXPECT_EQ(res.jobs[1].factorization.ipiv, f0.ipiv);
  EXPECT_EQ(test::max_abs_diff(ms[1], ref[1]), 0.0);
}

// ---------------------------------------------------------- whole jobs ---

/// A mixed batch of 2 x 4 small jobs (rhs and factor-only, one of them
/// non-square) plus one larger rhs job that stays tile-level: its flops
/// exceed the batch's share per thread on every team of 2 or more.
struct WholeBatch {
  std::vector<Matrix> as, bs;
  std::size_t nrhs = 0;  // as[0, nrhs) carry bs[i]; the rest factor only

  explicit WholeBatch(std::uint64_t seed) {
    for (int n : {96, 64, 48, 80, 72}) {
      as.push_back(Matrix::random(n, n, seed++));
      bs.push_back(Matrix::random(n, 2, seed++));
    }
    as.push_back(Matrix::random(240, 240, seed++));
    bs.push_back(Matrix::random(240, 1, seed++));
    nrhs = as.size();
    as.push_back(Matrix::random(88, 88, seed++));
    as.push_back(Matrix::random(56, 56, seed++));
    as.push_back(Matrix::random(100, 60, seed++));  // non-square factor job
  }

  std::vector<core::BatchJob> jobs(std::vector<Matrix>& ms,
                                   const Options& opt) const {
    std::vector<core::BatchJob> out(ms.size());
    for (std::size_t i = 0; i < ms.size(); ++i) {
      out[i].a = &ms[i];
      if (i < nrhs) out[i].rhs = &bs[i];
      out[i].options = opt;
    }
    return out;
  }
};

// The tentpole matrix for whole-job tasks: every engine x pack mode x
// team size 1-4 reproduces Sequential bit for bit, a whole job is one
// pop, and the batch is still one engine run.
TEST(BatchedRun, WholeJobsMatchSequentialAcrossEnginesPacksAndTeams) {
  const WholeBatch wb(2501);
  const std::size_t big = 5;  // the 240 x 240 job
  for (const std::string& engine : sched::engine_names())
    for (bool pack : {true, false}) {
      const Options opt = batch_options(engine, pack);
      std::vector<Matrix> seq_ms = wb.as;
      std::vector<core::BatchJob> seq_jobs = wb.jobs(seq_ms, opt);
      sched::Session seq_session(sched::SessionOptions{4, false});
      core::BatchRunResult seq = core::batched_run(
          seq_jobs, seq_session, core::BatchMode::Sequential);
      for (int team = 1; team <= 4; ++team) {
        SCOPED_TRACE(engine + " pack=" + std::to_string(pack) +
                     " team=" + std::to_string(team));
        std::vector<Matrix> ms = wb.as;
        std::vector<core::BatchJob> jobs = wb.jobs(ms, opt);
        ASSERT_GE(jobs.size(), 2u * team);
        sched::Session session(sched::SessionOptions{team, false});
        core::BatchRunResult fus =
            core::batched_run(jobs, session, core::BatchMode::Fused);
        EXPECT_EQ(fus.stats.dag_runs, 1u);
        int whole = 0;
        for (std::size_t i = 0; i < ms.size(); ++i) {
          SCOPED_TRACE("job " + std::to_string(i));
          const core::BatchJobResult& r = fus.jobs[i];
          EXPECT_EQ(r.factorization.ipiv, seq.jobs[i].factorization.ipiv);
          EXPECT_TRUE(test::same_bits(ms[i], seq_ms[i]));
          if (i < wb.nrhs) {
            EXPECT_TRUE(test::same_bits(r.x, seq.jobs[i].x));
            EXPECT_TRUE(test::same_bits(r.residual, seq.jobs[i].residual));
            EXPECT_EQ(r.refine_steps, seq.jobs[i].refine_steps);
          }
          const auto& eng = r.factorization.stats.engine;
          EXPECT_EQ(eng.static_pops + eng.dynamic_pops,
                    r.whole_job ? 1u
                                : static_cast<std::uint64_t>(
                                      r.factorization.stats.tasks));
          EXPECT_EQ(r.factorization.stats.tasks,
                    seq.jobs[i].factorization.stats.tasks);
          whole += r.whole_job ? 1 : 0;
        }
        // Every small job runs whole; the big one only on a lone thread.
        EXPECT_EQ(fus.jobs[big].whole_job, team == 1);
        EXPECT_EQ(whole, static_cast<int>(ms.size()) - (team == 1 ? 0 : 1));
      }
    }
}

// The rule's edges stay tile-level, every task popped on its own, and
// still match Sequential bit for bit: a lone job (it cannot share the
// team with other jobs), two equal rhs jobs (each above the per-thread
// share; their epilogues run job-parallel), and a Float32 job below the
// floor among whole double jobs.
TEST(BatchedRun, WholeJobRuleBoundariesStayTileLevel) {
  const Options opt = batch_options("hybrid", true);
  sched::Session session(sched::SessionOptions{4, false});
  const auto run_both = [&](std::vector<Matrix> as, std::vector<Matrix> bs,
                            int float32_job) {
    std::vector<Matrix> seq_as = as;
    std::vector<core::BatchRunResult> runs;
    for (std::vector<Matrix>* ms : {&seq_as, &as}) {
      std::vector<core::BatchJob> jobs = factor_jobs(*ms, opt);
      for (std::size_t i = 0; i < bs.size(); ++i) jobs[i].rhs = &bs[i];
      if (float32_job >= 0)
        jobs[std::size_t(float32_job)].options.precision =
            core::Precision::Float32;
      const core::BatchMode mode = ms == &seq_as
                                       ? core::BatchMode::Sequential
                                       : core::BatchMode::Fused;
      runs.push_back(core::batched_run(jobs, session, mode));
    }
    for (std::size_t i = 0; i < as.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      EXPECT_TRUE(test::same_bits(as[i], seq_as[i]));
      EXPECT_EQ(runs[1].jobs[i].factorization.ipiv,
                runs[0].jobs[i].factorization.ipiv);
      if (i < bs.size()) {
        EXPECT_TRUE(test::same_bits(runs[1].jobs[i].x, runs[0].jobs[i].x));
      }
    }
    return runs[1];
  };
  const auto expect_tile_level = [](const core::BatchJobResult& r) {
    EXPECT_FALSE(r.whole_job);
    const auto& eng = r.factorization.stats.engine;
    EXPECT_EQ(eng.static_pops + eng.dynamic_pops,
              static_cast<std::uint64_t>(r.factorization.stats.tasks));
  };
  {
    SCOPED_TRACE("lone n=256");
    ASSERT_EQ(core::team_share(sizeof(double) * 256 * 256, 4), 1);
    expect_tile_level(
        run_both({Matrix::random(256, 256, 2601)}, {}, -1).jobs[0]);
  }
  {
    SCOPED_TRACE("two equal rhs jobs");
    core::BatchRunResult r = run_both(
        {Matrix::random(64, 64, 2602), Matrix::random(64, 64, 2603)},
        {Matrix::random(64, 1, 2604), Matrix::random(64, 2, 2605)}, -1);
    for (const core::BatchJobResult& j : r.jobs) expect_tile_level(j);
  }
  {
    SCOPED_TRACE("Float32 below the floor");
    std::vector<Matrix> ms;
    for (int i = 0; i < 8; ++i)
      ms.push_back(Matrix::random(64, 64, 2610 + std::uint64_t(i)));
    core::BatchRunResult r = run_both(ms, {}, 3);
    for (std::size_t i = 0; i < ms.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      if (i == 3)
        expect_tile_level(r.jobs[i]);
      else
        EXPECT_TRUE(r.jobs[i].whole_job);
    }
  }
}

// A whole job's callback fires once, after its result is ready: the
// in-place factors are already the Sequential ones when it runs.
TEST(BatchedRun, WholeJobCallbacksFireOnceWithTheResultReady) {
  const WholeBatch wb(2701);
  const Options opt = batch_options("hybrid", true);
  std::vector<Matrix> seq_ms = wb.as;
  std::vector<core::BatchJob> seq_jobs = wb.jobs(seq_ms, opt);
  sched::Session session(sched::SessionOptions{4, false});
  core::batched_run(seq_jobs, session, core::BatchMode::Sequential);

  std::vector<Matrix> ms = wb.as;
  std::vector<core::BatchJob> jobs = wb.jobs(ms, opt);
  std::vector<std::atomic<int>> fired(jobs.size());
  std::vector<std::atomic<bool>> ready(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    fired[i].store(0);
    ready[i].store(false);
    jobs[i].on_complete = [&, i](int job) {
      EXPECT_EQ(job, static_cast<int>(i));
      fired[i].fetch_add(1);
      // Factor-only jobs overwrite their A: it must already hold the
      // factors here.  rhs jobs leave A untouched either way.
      ready[i].store(test::same_bits(ms[i], seq_ms[i]));
    };
  }
  core::BatchRunResult res =
      core::batched_run(jobs, session, core::BatchMode::Fused);
  std::vector<int> sorted = res.completion_order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> all(jobs.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  EXPECT_EQ(sorted, all);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(fired[i].load(), 1);
    if (res.jobs[i].whole_job) {
      EXPECT_TRUE(ready[i].load());
    }
    EXPECT_GT(res.jobs[i].completed_at, 0.0);
  }
}

// Whole jobs run their CALU tasks in id order, which needs every edge to
// point from a lower id to a higher one.
TEST(CaluPlan, TaskIdsAreATopologicalOrder) {
  for (layout::Layout lay :
       {layout::Layout::ColumnMajor, layout::Layout::BlockCyclic,
        layout::Layout::TwoLevelBlock})
    for (double dratio : {0.0, 0.1, 1.0})
      for (bool pack : {true, false})
        for (layout::Grid g : {layout::Grid{1, 1}, layout::Grid{2, 2},
                               layout::Grid{1, 3}, layout::Grid{3, 1}})
          for (layout::Tiling t : {layout::Tiling{96, 96, 16},
                                   layout::Tiling{130, 70, 32},
                                   layout::Tiling{50, 120, 16}}) {
            SCOPED_TRACE(std::string(layout::layout_name(lay)) +
                         " d=" + std::to_string(dratio) +
                         " pack=" + std::to_string(pack) + " grid=" +
                         std::to_string(g.pr) + "x" + std::to_string(g.pc) +
                         " m=" + std::to_string(t.m));
            const core::CaluPlan plan =
                core::build_plan(t, g, lay, dratio, 3, pack);
            const sched::TaskGraph& dag = plan.graph;
            EXPECT_TRUE(dag.id_ordered());
            for (int id = 0; id < dag.num_tasks(); ++id)
              for (int s : dag.successors(id)) ASSERT_GT(s, id);
          }
}

// ---------------------------------------------------- input validation ---

// A 64 x 64 A with a 32-row rhs used to corrupt the heap in Release
// builds.  Both modes now refuse the whole batch before any job runs.
TEST(BatchedRun, RejectsInvalidJobsBeforeAnyWork) {
  Matrix a = Matrix::random(64, 64, 2801);
  const Matrix short_rhs = Matrix::random(32, 1, 2802);
  const Matrix ok = Matrix::random(48, 48, 2803);
  Options opt = batch_options("hybrid", true);
  opt.b = 32;

  core::BatchJob probe{&a, &short_rhs, opt, {}};
  EXPECT_EQ(core::validate(probe), core::JobError::RhsRows);
  core::BatchJob null_a{nullptr, nullptr, opt, {}};
  EXPECT_EQ(core::validate(null_a), core::JobError::NullMatrix);
  Matrix wide = Matrix::random(32, 64, 2804);
  const Matrix rhs32 = Matrix::random(32, 1, 2805);
  core::BatchJob wide_rhs{&wide, &rhs32, opt, {}};
  EXPECT_EQ(core::validate(wide_rhs), core::JobError::RhsNotSquare);
  core::BatchJob wide_factor{&wide, nullptr, opt, {}};
  EXPECT_EQ(core::validate(wide_factor), core::JobError::None);
  core::BatchJob no_tile = wide_factor;
  no_tile.options.b = 0;
  EXPECT_EQ(core::validate(no_tile), core::JobError::TileSize);

  sched::Session session(sched::SessionOptions{4, false});
  for (core::BatchMode mode :
       {core::BatchMode::Fused, core::BatchMode::Sequential})
    for (const core::BatchJob& bad : {probe, null_a, wide_rhs, no_tile}) {
      // A valid job ahead of the bad one must not have run either.
      Matrix first = ok;
      int callbacks = 0;
      std::vector<core::BatchJob> jobs(2);
      jobs[0].a = &first;
      jobs[0].options = opt;
      jobs[0].on_complete = [&callbacks](int) { ++callbacks; };
      jobs[1] = bad;
      try {
        core::batched_run(jobs, session, mode);
        ADD_FAILURE() << "invalid batch accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("job 1"), std::string::npos)
            << e.what();
      }
      EXPECT_TRUE(test::same_bits(first, ok));
      EXPECT_EQ(callbacks, 0);
    }
  EXPECT_EQ(session.runs(), 0u);
  std::vector<core::BatchJob> one{probe};
  EXPECT_THROW(core::batched_run(one), std::invalid_argument);
}

TEST(BatchedRun, EmptyBatchIsANoOp) {
  sched::Session session(sched::SessionOptions{2, false});
  std::vector<core::BatchJob> jobs;
  core::BatchRunResult res =
      core::batched_run(jobs, session, core::BatchMode::Fused);
  EXPECT_TRUE(res.jobs.empty());
  EXPECT_TRUE(res.completion_order.empty());
  EXPECT_EQ(res.stats.dag_runs, 0u);
  EXPECT_EQ(session.runs(), 0u);
}

}  // namespace
}  // namespace calu
