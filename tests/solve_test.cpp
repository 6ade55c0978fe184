// solve_test.cpp — getrs, residual metric, gesv with refinement, and the
// zero-copy gesv data flow's bit-identity contracts (no copy of A,
// owner-parallel unpack, team-split one-pass residual).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/blas/blas.h"
#include "src/core/batch.h"
#include "src/core/calu.h"
#include "src/core/solve.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/sched/session.h"
#include "src/sched/thread_team.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Options;
using layout::Matrix;

Options small_opts(int max_refine = 2) {
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  o.max_refine = max_refine;
  return o;
}

TEST(Getrs, RecoversKnownSolution) {
  const int n = 64;
  Matrix a = Matrix::random(n, n, 301);
  Matrix x_true = Matrix::random(n, 4, 302);
  Matrix b(n, 4);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, 4, n, 1.0, a.data(), a.ld(),
             x_true.data(), x_true.ld(), 0.0, b.data(), b.ld());
  auto f = core::getrf(a, small_opts());  // a := [L\U]
  core::getrs(a, f.ipiv, b);
  EXPECT_LT(test::max_abs_diff(b, x_true), 1e-9);
}

TEST(Getrs, IdentityIsNoOp) {
  const int n = 32;
  Matrix a = Matrix::identity(n);
  Matrix b = Matrix::random(n, 2, 303);
  Matrix b0 = b;
  auto f = core::getrf(a, small_opts());
  core::getrs(a, f.ipiv, b);
  EXPECT_LT(test::max_abs_diff(b, b0), 1e-14);
}

TEST(SolveResidual, ZeroForExactSolution) {
  const int n = 16;
  Matrix a = Matrix::identity(n);
  Matrix x = Matrix::random(n, 1, 304);
  Matrix b = x;
  EXPECT_LT(core::solve_residual(a, x, b), 1e-16);
}

TEST(SolveResidual, LargeForWrongSolution) {
  const int n = 16;
  Matrix a = Matrix::diag_dominant(n, 305);
  Matrix x = Matrix::random(n, 1, 306);
  Matrix b(n, 1);  // zeros: Ax != b
  EXPECT_GT(core::solve_residual(a, x, b), 0.1);
}

TEST(Gesv, ResidualTinyAndRefinementConverges) {
  const int n = 120;
  Matrix a = Matrix::random(n, n, 307);
  Matrix b = Matrix::random(n, 2, 308);
  auto res = core::gesv(a, b, small_opts(3));
  EXPECT_LT(res.residual, 1e-14);
  EXPECT_LE(res.refine_steps, 3);
}

TEST(Gesv, MultipleRightHandSides) {
  const int n = 80, nrhs = 7;
  Matrix a = Matrix::random(n, n, 309);
  Matrix x_true = Matrix::random(n, nrhs, 310);
  Matrix b(n, nrhs);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, nrhs, n, 1.0, a.data(),
             a.ld(), x_true.data(), x_true.ld(), 0.0, b.data(), b.ld());
  auto res = core::gesv(a, b, small_opts());
  EXPECT_LT(test::max_abs_diff(res.x, x_true), 1e-8);
}

TEST(Gesv, IllConditionedStillBackwardStable) {
  // Hilbert-like: terrible forward error, but the *residual* must stay at
  // machine level (backward stability of GEPP-class pivoting).
  const int n = 24;
  Matrix a(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) a(i, j) = 1.0 / (1.0 + i + j);
  Matrix b = Matrix::random(n, 1, 311);
  auto res = core::gesv(a, b, small_opts(5));
  EXPECT_LT(res.residual, 1e-10);
}

TEST(Gesv, ZeroRhsGivesExactZeroWithoutRefinement) {
  // b = 0 ⇒ x = 0 exactly (swaps and triangular solves of zeros stay
  // zero), the residual is 0/0-guarded to 0, and refinement never runs.
  const int n = 48;
  Matrix a = Matrix::random(n, n, 314);
  Matrix b(n, 2);  // zeros
  auto res = core::gesv(a, b, small_opts(3));
  EXPECT_EQ(res.refine_steps, 0);
  EXPECT_EQ(res.residual, 0.0);
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < n; ++i) EXPECT_EQ(res.x(i, j), 0.0);
}

TEST(Gesv, MaxRefineZeroSkipsRefinementButStillSolves) {
  const int n = 96;
  Matrix a = Matrix::random(n, n, 315);
  Matrix b = Matrix::random(n, 1, 316);
  auto res = core::gesv(a, b, small_opts(/*max_refine=*/0));
  EXPECT_EQ(res.refine_steps, 0);
  EXPECT_LT(res.residual, 1e-12);  // GEPP-class accuracy without refinement
}

TEST(Gesv, SingularPivotDoesNotCrashOrClaimConvergence) {
  // All columns equal: after the first elimination step the trailing
  // matrix is exactly zero (subtraction of equal values is exact), so
  // the factorization hits exact zero pivots and the triangular solve
  // divides by zero, poisoning x with inf/NaN.  The contract is
  // IEEE-graceful degradation: no crash, no hang, refinement runs to its
  // cap, and the reported residual is NaN — never a tiny value claiming
  // convergence (max-based norms skip NaN compares, which used to make
  // exactly this case report residual 0).
  const int n = 48;
  Matrix a(n, n);
  const Matrix v = Matrix::random(n, 1, 317);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) a(i, j) = v(i, 0);
  Matrix b = Matrix::random(n, 1, 318);
  auto res = core::gesv(a, b, small_opts(2));
  EXPECT_TRUE(std::isnan(res.residual));
  EXPECT_FALSE(res.residual < 1e-12);  // the convergence test must fail
  EXPECT_EQ(res.refine_steps, 2);
}

TEST(Gesv, ZeroMatrixReportsNaNResidual) {
  const int n = 32;
  Matrix a(n, n);  // zeros: every pivot is zero
  Matrix b = Matrix::random(n, 1, 319);
  auto res = core::gesv(a, b, small_opts(1));
  EXPECT_TRUE(std::isnan(res.residual));
  EXPECT_EQ(res.refine_steps, 1);
}

TEST(GesvMixed, WellConditionedReachesDoubleAccuracy) {
  // The headline contract: float32 factorization + double refinement ends
  // at the same residual level as full-double gesv, without fallback.
  const int n = 120;
  Matrix a = Matrix::random(n, n, 307);
  Matrix b = Matrix::random(n, 2, 308);
  auto res = core::gesv_mixed(a, b, small_opts(/*max_refine=*/8));
  EXPECT_LT(res.residual, 1e-14);
  EXPECT_FALSE(res.used_fallback);
  // Float factors carry ~eps_f error, so at least one step was needed.
  EXPECT_GE(res.refine_steps, 1);
  EXPECT_EQ(res.factorization.stats.precision, core::Precision::Float32);
  EXPECT_FALSE(res.factorization.stats.kernel.empty());
}

TEST(GesvMixed, MaxRefineZeroAcceptsFloatAccuracy) {
  // max_refine = 0 means "give me the float-accuracy solution": no
  // refinement, no accuracy-based fallback.  The residual must sit at
  // float backward-error level — far above double, far below garbage.
  const int n = 96;
  Matrix a = Matrix::random(n, n, 315);
  Matrix b = Matrix::random(n, 1, 316);
  auto res = core::gesv_mixed(a, b, small_opts(/*max_refine=*/0));
  EXPECT_EQ(res.refine_steps, 0);
  EXPECT_FALSE(res.used_fallback);
  EXPECT_LT(res.residual, 1e-4);
  EXPECT_GT(res.residual, 1e-12);  // genuinely float, not double
}

TEST(GesvMixed, ZeroRhsGivesExactZeroWithoutRefinement) {
  // Zeros survive float conversion and triangular solves exactly, so the
  // mixed path must report the same exact-zero contract as gesv.
  const int n = 48;
  Matrix a = Matrix::random(n, n, 314);
  Matrix b(n, 2);  // zeros
  auto res = core::gesv_mixed(a, b, small_opts(3));
  EXPECT_EQ(res.refine_steps, 0);
  EXPECT_EQ(res.residual, 0.0);
  EXPECT_FALSE(res.used_fallback);
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < n; ++i) EXPECT_EQ(res.x(i, j), 0.0);
}

TEST(GesvMixed, SingularFallsBackAndStillReportsNaN) {
  // Exactly singular input: the float solve produces non-finite values,
  // refinement cannot help, and the full-double fallback runs — which
  // must preserve the NaN-residual contract (never claim convergence).
  const int n = 48;
  Matrix a(n, n);
  const Matrix v = Matrix::random(n, 1, 317);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) a(i, j) = v(i, 0);
  Matrix b = Matrix::random(n, 1, 318);
  auto res = core::gesv_mixed(a, b, small_opts(2));
  EXPECT_TRUE(res.used_fallback);
  EXPECT_TRUE(std::isnan(res.residual));
  EXPECT_FALSE(res.residual < 1e-12);
  // The fallback really ran in double.
  EXPECT_EQ(res.factorization.stats.precision, core::Precision::Double);
}

TEST(GesvMixed, IllConditionedFallsBackToFullDouble) {
  // Hilbert-like, cond >> 1/eps_f: the float factors are finite but
  // useless, refinement stalls, and the double fallback restores the
  // backward-stable result gesv would give.
  const int n = 24;
  Matrix a(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) a(i, j) = 1.0 / (1.0 + i + j);
  Matrix b = Matrix::random(n, 1, 311);
  auto res = core::gesv_mixed(a, b, small_opts(5));
  EXPECT_TRUE(res.used_fallback);
  EXPECT_LT(res.residual, 1e-10);  // same bar as the double gesv test
  EXPECT_EQ(res.factorization.stats.precision, core::Precision::Double);
}

TEST(Gesv, WorksAcrossSchedulesAndLayouts) {
  const int n = 96;
  Matrix a = Matrix::random(n, n, 312);
  Matrix b = Matrix::random(n, 1, 313);
  // Static, dynamic, and the default hybrid split.
  for (double d : {0.0, 1.0, Options{}.dratio}) {
    for (layout::Layout l : {layout::Layout::BlockCyclic,
                             layout::Layout::TwoLevelBlock,
                             layout::Layout::ColumnMajor}) {
      Options o = small_opts();
      o.dratio = d;
      o.layout = l;
      auto res = core::gesv(a, b, o);
      EXPECT_LT(res.residual, 1e-13)
          << "d=" << d << "/" << layout::layout_name(l);
    }
  }
}

// ------------------------------------------- zero-copy gesv data flow ---

/// Sizes either side of core::team_share()'s floor (1 MiB per thread):
/// 150^2 doubles stay on the caller at every team size; 1030^2 (8.1 MiB)
/// spreads over a full 4-thread team.  Neither is a multiple of the tile
/// sizes below or of any team size 2..4.
constexpr int kBelowFloor = 150;
constexpr int kAboveFloor = 1030;

Options flow_opts(layout::Layout l, int n, int threads) {
  Options o;
  o.b = n > 512 ? 64 : 16;
  o.layout = l;
  o.threads = threads;
  o.pin_threads = false;
  return o;
}

/// gesv re-enacted from its public steps the way an outside-in profiler
/// does (perfbench's traced path): copy A, pack the copy, GetrfJob,
/// Session::run, finish, serial unpack, then solve_factored with no team.
core::SolveResult gesv_by_steps(const Matrix& a, const Matrix& b,
                                const Options& opt_in,
                                sched::Session& session) {
  Options o = core::with_tune_key(opt_in, a.rows(), a.cols());
  o.b = o.resolved_b();
  Matrix lu = a;
  layout::PackedMatrix p = layout::PackedMatrix::pack(
      lu, o.layout, o.b, o.resolved_grid(),
      core::owner_runner_from(o, session.team()));
  core::GetrfJob job(p, o);
  std::unique_ptr<noise::Injector> injector;
  const sched::RunHooks hooks =
      core::run_hooks_from(o, session.threads(), injector);
  session.run(
      job.graph(), [&job](int id, int tid) { job.exec(id, tid); }, hooks,
      o.resolved_engine());
  core::SolveResult r;
  r.factorization = job.finish(session.team());
  p.unpack(lu);
  core::solve_factored(a, b, lu, r.factorization.ipiv, o.max_refine, r);
  return r;
}

TEST(TeamShare, FloorIsOneMiBPerThread) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  EXPECT_EQ(core::team_share(0, 4), 1);
  EXPECT_EQ(core::team_share(2 * kMiB - 1, 4), 1);
  EXPECT_EQ(core::team_share(2 * kMiB, 4), 2);
  EXPECT_EQ(core::team_share(64 * kMiB, 4), 4);
  EXPECT_EQ(core::team_share(64 * kMiB, 1), 1);
  EXPECT_EQ(core::team_share(64 * kMiB, 0), 1);
  const std::size_t below = sizeof(double) * kBelowFloor * kBelowFloor;
  const std::size_t above = sizeof(double) * kAboveFloor * kAboveFloor;
  EXPECT_EQ(core::team_share(below, 4), 1);
  EXPECT_EQ(core::team_share(above, 4), 4);
}

TEST(Gesv, LeavesInputsBitUnchanged) {
  // No defensive copy any more: gesv packs straight from the caller's A,
  // so A (and b) must come back untouched bit for bit.
  for (int n : {kBelowFloor, kAboveFloor}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Matrix a = Matrix::random(n, n, 320);
    const Matrix b = Matrix::random(n, 2, 321);
    const Matrix a0 = a, b0 = b;
    const Options o = flow_opts(layout::Layout::BlockCyclic, n, 4);
    sched::Session session(sched::SessionOptions{4, false});
    auto res = core::gesv(a, b, o, session);
    EXPECT_TRUE(test::same_bits(a, a0));
    EXPECT_TRUE(test::same_bits(b, b0));
    EXPECT_LT(res.residual, 1e-13);
  }
}

TEST(Gesv, MatchesPublicStepSequenceBitForBit) {
  // gesv (zero-copy pack, owner-parallel unpack, team-split residual)
  // against the serial public-step sequence, across layouts, both sides
  // of the team floor, nrhs 1 and 3, and team sizes 1-4.
  for (layout::Layout l :
       {layout::Layout::ColumnMajor, layout::Layout::BlockCyclic,
        layout::Layout::TwoLevelBlock}) {
    for (int n : {kBelowFloor, kAboveFloor}) {
      const Matrix a = Matrix::random(n, n, 330 + n);
      for (int nrhs : {1, 3}) {
        const Matrix b = Matrix::random(n, nrhs, 340 + n + nrhs);
        for (int threads = 1; threads <= 4; ++threads) {
          SCOPED_TRACE(std::string(layout::layout_name(l)) + " n=" +
                       std::to_string(n) + " nrhs=" + std::to_string(nrhs) +
                       " threads=" + std::to_string(threads));
          const Options o = flow_opts(l, n, threads);
          sched::Session session(sched::SessionOptions{threads, false});
          const core::SolveResult got = core::gesv(a, b, o, session);
          const core::SolveResult want = gesv_by_steps(a, b, o, session);
          EXPECT_TRUE(test::same_bits(got.x, want.x));
          EXPECT_EQ(got.factorization.ipiv, want.factorization.ipiv);
          EXPECT_EQ(got.refine_steps, want.refine_steps);
          EXPECT_TRUE(test::same_bits(got.residual, want.residual));
        }
      }
    }
  }
}

// A pinned Session pins its caller to one cpu.  With the default
// thread count the session-taking drivers must size the grid from the
// session's team, not from that narrowed affinity mask (which gave a 1x1
// grid): default Options solve bit-identically to threads = 4.  Runs on
// its own thread so the pinning does not leak into later tests.
TEST(Gesv, DefaultThreadsOnPinnedSessionUseTheSessionTeam) {
  std::thread([] {
    sched::Session session(sched::SessionOptions{4, true});
    const int n = 240;
    const Matrix a = Matrix::random(n, n, 370);
    const Matrix b = Matrix::random(n, 1, 371);
    Options four;
    four.threads = 4;
    const core::SolveResult want = core::gesv(a, b, four, session);
    const core::SolveResult got = core::gesv(a, b, Options{}, session);
    EXPECT_TRUE(test::same_bits(got.x, want.x));
    EXPECT_EQ(got.factorization.ipiv, want.factorization.ipiv);
  }).join();
}

// The Matrix-level drivers check their input in Release builds too
// (pack_for) and throw before anything is packed.  Unchecked, the row
// mismatch aborts in malloc and the non-square A gives a wrong answer
// with no error.
Options check_opts() {
  Options o;
  o.b = 32;
  o.threads = 2;
  o.pin_threads = false;
  return o;
}

TEST(Gesv, RejectsRhsRowMismatch) {
  sched::Session session(sched::SessionOptions{2, false});
  const Matrix a = Matrix::random(64, 64, 380);
  const Matrix b = Matrix::random(32, 1, 381);
  try {
    core::gesv(a, b, check_opts(), session);
    ADD_FAILURE() << "gesv accepted a 32-row b for a 64x64 A";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const char* want = core::job_error_message(core::JobError::RhsRows);
    EXPECT_NE(what.find(want), std::string::npos) << what;
  }
  EXPECT_THROW(core::gesv_mixed(a, b, check_opts(), session),
               std::invalid_argument);
  EXPECT_EQ(session.runs(), 0u);
}

TEST(Gesv, RejectsNonSquareA) {
  sched::Session session(sched::SessionOptions{2, false});
  const Matrix a = Matrix::random(64, 48, 382);
  const Matrix b = Matrix::random(64, 1, 383);
  EXPECT_THROW(core::gesv(a, b, check_opts(), session), std::invalid_argument);
  EXPECT_THROW(core::gesv_mixed(a, b, check_opts(), session),
               std::invalid_argument);
  EXPECT_EQ(session.runs(), 0u);
}

TEST(SolveFactored, TeamSplitResidualMatchesSerialBits) {
  // Perturbed factors force several refinement steps, so the reused
  // residual r (and ||A||_inf taken once) are exercised on every step.
  // Every team size must reproduce the no-team bits exactly.
  for (int n : {kBelowFloor, kAboveFloor}) {
    const Matrix a = Matrix::random(n, n, 350);
    Matrix lu = a;
    const core::Factorization f =
        core::getrf(lu, flow_opts(layout::Layout::BlockCyclic, n, 4));
    for (int j = 0; j < n; j += 7) lu(j, j) *= 1.0 + 1e-9;
    for (int nrhs : {1, 3}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " nrhs=" + std::to_string(nrhs));
      const Matrix b = Matrix::random(n, nrhs, 351);
      core::SolveResult serial;
      core::solve_factored(a, b, lu, f.ipiv, 3, serial);
      EXPECT_GE(serial.refine_steps, 1);
      EXPECT_LT(serial.residual, 1e-13);
      for (int threads = 1; threads <= 4; ++threads) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        sched::ThreadTeam team(threads, false);
        core::SolveResult split;
        core::solve_factored(a, b, lu, f.ipiv, 3, split, 0.0, &team);
        EXPECT_TRUE(test::same_bits(split.x, serial.x));
        EXPECT_EQ(split.refine_steps, serial.refine_steps);
        EXPECT_TRUE(test::same_bits(split.residual, serial.residual));
      }
      // The public metric is the same pass: it scores an x with the
      // bits solve_factored reported for it.
      core::SolveResult once;
      core::solve_factored(a, b, lu, f.ipiv, 0, once);
      const double metric = core::solve_residual(a, once.x, b);
      EXPECT_TRUE(test::same_bits(metric, once.residual));
    }
  }
}

TEST(UnpackFactors, OwnerParallelMatchesSerialBits) {
  // The team unpack writes each owner's tiles on its own thread into an
  // uninitialized destination; every layout must give the serial bits.
  for (layout::Layout l :
       {layout::Layout::ColumnMajor, layout::Layout::BlockCyclic,
        layout::Layout::TwoLevelBlock}) {
    for (int n : {kBelowFloor, kAboveFloor}) {
      SCOPED_TRACE(std::string(layout::layout_name(l)) + " n=" +
                   std::to_string(n));
      const Options o = flow_opts(l, n, 4);
      const Matrix a = Matrix::random(n, n - 3, 360);
      const layout::PackedMatrix p =
          layout::PackedMatrix::pack(a, l, o.b, o.resolved_grid());
      Matrix serial(n, n - 3);
      p.unpack(serial);
      EXPECT_TRUE(test::same_bits(serial, a));
      sched::ThreadTeam team(4, false);
      Matrix placed = Matrix::uninitialized(n, n - 3);
      p.unpack(placed, core::owner_runner_from(o, team));
      EXPECT_TRUE(test::same_bits(placed, serial));
      Matrix fresh;  // wrong shape: unpack_factors allocates it
      core::unpack_factors(p, fresh, o, team);
      EXPECT_TRUE(test::same_bits(fresh, serial));
    }
  }
}

}  // namespace
}  // namespace calu
