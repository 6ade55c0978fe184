// cholesky_test.cpp — the Section-9 extension: hybrid-scheduled tiled
// Cholesky, plus the syrk/potrf kernels underneath it.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/blas/blas.h"
#include "src/core/batch.h"
#include "src/core/cholesky.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/sched/session.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using core::Options;
using layout::Layout;
using layout::Matrix;

// ------------------------------------------------------------ kernels ---

TEST(SyrkLower, MatchesGemmOnLowerTriangle) {
  const int n = 70, k = 33;
  Matrix a = Matrix::random(n, k, 401);
  Matrix c = Matrix::random(n, n, 402);
  Matrix ref = c;
  blas::syrk_lower(n, k, -1.0, a.data(), a.ld(), 1.0, c.data(), c.ld());
  // Reference: full gemm, compare lower triangle only.
  blas::gemm(blas::Trans::No, blas::Trans::Yes, n, n, k, -1.0, a.data(),
             a.ld(), a.data(), a.ld(), 1.0, ref.data(), ref.ld());
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i)
      EXPECT_NEAR(c(i, j), ref(i, j), 1e-11) << i << "," << j;
    for (int i = 0; i < j; ++i)
      EXPECT_EQ(c(i, j), (i < j ? c(i, j) : 0.0));  // upper untouched
  }
}

TEST(SyrkLower, UpperTriangleUntouched) {
  const int n = 40, k = 10;
  Matrix a = Matrix::random(n, k, 403);
  Matrix c(n, n);
  c.fill(7.5);
  blas::syrk_lower(n, k, 1.0, a.data(), a.ld(), 0.0, c.data(), c.ld());
  for (int j = 1; j < n; ++j)
    for (int i = 0; i < j; ++i) EXPECT_EQ(c(i, j), 7.5);
}

TEST(SyrkLower, BetaZeroOverwrites) {
  const int n = 8, k = 4;
  Matrix a = Matrix::random(n, k, 404);
  Matrix c(n, n);
  c.fill(std::nan(""));
  blas::syrk_lower(n, k, 1.0, a.data(), a.ld(), 0.0, c.data(), c.ld());
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) EXPECT_FALSE(std::isnan(c(i, j)));
}

class PotrfKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(PotrfKernelTest, FactorsSpd) {
  const int n = GetParam();
  Matrix a = core::spd_matrix(n, 405);
  Matrix a0 = a;
  EXPECT_EQ(blas::potrf_recursive(n, a.data(), a.ld()), 0);
  EXPECT_LT(core::cholesky_residual(a0, a), 60.0);
}

TEST_P(PotrfKernelTest, Potf2MatchesRecursive) {
  const int n = GetParam();
  Matrix a = core::spd_matrix(n, 406);
  Matrix b = a;
  blas::potf2(n, a.data(), a.ld());
  blas::potrf_recursive(n, b.data(), b.ld());
  // Same factorization (no pivoting): compare lower triangles.
  for (int j = 0; j < n; ++j)
    for (int i = j; i < n; ++i) EXPECT_NEAR(a(i, j), b(i, j), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PotrfKernelTest,
                         ::testing::Values(1, 2, 7, 16, 33, 64, 100, 129));

TEST(PotrfKernel, RejectsIndefinite) {
  Matrix a = Matrix::identity(4);
  a(2, 2) = -1.0;
  EXPECT_EQ(blas::potf2(4, a.data(), a.ld()), 3);
}

// --------------------------------------------------- tiled, scheduled ---

struct CholCase {
  std::string engine;
  Layout layout;
  int n, b, threads;
  double dratio;
};

class CholSweep : public ::testing::TestWithParam<CholCase> {};

TEST_P(CholSweep, ResidualBounded) {
  const CholCase c = GetParam();
  Matrix a = core::spd_matrix(c.n, 407);
  Matrix a0 = a;
  Options opt;
  opt.b = c.b;
  opt.threads = c.threads;
  opt.engine = c.engine;
  opt.dratio = c.dratio;
  opt.layout = c.layout;
  opt.pin_threads = false;
  core::Factorization f = core::potrf(a, opt);
  EXPECT_LT(core::cholesky_residual(a0, a), 100.0);
  EXPECT_GT(f.stats.tasks, 0);
}

std::vector<CholCase> chol_cases() {
  std::vector<CholCase> cases;
  // Static, dynamic, hybrid, and the work-stealing baseline.
  const std::vector<std::pair<std::string, double>> scheds = {
      {"hybrid", 0.0}, {"hybrid", 1.0}, {"hybrid", 0.2},
      {"work-stealing", 0.2}};
  for (const auto& [engine, d] : scheds)
    for (Layout l : {Layout::BlockCyclic, Layout::TwoLevelBlock,
                     Layout::ColumnMajor})
      cases.push_back({engine, l, 96, 16, 4, d});
  for (int n : {17, 37, 64, 130})
    cases.push_back({"hybrid", Layout::BlockCyclic, n, 16, 4, 0.25});
  for (double d : {0.0, 0.5, 1.0})
    cases.push_back({"hybrid", Layout::TwoLevelBlock, 120, 16, 8, d});
  // Locality-tagged dynamic queues.
  cases.push_back({"locality-tags", Layout::BlockCyclic, 128, 16, 4, 1.0});
  cases.push_back({"locality-tags", Layout::TwoLevelBlock, 128, 16, 8, 0.3});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(DesignSpace, CholSweep,
                         ::testing::ValuesIn(chol_cases()));

TEST(Cholesky, DeterministicAcrossSchedules) {
  const int n = 120;
  Matrix a0 = core::spd_matrix(n, 408);
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  Matrix l_static, l_dyn, l_loc;
  {
    Matrix a = a0;
    o.dratio = 0.0;
    core::potrf(a, o);
    l_static = a;
  }
  {
    Matrix a = a0;
    o.dratio = 1.0;
    core::potrf(a, o);
    l_dyn = a;
  }
  {
    Matrix a = a0;
    o.engine = "locality-tags";
    core::potrf(a, o);
    l_loc = a;
  }
  EXPECT_EQ(test::max_abs_diff(l_static, l_dyn), 0.0);
  EXPECT_EQ(test::max_abs_diff(l_static, l_loc), 0.0);
}

TEST(Cholesky, SolveRoundTrip) {
  const int n = 100;
  Matrix a = core::spd_matrix(n, 409);
  Matrix a0 = a;
  Matrix x_true = Matrix::random(n, 3, 410);
  Matrix b(n, 3);
  blas::gemm(blas::Trans::No, blas::Trans::No, n, 3, n, 1.0, a0.data(),
             a0.ld(), x_true.data(), x_true.ld(), 0.0, b.data(), b.ld());
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  core::potrf(a, o);
  core::potrs(a, b);
  EXPECT_LT(test::max_abs_diff(b, x_true), 1e-9);
}

TEST(Cholesky, NoiseRobustAndDeterministic) {
  const int n = 96;
  Matrix a0 = core::spd_matrix(n, 411);
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  Matrix clean = a0, noisy = a0;
  core::potrf(clean, o);
  o.noise.prob = 0.4;
  o.noise.mean_us = 30.0;
  core::potrf(noisy, o);
  EXPECT_EQ(test::max_abs_diff(clean, noisy), 0.0);
}

TEST(Cholesky, RejectsNonSquareA) {
  // Checked in Release builds too: unchecked, a 64x48 A crashes the
  // tile kernels (SIGSEGV).  The throw comes before A is touched.
  sched::Session session(sched::SessionOptions{2, false});
  Options o;
  o.b = 32;
  o.threads = 2;
  o.pin_threads = false;
  Matrix a = Matrix::random(64, 48, 991);
  const Matrix a0 = a;
  EXPECT_THROW(core::potrf(a, o, session), std::invalid_argument);
  EXPECT_TRUE(test::same_bits(a, a0));
  EXPECT_EQ(session.runs(), 0u);
}

TEST(Cholesky, PackedRejectsNonSquareA) {
  // The PackedMatrix-level driver checks too, in Release builds, before
  // it builds a graph: unchecked, a 64x48 packing crashes the tile
  // kernels (SIGSEGV).
  sched::Session session(sched::SessionOptions{2, false});
  Options o;
  o.b = 32;
  o.threads = 2;
  o.pin_threads = false;
  const Matrix a = Matrix::random(64, 48, 992);
  layout::PackedMatrix p =
      layout::PackedMatrix::pack(a, Layout::BlockCyclic, 32, {1, 2});
  try {
    core::potrf(p, o, session);
    ADD_FAILURE() << "potrf accepted a 64x48 packing";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  core::job_error_message(core::JobError::NotSquare)),
              std::string::npos)
        << e.what();
  }
  Matrix out(64, 48);
  p.unpack(out);
  EXPECT_TRUE(test::same_bits(out, a));
  EXPECT_EQ(session.runs(), 0u);
}

TEST(Cholesky, TaskCountIsClosedForm) {
  // nt POTRF + nt(nt-1)/2 TRSM + nt(nt-1)/2 SYRK + sum_{k} C(nt-k-1, 2)
  // GEMM.
  const int n = 128, b = 16;  // nt = 8
  Matrix a = core::spd_matrix(n, 412);
  Options o;
  o.b = b;
  o.threads = 2;
  o.pin_threads = false;
  core::Factorization f = core::potrf(a, o);
  const int nt = 8;
  int expected = nt + nt * (nt - 1);  // POTRF + TRSM + SYRK
  for (int k = 0; k < nt; ++k) {
    const int r = nt - k - 1;
    expected += r * (r - 1) / 2;
  }
  EXPECT_EQ(f.stats.tasks, expected);
}

// ----------------------------------------------- locality-tag engine ---

TEST(LocalityTags, CaluCorrectAndDeterministic) {
  const int n = 120;
  Matrix a0 = Matrix::random(n, n, 413);
  Options o;
  o.b = 16;
  o.threads = 4;
  o.pin_threads = false;
  o.dratio = 1.0;
  Matrix plain = a0, tagged = a0;
  core::Factorization f1 = core::getrf(plain, o);
  o.engine = "locality-tags";
  core::Factorization f2 = core::getrf(tagged, o);
  EXPECT_EQ(f1.ipiv, f2.ipiv);
  EXPECT_EQ(test::max_abs_diff(plain, tagged), 0.0);
}

}  // namespace
}  // namespace calu
