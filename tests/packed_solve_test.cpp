// packed_solve_test.cpp — the narrow-RHS solve on packed factors
// (blas::getrs_tiles through core::getrs and core::solve_factored's
// PackedMatrix overloads) and the column-major core::getrs built on it,
// against the oracle they replace: laswp + trsm(Left, Lower, Unit) +
// trsm(Left, Upper, NonUnit) on the unpacked LU, bit for bit, across
// layouts, tile sizes, both sides of the team floor, ragged edges and
// team sizes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/blas/blas.h"
#include "src/core/calu.h"
#include "src/core/solve.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/sched/session.h"
#include "tests/test_util.h"

namespace calu {
namespace {

using layout::Matrix;

// n = 45 stays below the team_share() floor; 611 (ragged for every b
// below) and 640 lie above it, where the solve splits its updates.
constexpr int kSizes[] = {45, 611, 640};
constexpr int kTiles[] = {7, 32, 64, 100};
constexpr int kRhs[] = {1, 3, 31};

struct Factors {
  Matrix a, lu;
  std::vector<int> ipiv;
};

// Any LU with partial pivoting will do for the oracle: the solve only
// reads factors and pivots.
Factors factor(int n, std::uint64_t seed) {
  Factors f{Matrix::random(n, n, seed), Matrix(), std::vector<int>(n)};
  f.lu = f.a;
  blas::getrf_recursive(n, n, f.lu.data(), f.lu.ld(), f.ipiv.data());
  return f;
}

Matrix oracle(const Factors& f, const Matrix& b) {
  const int n = f.lu.rows();
  Matrix x = b;
  blas::laswp(x.cols(), x.data(), x.ld(), 0, n, f.ipiv.data());
  blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
             blas::Diag::Unit, n, x.cols(), 1.0, f.lu.data(), f.lu.ld(),
             x.data(), x.ld());
  blas::trsm(blas::Side::Left, blas::UpLo::Upper, blas::Trans::No,
             blas::Diag::NonUnit, n, x.cols(), 1.0, f.lu.data(), f.lu.ld(),
             x.data(), x.ld());
  return x;
}

std::vector<std::unique_ptr<sched::Session>> sessions() {
  std::vector<std::unique_ptr<sched::Session>> s;
  for (int t = 1; t <= 4; ++t)
    s.push_back(std::make_unique<sched::Session>(
        sched::SessionOptions{t, false}));
  return s;
}

TEST(PackedSolve, MatchesLaswpTrsmOnUnpackedLuBitForBit) {
  const auto teams = sessions();
  for (int n : kSizes) {
    const Factors f = factor(n, 500 + n);
    for (int nrhs : kRhs) {
      const Matrix b = Matrix::random(n, nrhs, 510 + n + nrhs);
      const Matrix want = oracle(f, b);
      Matrix got = b;
      core::getrs(f.lu, f.ipiv, got);
      EXPECT_TRUE(test::same_bits(got, want))
          << "column-major getrs n=" << n << " nrhs=" << nrhs;
      for (layout::Layout l :
           {layout::Layout::ColumnMajor, layout::Layout::BlockCyclic,
            layout::Layout::TwoLevelBlock}) {
        for (int tb : kTiles) {
          const layout::PackedMatrix p =
              layout::PackedMatrix::pack(f.lu, l, tb, layout::Grid{2, 2});
          for (const auto& s : teams) {
            SCOPED_TRACE(std::string(layout::layout_name(l)) +
                         " n=" + std::to_string(n) +
                         " b=" + std::to_string(tb) +
                         " nrhs=" + std::to_string(nrhs) +
                         " threads=" + std::to_string(s->threads()));
            Matrix x = b;
            core::getrs(p, f.ipiv, x, &s->team());
            EXPECT_TRUE(test::same_bits(x, want));
            core::SolveResult res;
            core::solve_factored(f.a, b, p, f.ipiv, 0, res, 0.0,
                                 &s->team());
            EXPECT_TRUE(test::same_bits(res.x, want));
          }
        }
      }
    }
  }
}

TEST(PackedSolve, ColumnMajorTeamSplitMatchesOracle) {
  const auto teams = sessions();
  const int n = 611;
  const Factors f = factor(n, 520);
  const Matrix b = Matrix::random(n, 3, 521);
  const Matrix want = oracle(f, b);
  for (const auto& s : teams) {
    SCOPED_TRACE("threads=" + std::to_string(s->threads()));
    Matrix x = b;
    core::getrs(f.lu, f.ipiv, x, &s->team());
    EXPECT_TRUE(test::same_bits(x, want));
    core::SolveResult res;
    core::solve_factored(f.a, b, f.lu, f.ipiv, 0, res, 0.0, &s->team());
    EXPECT_TRUE(test::same_bits(res.x, want));
  }
}

TEST(PackedSolve, RefinementAndWideRhsMatchColumnMajorOverload) {
  // Perturbed factors force refinement steps; nrhs = 33 takes the
  // unpack-and-trsm branch of the packed overload.
  const auto teams = sessions();
  for (int n : {45, 611}) {
    Factors f = factor(n, 530 + n);
    for (int j = 0; j < n; j += 7) f.lu(j, j) *= 1.0 + 1e-9;
    for (int nrhs : {1, 33}) {
      const Matrix b = Matrix::random(n, nrhs, 540 + n + nrhs);
      core::SolveResult want;
      core::solve_factored(f.a, b, f.lu, f.ipiv, 3, want);
      for (layout::Layout l :
           {layout::Layout::BlockCyclic, layout::Layout::TwoLevelBlock}) {
        const layout::PackedMatrix p =
            layout::PackedMatrix::pack(f.lu, l, 32, layout::Grid{2, 2});
        for (const auto& s : teams) {
          SCOPED_TRACE(std::string(layout::layout_name(l)) +
                       " n=" + std::to_string(n) +
                       " nrhs=" + std::to_string(nrhs) +
                       " threads=" + std::to_string(s->threads()));
          core::SolveResult got;
          core::solve_factored(f.a, b, p, f.ipiv, 3, got, 0.0, &s->team());
          EXPECT_GT(want.refine_steps, 0);
          EXPECT_EQ(got.refine_steps, want.refine_steps);
          EXPECT_TRUE(test::same_bits(got.x, want.x));
          EXPECT_TRUE(test::same_bits(got.residual, want.residual));
        }
      }
    }
  }
}

}  // namespace
}  // namespace calu
