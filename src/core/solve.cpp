#include "src/core/solve.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "src/blas/blas.h"

namespace calu::core {

namespace {

/// Fewest rows per thread for which an off-diagonal solve update is
/// split: a smaller share costs more in team dispatch than it saves.
constexpr int kSplitMinRows = 128;

/// The row split of the narrow solve's updates: over `team` when the
/// factors (`lu_bytes`) are above the team_share() floor, with at least
/// kSplitMinRows rows per part, in chunks of whole cache lines of b;
/// empty (serial) otherwise.  Each row's chain is local to the row, so
/// every split gives the serial bits.
blas::RowSplit row_split(std::size_t lu_bytes, sched::ThreadTeam* team) {
  const int nt = team != nullptr ? team_share(lu_bytes, team->size()) : 1;
  if (nt <= 1) return {};
  return [team, nt](int rows, const std::function<void(int, int)>& part) {
    const int parts = std::min(nt, rows / kSplitMinRows);
    if (parts <= 1) {
      part(0, rows);
      return;
    }
    const int chunk = ((rows + parts - 1) / parts + 7) / 8 * 8;
    team->run([&](int tid) {
      const int r0 = std::min(rows, tid * chunk);
      const int r1 = std::min(rows, r0 + chunk);
      if (r0 < r1) part(r0, r1);
    });
  };
}

std::size_t lu_bytes(int n) {
  return sizeof(double) * static_cast<std::size_t>(n) *
         static_cast<std::size_t>(n);
}

/// The packed factors as a tile view: one entry per tile, whatever the
/// layout.
blas::TileView tile_view(const layout::PackedMatrix& p) {
  const layout::Tiling& t = p.tiling();
  assert(t.m == t.n);
  blas::TileView v;
  v.n = t.n;
  v.b = t.b;
  v.mb = t.mb();
  const std::size_t tiles = static_cast<std::size_t>(t.mb()) * t.nb();
  v.tile.resize(tiles);
  v.ld.resize(tiles);
  for (int J = 0; J < t.nb(); ++J)
    for (int I = 0; I < t.mb(); ++I) {
      const layout::BlockRef blk = p.block(I, J);
      v.tile[I + static_cast<std::size_t>(J) * t.mb()] = blk.ptr;
      v.ld[I + static_cast<std::size_t>(J) * t.mb()] = blk.ld;
    }
  return v;
}

blas::TileView column_major_view(const layout::Matrix& lu) {
  assert(lu.rows() == lu.cols());
  return blas::TileView::column_major(lu.rows(), lu.data(), lu.ld());
}

/// The packed factors unpacked into a fresh column-major workspace, owner-
/// parallel on `team` above the team_share() floor — for the wide right-
/// hand sides only: trsm's gemm recast reads column-major factors.
layout::Matrix unpacked(const layout::PackedMatrix& lu,
                        sched::ThreadTeam* team) {
  const int n = lu.tiling().n;
  layout::Matrix cm = layout::Matrix::uninitialized(n, n);
  const bool spread =
      team != nullptr && team_share(lu_bytes(n), team->size()) > 1;
  lu.unpack(cm, spread ? owner_runner_from(Options{}, *team)
                       : layout::OwnerRunner{});
  return cm;
}

}  // namespace

void getrs(const layout::Matrix& lu, util::Span<const int> ipiv,
           layout::Matrix& b, sched::ThreadTeam* team) {
  const int n = lu.cols();
  assert(b.rows() == n && static_cast<int>(ipiv.size()) == n);
  if (b.cols() < blas::kInvMinRhs) {
    blas::getrs_tiles(column_major_view(lu), ipiv.data(), b.cols(), b.data(),
                      b.ld(), row_split(lu_bytes(n), team));
    return;
  }
  blas::laswp(b.cols(), b.data(), b.ld(), 0, n, ipiv.data());
  blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
             blas::Diag::Unit, n, b.cols(), 1.0, lu.data(), lu.ld(), b.data(),
             b.ld());
  blas::trsm(blas::Side::Left, blas::UpLo::Upper, blas::Trans::No,
             blas::Diag::NonUnit, n, b.cols(), 1.0, lu.data(), lu.ld(),
             b.data(), b.ld());
}

void getrs(const layout::PackedMatrix& lu, util::Span<const int> ipiv,
           layout::Matrix& b, sched::ThreadTeam* team) {
  const int n = lu.tiling().n;
  assert(b.rows() == n && static_cast<int>(ipiv.size()) == n);
  if (b.cols() >= blas::kInvMinRhs) {
    getrs(unpacked(lu, team), ipiv, b, team);
    return;
  }
  blas::getrs_tiles(tile_view(lu), ipiv.data(), b.cols(), b.data(), b.ld(),
                    row_split(lu_bytes(n), team));
}

namespace {

/// Rows per cache block of the residual pass: a block's slice of r and
/// its row sums stay in L1 while the block's rows of A stream past once.
constexpr int kResidualRowBlock = 512;

/// r(i0:i1, :) = b - A x and, when `rowsum` is non-null, rowsum[i] =
/// sum_k |A(i, k)|, in one column-ordered pass over rows [i0, i1) of A.
/// Each r(i, j) and rowsum[i] accumulates over k ascending with a
/// separately rounded multiply and subtract (this TU is built with
/// -ffp-contract=off), so a row's bits never depend on which other rows
/// share its pass: every row split reproduces the serial result.  The
/// row-sum order is blas::norm_inf's, so max(rowsum) is its ||A||_inf.
void residual_rows(const layout::Matrix& a, const layout::Matrix& x,
                   const layout::Matrix& b, layout::Matrix& r,
                   double* rowsum, int i0, int i1) {
  const int n = a.cols(), nrhs = x.cols();
  const std::size_t lda = a.ld(), ldr = r.ld(), ldb = b.ld();
  for (int ib = i0; ib < i1; ib += kResidualRowBlock) {
    const int ie = std::min(i1, ib + kResidualRowBlock);
    for (int j = 0; j < nrhs; ++j)
      std::copy(b.data() + ib + j * ldb, b.data() + ie + j * ldb,
                r.data() + ib + j * ldr);
    if (rowsum != nullptr) std::fill(rowsum + ib, rowsum + ie, 0.0);
    for (int k = 0; k < n; ++k) {
      const double* ak = a.data() + k * lda;
      if (rowsum != nullptr)
        for (int i = ib; i < ie; ++i) rowsum[i] += std::fabs(ak[i]);
      for (int j = 0; j < nrhs; ++j) {
        const double xkj = x(k, j);
        double* rj = r.data() + j * ldr;
        for (int i = ib; i < ie; ++i) rj[i] -= ak[i] * xkj;
      }
    }
  }
}

/// residual_rows over all of A, split by rows over `team` when the
/// matrix is above the team_share() floor (and `team` is given).
void residual_pass(const layout::Matrix& a, const layout::Matrix& x,
                   const layout::Matrix& b, layout::Matrix& r,
                   double* rowsum, sched::ThreadTeam* team) {
  const int m = a.rows();
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(a.cols());
  const int nt = team != nullptr ? team_share(bytes, team->size()) : 1;
  if (nt <= 1) {
    residual_rows(a, x, b, r, rowsum, 0, m);
    return;
  }
  // Chunks on whole cache lines of r, so neighbours never share one.
  const int chunk = ((m + nt - 1) / nt + 7) / 8 * 8;
  team->run([&](int tid) {
    const int i0 = std::min(m, tid * chunk);
    const int i1 = std::min(m, i0 + chunk);
    if (i0 < i1) residual_rows(a, x, b, r, rowsum, i0, i1);
  });
}

/// ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf), NaN when r holds a
/// non-finite value.
double normalized_residual(const layout::Matrix& r, double norm_a,
                           const layout::Matrix& x, const layout::Matrix& b) {
  // A non-finite residual (singular pivot ⇒ x holds inf/NaN) must report
  // as NaN: max-based norms silently skip NaN compares, which used to make
  // a garbage solution look *perfectly converged* (residual 0).
  for (int j = 0; j < r.cols(); ++j)
    for (int i = 0; i < r.rows(); ++i)
      if (!std::isfinite(r(i, j)))
        return std::numeric_limits<double>::quiet_NaN();
  const double nx = blas::norm_inf(x.rows(), x.cols(), x.data(), x.ld());
  const double nb = blas::norm_inf(b.rows(), b.cols(), b.data(), b.ld());
  const double nr = blas::norm_inf(r.rows(), r.cols(), r.data(), r.ld());
  const double denom = norm_a * nx + nb;
  return denom > 0.0 ? nr / denom : nr;
}

/// r = b - A x with the row sums of |A|, returning ||A||_inf.
double residual_and_norm(const layout::Matrix& a, const layout::Matrix& x,
                         const layout::Matrix& b, layout::Matrix& r,
                         sched::ThreadTeam* team) {
  std::vector<double> rowsum(static_cast<std::size_t>(a.rows()));
  residual_pass(a, x, b, r, rowsum.data(), team);
  double norm_a = 0.0;
  for (double s : rowsum) norm_a = std::max(norm_a, s);
  return norm_a;
}

}  // namespace

double solve_residual(const layout::Matrix& a, const layout::Matrix& x,
                      const layout::Matrix& b) {
  layout::Matrix r = layout::Matrix::uninitialized(b.rows(), b.cols());
  const double norm_a = residual_and_norm(a, x, b, r, nullptr);
  return normalized_residual(r, norm_a, x, b);
}

namespace {

/// solve_factored with `solve(x)` overwriting x with (LU)^{-1} P x.
void solve_and_refine(const layout::Matrix& a, const layout::Matrix& b,
                      const std::function<void(layout::Matrix&)>& solve,
                      int max_refine, SolveResult& res, double stall_ratio,
                      sched::ThreadTeam* team) {
  res.x = b;
  solve(res.x);
  // r = b - A x, kept across steps: the residual that scores x is also
  // the right-hand side of the next correction.  ||A||_inf is x-free, so
  // it is taken once, in the same pass as the first residual.
  layout::Matrix r = layout::Matrix::uninitialized(b.rows(), b.cols());
  const double norm_a = residual_and_norm(a, res.x, b, r, team);
  res.residual = normalized_residual(r, norm_a, res.x, b);

  for (int it = 0; it < max_refine; ++it) {
    if (res.residual < 1e-15) break;
    if (stall_ratio > 0.0 && !std::isfinite(res.residual)) break;
    const double prev = res.residual;
    // Solve A d = r; x += d.
    solve(r);
    for (int j = 0; j < res.x.cols(); ++j)
      for (int i = 0; i < res.x.rows(); ++i) res.x(i, j) += r(i, j);
    ++res.refine_steps;
    residual_pass(a, res.x, b, r, nullptr, team);
    res.residual = normalized_residual(r, norm_a, res.x, b);
    // Stalled or diverging refinement never converges later (each step is
    // a fixed-point iteration with constant contraction rate): stop here.
    if (stall_ratio > 0.0 && !(res.residual < stall_ratio * prev)) break;
  }
}

}  // namespace

void solve_factored(const layout::Matrix& a, const layout::Matrix& b,
                    const layout::Matrix& lu, util::Span<const int> ipiv,
                    int max_refine, SolveResult& res, double stall_ratio,
                    sched::ThreadTeam* team) {
  solve_and_refine(
      a, b, [&](layout::Matrix& x) { getrs(lu, ipiv, x, team); }, max_refine,
      res, stall_ratio, team);
}

void solve_factored(const layout::Matrix& a, const layout::Matrix& b,
                    const layout::PackedMatrix& lu, util::Span<const int> ipiv,
                    int max_refine, SolveResult& res, double stall_ratio,
                    sched::ThreadTeam* team) {
  if (b.cols() >= blas::kInvMinRhs) {
    solve_factored(a, b, unpacked(lu, team), ipiv, max_refine, res,
                   stall_ratio, team);
    return;
  }
  const blas::TileView v = tile_view(lu);
  const blas::RowSplit split = row_split(lu_bytes(v.n), team);
  solve_and_refine(
      a, b,
      [&](layout::Matrix& x) {
        blas::getrs_tiles(v, ipiv.data(), x.cols(), x.data(), x.ld(), split);
      },
      max_refine, res, stall_ratio, team);
}

namespace {

/// A refinement step that does not at least halve the residual is stalled:
/// converging mixed-precision refinement contracts by ~cond(A)*eps_f per
/// step, far below 1/2 whenever it converges at all.
constexpr double kMixedStallRatio = 0.5;

/// Float32 factors are only worth refining when they are finite and the
/// elimination did not blow up.  The growth limit is far above benign CALU
/// growth (O(n^{2/3})-ish in practice, bounded like partial pivoting up to
/// the tournament factor) but far below 1/eps_f ~ 8e6, where every float
/// digit of the factors is noise and refinement diverges.
bool factors_pathological(const layout::Matrix& a, const layout::Matrix& lu) {
  double lumax = 0.0;
  for (int j = 0; j < lu.cols(); ++j)
    for (int i = 0; i < lu.rows(); ++i) {
      const double v = lu(i, j);
      if (!std::isfinite(v)) return true;
      lumax = std::max(lumax, std::fabs(v));
    }
  double amax = 0.0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      amax = std::max(amax, std::fabs(a(i, j)));
  constexpr double kGrowthLimit = 1e5;
  return amax > 0.0 && lumax > kGrowthLimit * amax;
}

}  // namespace

void refine_mixed(const layout::Matrix& a, const layout::Matrix& b,
                  const layout::Matrix& lu, const Options& opt,
                  sched::Session& session, SolveResult& res) {
  bool fallback = factors_pathological(a, lu);
  if (!fallback) {
    solve_factored(a, b, lu, res.factorization.ipiv, opt.max_refine, res,
                   kMixedStallRatio, &session.team());
    // Double-quality backward error or bust.  max_refine = 0 means the
    // caller asked for the float-accuracy solution: accept it unless the
    // solve itself produced non-finite values.
    const double accept =
        100.0 * a.rows() * std::numeric_limits<double>::epsilon();
    fallback = opt.max_refine > 0 ? !(res.residual <= accept)
                                  : std::isnan(res.residual);
  }
  if (fallback) {
    Options dopt = opt;
    dopt.precision = Precision::Double;
    res = gesv(a, b, dopt, session);
    res.used_fallback = true;
  }
}

SolveResult gesv_mixed(const layout::Matrix& a, const layout::Matrix& b,
                       const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return gesv_mixed(a, b, opt, ephemeral);
}

SolveResult gesv_mixed(const layout::Matrix& a, const layout::Matrix& b,
                       const Options& opt_in, sched::Session& session) {
  SolveResult res;
  Options opt = opt_in;
  opt.precision = Precision::Float32;
  layout::Matrix lu;
  {  // the packed copy is freed before refinement, as in getrf
    layout::PackedMatrix p = pack_for(a, opt, session, &b);
    res.factorization = getrf(p, opt, session);  // float-accuracy factors
    unpack_factors(p, lu, opt, session.team());
  }
  refine_mixed(a, b, lu, opt, session, res);
  return res;
}

SolveResult gesv(const layout::Matrix& a, const layout::Matrix& b,
                 const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return gesv(a, b, opt, ephemeral);
}

SolveResult gesv(const layout::Matrix& a, const layout::Matrix& b,
                 const Options& opt_in, sched::Session& session) {
  SolveResult res;
  Options opt = opt_in;
  layout::PackedMatrix p = pack_for(a, opt, session, &b);
  res.factorization = getrf(p, opt, session);
  solve_factored(a, b, p, res.factorization.ipiv, opt.max_refine, res, 0.0,
                 &session.team());
  return res;
}

}  // namespace calu::core
