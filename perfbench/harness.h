// harness.h — the benchmark's own arithmetic, kept apart from the
// workloads so perfbench/selftest.cpp can check it: seeded inputs, the
// Poisson arrival schedule, the percentile / sample-count rule, an
// independent residual check, and span self-time.
//
// Nothing here calls into the library's numerics: the residual is
// computed with plain loops (not core::solve_residual or blas::gemm), so a
// defect in the solver cannot also hide itself in the check.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "src/layout/matrix.h"

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: element
/// ceil(p/100 · N) (1-based).  0 on an empty sample.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly above the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))),
      1, n);
  return n - rank;
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that the "percentile" is one of the few largest
/// samples and moves with every outlier.
inline constexpr std::size_t kTailMinBeyond = 10;

inline bool tail_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kTailMinBeyond;
}

/// Median of an unsorted sample (upper median for even sizes, matching
/// percentile(·, 50) on the sorted copy).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 50.0);
}

/// A measurement and when it was taken (seconds from the loop's start).
struct Sample {
  double t = 0.0;
  double v = 0.0;
};

/// The p-th percentile of each of `slices` equal time slices of the
/// run, and the median of those.  A stall on the host that lasts less
/// than a slice or two then moves a slice, not the result.  Falls back
/// to the whole-run percentile when any slice has fewer than
/// kTailMinBeyond samples beyond its percentile.
inline double sliced_percentile(const std::vector<Sample>& samples,
                                int slices, double p) {
  std::vector<double> all;
  double t0 = 0.0, t1 = 0.0;
  for (const Sample& s : samples) {
    t0 = all.empty() ? s.t : std::min(t0, s.t);
    t1 = all.empty() ? s.t : std::max(t1, s.t);
    all.push_back(s.v);
  }
  std::sort(all.begin(), all.end());
  if (slices < 2 || !(t1 > t0)) return percentile(all, p);
  std::vector<std::vector<double>> slice(static_cast<std::size_t>(slices));
  for (const Sample& s : samples) {
    const int k = std::min(slices - 1, static_cast<int>((s.t - t0) /
                                                        (t1 - t0) * slices));
    slice[static_cast<std::size_t>(k)].push_back(s.v);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& v : slice) {
    if (!tail_supported(v.size(), p)) return percentile(all, p);
    std::sort(v.begin(), v.end());
    per_slice.push_back(percentile(v, p));
  }
  return median(per_slice);
}

/// Column-major matrix with entries uniform in [-1, 1], drawn from the
/// benchmark's own generator so the inputs do not change when the
/// library's Matrix::random does.
inline calu::layout::Matrix random_matrix(int m, int n, std::uint64_t seed) {
  calu::layout::Matrix a(m, n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) a(i, j) = uni(rng);
  return a;
}

/// Arrival offsets (seconds from the start) of a Poisson process of
/// `rate` per second over [0, seconds): exponential gaps from `seed`.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double seconds) {
  std::vector<double> due;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  for (double t = gap(rng); t < seconds; t += gap(rng)) due.push_back(t);
  return due;
}

/// Normwise backward error ||A x - b||_inf / (||A||_inf ||x||_inf +
/// ||b||_inf).  Accumulated in double: the rounding of r = A x - b is at
/// most n·eps relative to ||A|| ||x|| (2e-13 at n = 2048), well under
/// kResidualLimit.  NaN when anything is non-finite, so a poisoned x can
/// never pass as converged.
inline double normalized_residual(const calu::layout::Matrix& a,
                                  const calu::layout::Matrix& x,
                                  const calu::layout::Matrix& b) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int n = a.rows();
  if (a.cols() != n || x.rows() != n || b.rows() != n ||
      x.cols() != b.cols())
    return nan;
  double worst = 0.0, xnorm = 0.0, bnorm = 0.0, anorm = 0.0;
  std::vector<double> r(static_cast<std::size_t>(n));
  for (int c = 0; c < b.cols(); ++c) {
    for (int i = 0; i < n; ++i) r[i] = -b(i, c);
    for (int j = 0; j < n; ++j) {
      const double xj = x(j, c);
      const double* aj = a.data() + static_cast<std::size_t>(j) * a.ld();
      for (int i = 0; i < n; ++i) r[i] += aj[i] * xj;
    }
    // max() skips NaN, so every term is tested for finiteness explicitly.
    for (int i = 0; i < n; ++i) {
      if (!std::isfinite(r[i]) || !std::isfinite(x(i, c))) return nan;
      worst = std::max(worst, std::fabs(r[i]));
      xnorm = std::max(xnorm, std::fabs(x(i, c)));
      bnorm = std::max(bnorm, std::fabs(b(i, c)));
    }
  }
  std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) rowsum[i] += std::fabs(a(i, j));
  for (int i = 0; i < n; ++i) anorm = std::max(anorm, rowsum[i]);
  const double denom = anorm * xnorm + bnorm;
  return denom > 0.0 ? worst / denom : worst;
}

/// A solve passes when its backward error is at most this.  Double LU on
/// the benchmark's random systems lands near 1e-17; a wrong pivot, a
/// dropped update or a stale tile puts it many orders higher.
inline constexpr double kResidualLimit = 1e-12;

inline bool residual_ok(double r) { return r <= kResidualLimit; }

/// One traced step: [start, end] in seconds, the index of the span that
/// caused it (-1 for a request's root), and the request it belongs to.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::int64_t request = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      const double lo = std::max(s.start, p.start);
      const double hi = std::min(s.end, p.end);
      if (hi > lo) kids[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

/// Computed flop split of a tiled right-looking LU of an n x n matrix
/// with tile b: panel factorization (P + L tasks), U-row triangular
/// solves and trailing gemm updates (S tasks).  Standard counts; the
/// tournament pivoting's extra work is not included.
struct LuFlops {
  double panel = 0.0;
  double u = 0.0;
  double s = 0.0;
};

inline LuFlops lu_flop_split(int n, int b) {
  LuFlops f;
  for (int k0 = 0; k0 < n; k0 += b) {
    const double m = n - k0;                   // rows left, incl. the panel
    const double w = std::min(b, n - k0);      // panel width
    const double rest = n - k0 - w;            // trailing columns
    f.panel += m * w * w - w * w * w / 3.0;
    f.u += w * w * rest;
    f.s += 2.0 * (m - w) * rest * w;
  }
  return f;
}

}  // namespace perfbench
