// selftest.cpp — checks of the benchmark's own arithmetic (harness.h).
// Run by perfbench/run.py before every benchmark run, or on its own:
//
//   python3 perfbench/run.py --selftest
//
// Exit code 0 when every check passes; each failure is printed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/solve.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "selftest.cpp:%d: FAILED: %s\n", line, what);
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentile_rank_and_sample_count() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(perfbench::percentile(v, 50) == 50);
  CHECK(perfbench::percentile(v, 90) == 90);
  CHECK(perfbench::percentile(v, 99) == 99);
  CHECK(perfbench::percentile(v, 100) == 100);
  CHECK(perfbench::percentile(v, 0) == 1);
  CHECK(perfbench::percentile({}, 50) == 0);
  // Nearest rank, not floor: p50 of {1, 2} is 1, not the maximum.
  CHECK(perfbench::percentile({1.0, 2.0}, 50) == 1.0);

  CHECK(perfbench::samples_beyond(100, 90) == 10);
  CHECK(perfbench::tail_supported(100, 90));
  CHECK(!perfbench::tail_supported(99, 90));
  CHECK(!perfbench::tail_supported(100, 99));
  CHECK(perfbench::tail_supported(1000, 99));
  CHECK(!perfbench::tail_supported(999, 99));
  CHECK(perfbench::samples_beyond(0, 99) == 0);

  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);

  // Sliced percentiles: a stall confined to one of five slices moves that
  // slice's percentile, not the median over slices.
  std::vector<perfbench::Sample> timed;
  for (int i = 0; i < 500; ++i)
    timed.push_back({i * 0.01, (i >= 100 && i < 200) ? 50.0 : 1.0 + i % 7});
  CHECK(perfbench::sliced_percentile(timed, 5, 50) == 4.0);
  CHECK(perfbench::sliced_percentile(timed, 1, 90) == 50.0);
  // Too few samples per slice for the tail: the whole-run percentile.
  std::vector<perfbench::Sample> few(timed.begin(), timed.begin() + 60);
  std::vector<double> whole;
  for (const auto& s : few) whole.push_back(s.v);
  std::sort(whole.begin(), whole.end());
  CHECK(perfbench::sliced_percentile(few, 5, 90) ==
        perfbench::percentile(whole, 90));
  CHECK(perfbench::sliced_percentile({}, 5, 50) == 0.0);
}

void poisson_schedule_is_deterministic_per_seed() {
  const auto a = perfbench::poisson_schedule(42, 1000.0, 2.0);
  const auto b = perfbench::poisson_schedule(42, 1000.0, 2.0);
  const auto c = perfbench::poisson_schedule(43, 1000.0, 2.0);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(!a.empty());
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i)
    increasing = increasing && a[i] > a[i - 1];
  CHECK(increasing);
  CHECK(a.front() >= 0.0 && a.back() < 2.0);
  // 2000 expected arrivals; a Poisson count stays within 5 sigma (~224).
  CHECK(std::fabs(double(a.size()) - 2000.0) < 224.0);

  const auto m1 = perfbench::random_matrix(5, 3, 7);
  const auto m2 = perfbench::random_matrix(5, 3, 7);
  bool same = true;
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 5; ++i) same = same && m1(i, j) == m2(i, j);
  CHECK(same);
}

void residual_check_flags_a_perturbed_x() {
  const int n = 40;
  const calu::layout::Matrix a = perfbench::random_matrix(n, n, 1);
  const calu::layout::Matrix b = perfbench::random_matrix(n, 1, 2);
  calu::core::Options opt;
  opt.b = 8;
  opt.threads = 1;
  const calu::core::SolveResult res = calu::core::gesv(a, b, opt);
  const double good = perfbench::normalized_residual(a, res.x, b);
  CHECK(perfbench::residual_ok(good));

  calu::layout::Matrix bad = res.x;
  bad(n / 2, 0) *= 1.0 + 1e-6;
  CHECK(!perfbench::residual_ok(perfbench::normalized_residual(a, bad, b)));

  calu::layout::Matrix nan = res.x;
  nan(0, 0) = std::nan("");
  CHECK(std::isnan(perfbench::normalized_residual(a, nan, b)));
  CHECK(!perfbench::residual_ok(perfbench::normalized_residual(a, nan, b)));

  // Shape mismatch never passes.
  const calu::layout::Matrix short_x(n - 1, 1);
  CHECK(!perfbench::residual_ok(perfbench::normalized_residual(a, short_x, b)));
}

void span_self_time_arithmetic() {
  using perfbench::Span;
  std::vector<Span> s = {
      {"root", 0.0, 10.0, -1, 0},
      {"a", 1.0, 3.0, 0, 0},
      {"b", 2.0, 5.0, 0, 0},    // overlaps a: union [1, 5]
      {"c", 7.0, 8.0, 0, 0},
      {"c.child", 7.25, 7.5, 3, 0},
      {"late", 9.5, 12.0, 0, 0},  // clipped to the parent's end
      {"other", 0.0, 4.0, -1, 1},
  };
  const std::vector<double> self = perfbench::self_times(s);
  CHECK(self.size() == s.size());
  // root: 10 - ([1,5] + [7,8] + [9.5,10]) = 10 - 5.5
  CHECK(near(self[0], 4.5));
  CHECK(near(self[1], 2.0));
  CHECK(near(self[2], 3.0));
  CHECK(near(self[3], 0.75));
  CHECK(near(self[4], 0.25));
  CHECK(near(self[5], 2.5));
  CHECK(near(self[6], 4.0));
}

void flop_split_adds_up() {
  // For a square matrix the blocked counts sum to the classic
  // 2/3 n^3 - n^2/2 - n/6 + O(n b) LU count; check the leading term.
  const perfbench::LuFlops f = perfbench::lu_flop_split(2000, 100);
  const double total = f.panel + f.u + f.s;
  const double model = 2.0 / 3.0 * 2000.0 * 2000.0 * 2000.0;
  CHECK(std::fabs(total - model) / model < 0.01);
  CHECK(f.s > 0.9 * total);
}

}  // namespace

int main() {
  percentile_rank_and_sample_count();
  poisson_schedule_is_deterministic_per_seed();
  residual_check_flags_a_perturbed_x();
  span_self_time_arithmetic();
  flop_split_adds_up();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
