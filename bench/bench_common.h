// bench_common.h — shared harness for the figure/table reproduction
// benches.
//
// Environment knobs (all optional):
//   CALU_BENCH_FULL=1     use paper-scale matrix sizes (minutes per bench)
//   CALU_BENCH_REPS=N     repetitions per configuration (median reported)
//   CALU_BENCH_THREADS=N  cap the "NUMA-class" thread count
//
// Machine mapping (documented in DESIGN.md): the paper uses a 16-core
// Intel Xeon and a 48-core AMD Opteron.  Here "intel-class" = min(16, hw)
// threads and "numa-class" = all hardware threads.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/calu.h"

#if defined(__linux__)
#include <sched.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace calu::bench {

inline int env_int(const char* name, int def) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : def;
}

inline bool full_scale() { return env_int("CALU_BENCH_FULL", 0) != 0; }
inline int reps() { return std::max(1, env_int("CALU_BENCH_REPS", 2)); }

/// Value of a `--engine=NAME` argument ("" when absent).  The profile and
/// d-ratio sweep drivers accept it so the same figure can be reproduced
/// under any registry executor (sched::engine_names() or user-registered)
/// and compared.
inline std::string engine_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--engine=", 0) == 0) return a.substr(9);
  }
  return {};
}

/// The paper's schedule names as executor selections — the one place a
/// bench label maps to {engine, dratio}.  Static and dynamic are dratio 0
/// and 1 on the "hybrid" engine, "hybrid(d)" is any split in between, and
/// "work-steal*" is the Section-8 baseline engine over the same graph.
struct ScheduleSpec {
  const char* label;
  const char* engine;
  double dratio;
};

inline constexpr ScheduleSpec kStatic{"static", "hybrid", 0.0};
inline constexpr ScheduleSpec kDynamic{"dynamic", "hybrid", 1.0};
inline constexpr ScheduleSpec kWorkSteal{"work-steal*", "work-stealing", 0.0};
inline constexpr ScheduleSpec hybrid_at(double d) {
  return {"hybrid", "hybrid", d};
}
/// The spec a swept dratio lands on: static at 0, dynamic at 1, hybrid
/// in between.
inline constexpr ScheduleSpec at_dratio(double d) {
  return d == 0.0 ? kStatic : d == 1.0 ? kDynamic : hybrid_at(d);
}

/// Sets `opt`'s executor selector from `s`; a non-empty `engine` (the
/// --engine= flag) replaces the spec's engine and keeps its dratio.
inline void apply(core::Options& opt, const ScheduleSpec& s,
                  const std::string& engine = {}) {
  opt.engine = engine.empty() ? s.engine : engine;
  opt.dratio = s.dratio;
}

inline int numa_threads() {
  const int hw = sched::ThreadTeam::hardware_threads();
  return std::min(hw, env_int("CALU_BENCH_THREADS", hw));
}
inline int intel_threads() { return std::min(16, numa_threads()); }

/// Sizes for a figure: scaled-down defaults, paper sizes under
/// CALU_BENCH_FULL=1.
inline std::vector<int> sizes(std::vector<int> scaled,
                              std::vector<int> paper) {
  return full_scale() ? paper : scaled;
}

struct Timing {
  double seconds = 0.0;
  double gflops = 0.0;
  core::Stats stats;
  /// Engine counters merged across every rep (the per-rep stats sit in
  /// `stats.engine`); `engine_total.report()` is the bench summary line.
  sched::EngineStats engine_total;
};

/// Median-of-reps CALU factorization.  Packing is redone per rep (fresh
/// data) and excluded from the timing, matching a library whose matrices
/// already live in the target layout.
inline Timing time_calu(const layout::Matrix& a0, core::Options opt,
                        sched::Session& session, int nreps = reps()) {
  opt.threads = session.threads();
  std::vector<Timing> runs;
  sched::EngineStats total;
  for (int r = 0; r < nreps; ++r) {
    layout::PackedMatrix p = layout::PackedMatrix::pack(
        a0, opt.layout, opt.b, opt.resolved_grid());
    core::Factorization f = core::getrf(p, opt, session);
    total.merge(f.stats.engine);
    runs.push_back({f.stats.factor_seconds, f.stats.gflops, f.stats, {}});
  }
  std::sort(runs.begin(), runs.end(), [](const Timing& x, const Timing& y) {
    return x.seconds < y.seconds;
  });
  Timing median = runs[runs.size() / 2];
  median.engine_total = total;
  return median;
}

inline Timing time_getrf_pp(const layout::Matrix& a0, int b,
                            sched::ThreadTeam& team, int nreps = reps()) {
  std::vector<Timing> runs;
  sched::EngineStats total;
  for (int r = 0; r < nreps; ++r) {
    layout::Matrix a = a0;
    core::Factorization f = core::getrf_pp(a, b, team);
    total.merge(f.stats.engine);
    runs.push_back({f.stats.factor_seconds, f.stats.gflops, f.stats, {}});
  }
  std::sort(runs.begin(), runs.end(), [](const Timing& x, const Timing& y) {
    return x.seconds < y.seconds;
  });
  Timing median = runs[runs.size() / 2];
  median.engine_total = total;
  return median;
}

inline Timing time_incpiv(const layout::Matrix& a0, int b,
                          sched::Session& session, int nreps = reps()) {
  std::vector<Timing> runs;
  sched::EngineStats total;
  for (int r = 0; r < nreps; ++r) {
    layout::PackedMatrix p = layout::PackedMatrix::pack(
        a0, layout::Layout::TwoLevelBlock, b,
        layout::Grid::best(session.threads()));
    core::IncpivFactor f = core::getrf_incpiv(p, core::Options{}, session);
    total.merge(f.stats.engine);
    runs.push_back({f.stats.factor_seconds, f.stats.gflops, f.stats, {}});
  }
  std::sort(runs.begin(), runs.end(), [](const Timing& x, const Timing& y) {
    return x.seconds < y.seconds;
  });
  Timing median = runs[runs.size() / 2];
  median.engine_total = total;
  return median;
}

/// Default tile size: the paper uses b = 100; we keep a power-of-two
/// friendly 128 at bench scale (same tile-count regime).
inline int default_b(int n) { return std::min(128, std::max(32, n / 16)); }

inline void print_banner(const char* fig, const char* what,
                         const char* paper_shape) {
  std::printf("# %s — %s\n", fig, what);
  std::printf("# paper result (shape to reproduce): %s\n", paper_shape);
  std::printf("# machine: %d hw threads; intel-class=%d, numa-class=%d; %s\n",
              sched::ThreadTeam::hardware_threads(), intel_threads(),
              numa_threads(),
              full_scale()
                  ? "FULL paper sizes"
                  : "scaled sizes (CALU_BENCH_FULL=1 for paper sizes)");
}

// Core counts from every angle the container stack can distort them:
// std::thread::hardware_concurrency respects some cgroup limits,
// sysconf reports what the kernel exposes, and sched_getaffinity is
// what this process may actually run on.  Recording all three makes
// later cross-container perf comparisons interpretable (a "1" in one
// field no longer poisons the whole host block).
struct HostCpus {
  int hardware_threads = 1;  // std::thread::hardware_concurrency
  long online = -1;          // _SC_NPROCESSORS_ONLN
  long configured = -1;      // _SC_NPROCESSORS_CONF
  int affinity = -1;         // CPU_COUNT(sched_getaffinity)
};

inline HostCpus host_cpus() {
  HostCpus h;
  h.hardware_threads = sched::ThreadTeam::hardware_threads();
#if defined(_SC_NPROCESSORS_ONLN)
  h.online = sysconf(_SC_NPROCESSORS_ONLN);
#endif
#if defined(_SC_NPROCESSORS_CONF)
  h.configured = sysconf(_SC_NPROCESSORS_CONF);
#endif
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    h.affinity = CPU_COUNT(&set);
#endif
  return h;
}

/// Sequential TSLU of a tall m x n panel through the CALU DAG's own leaf
/// and merge steps: leaves over row blocks of max(n, ceil(m / nchunks))
/// rows, a binary merge tree, then the swaps and the unpivoted
/// factorization in place.  Returns the absolute swap list.
inline std::vector<int> tslu_panel(layout::Matrix& panel, int nchunks) {
  const int m = panel.rows(), n = panel.cols();
  const int rows = std::max(n, (m + nchunks - 1) / std::max(nchunks, 1));
  const layout::PackedMatrix p = layout::PackedMatrix::pack(
      panel, layout::Layout::ColumnMajor, rows, layout::Grid{});
  std::vector<core::Candidates> nodes;
  for (int I = 0; I < p.tiling().mb(); ++I)
    nodes.push_back(core::tslu_leaf(p, 0, {I}));
  while (nodes.size() > 1) {
    std::vector<core::Candidates> next;
    for (std::size_t i = 0; i + 1 < nodes.size(); i += 2)
      next.push_back(core::tslu_merge(nodes[i], nodes[i + 1]));
    if (nodes.size() % 2 == 1) next.push_back(std::move(nodes.back()));
    nodes = std::move(next);
  }
  const core::Candidates& root = nodes.front();
  std::vector<int> swaps = core::build_swap_list(root.src, 0, root.count);
  blas::laswp(n, panel.data(), panel.ld(), 0, root.count, swaps.data());
  blas::getrf_nopiv(m, n, panel.data(), panel.ld());
  return swaps;
}

}  // namespace calu::bench
