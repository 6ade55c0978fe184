// engine_numa.cpp — the Chase-Lev work-stealing engine, registered as
// "work-stealing" and, with topology-ordered victims, as
// "numa-hierarchical".
//
// Ready tasks go to the spawning thread's lock-free Chase-Lev deque; the
// owner pops LIFO and idle threads steal FIFO — the classic Cilk
// discipline.  The two registry names differ only in where the walk
// starts and which victims come first:
//
//   "work-stealing"      — the Section-8 related-work baseline.  Roots are
//                          dealt round-robin (owner hints and priorities
//                          are ignored) and a thief walks one list of all
//                          other threads from a random start.
//   "numa-hierarchical"  — roots are seeded to their owners first
//                          (owner % p, like the hybrid engine), so the
//                          static distribution starts aligned with the
//                          first-touch data placement.  A thief sorts the
//                          other threads into steal-distance classes from
//                          the machine topology (SMT sibling, shared L2,
//                          shared L3, same package, cross package — see
//                          topology.h) and raids the nearest class first,
//                          crossing an L3 (and last of all a package)
//                          boundary only when everything closer is empty.
//                          This is the Beaumont/Marchal observation: on
//                          non-uniform machines *where* you steal from
//                          dominates dynamic-scheduling cost.
//
// Within a victim group the start position rotates pseudo-randomly so
// thieves do not convoy on one victim.  Both variants classify every
// successful steal into EngineStats::steals_by_class and stamp it on the
// trace event, so their cross-class fractions compare directly.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/sched/chase_lev_deque.h"
#include "src/sched/engine.h"
#include "src/sched/engine_impl.h"
#include "src/sched/topology.h"

namespace calu::sched {
namespace {

/// Victim RNG seed; runs differ only through timing, never through it.
constexpr std::uint64_t kVictimSeed = 7;

struct Victim {
  int tid = 0;
  StealClass cls = StealClass::kUnknown;
};

/// Per-thread victim walk: groups are tried in order, each from a random
/// start.  Built once per run from the team's effective pinning;
/// unpinned threads classify as kUnknown, which degrades the
/// hierarchical walk to rotating round-robin — never worse than the
/// uniform baseline.
using VictimGroups = std::vector<std::vector<Victim>>;

std::vector<VictimGroups> build_victim_groups(const ThreadTeam& team,
                                              const Topology& topo,
                                              bool hierarchical) {
  const int p = team.size();
  std::vector<VictimGroups> groups(p);
  for (int t = 0; t < p; ++t) {
    std::vector<Victim> others;
    for (int v = 0; v < p; ++v)
      if (v != t)
        others.push_back(
            {v, topo.classify(team.pinned_cpu(t), team.pinned_cpu(v))});
    if (others.empty()) continue;
    if (!hierarchical) {
      groups[t].push_back(std::move(others));
      continue;
    }
    // Nearest class first, by steal cost (measured latency when the probe
    // ran, class rank otherwise); one group per class.
    std::stable_sort(others.begin(), others.end(),
                     [&](const Victim& a, const Victim& b) {
                       const double ca = topo.steal_cost(a.cls);
                       const double cb = topo.steal_cost(b.cls);
                       return ca != cb ? ca < cb : a.cls < b.cls;
                     });
    for (const Victim& v : others) {
      if (groups[t].empty() || groups[t].back().front().cls != v.cls)
        groups[t].emplace_back();
      groups[t].back().push_back(v);
    }
  }
  return groups;
}

class ChaseLevEngine final : public Engine {
 public:
  ChaseLevEngine(std::string name, bool hierarchical)
      : name_(std::move(name)), hierarchical_(hierarchical) {}

  const std::string& name() const override { return name_; }

  EngineStats run(ThreadTeam& team, const TaskGraph& graph,
                  const ExecFn& exec, const RunHooks& hooks) override {
    assert(graph.finalized());
    const int p = team.size();
    const int n = graph.num_tasks();

    std::vector<std::unique_ptr<ChaseLevDeque>> deques;
    deques.reserve(p);
    for (int t = 0; t < p; ++t)
      deques.push_back(std::make_unique<ChaseLevDeque>());

    detail::RunContext ctx(graph, exec, hooks);
    {
      int next = 0;
      for (int t = 0; t < n; ++t)
        if (graph.initial_deps(t) == 0) {
          const int owner = hierarchical_ ? graph.task(t).owner : -1;
          deques[owner >= 0 ? owner % p : next++ % p]->push_bottom(t);
        }
    }

    const std::vector<VictimGroups> victim_groups =
        build_victim_groups(team, system_topology(), hierarchical_);

    struct alignas(64) Rng {
      std::uint64_t state = 0;
      std::uint64_t next() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545F4914F6CDD1DULL;
      }
    };
    std::vector<Rng> rng(p);
    for (int t = 0; t < p; ++t)
      rng[t].state = kVictimSeed * 0x9E3779B97F4A7C15ULL + t + 1;

    std::vector<PerThreadStats> per(p);
    trace::Recorder* rec = hooks.recorder;
    if (rec) rec->start(p);
    const auto t0 = std::chrono::steady_clock::now();

    team.run([&](int tid) {
      PerThreadStats& me = per[tid];
      ChaseLevDeque& mine = *deques[tid];
      const VictimGroups& groups = victim_groups[tid];
      auto enqueue = [&](int id) { mine.push_bottom(id); };
      int backoff = 0;
      while (!ctx.done()) {
        int id = -1;
        StealClass stolen_from = StealClass::kUnknown;
        bool stolen = false;
        if (mine.pop_bottom(id)) {
          ++me.static_pops;  // owner-local pops (kept under static_pops)
        } else {
          // One walk over the victim groups, rotating the start inside
          // each group so concurrent thieves spread out.
          for (const std::vector<Victim>& g : groups) {
            const int m = static_cast<int>(g.size());
            const int start = m > 1
                                  ? static_cast<int>(rng[tid].next() %
                                                     static_cast<unsigned>(m))
                                  : 0;
            for (int k = 0; k < m; ++k) {
              const Victim& v = g[(start + k) % m];
              ++me.steal_attempts;
              if (deques[v.tid]->steal_top(id)) {
                stolen = true;
                stolen_from = v.cls;
                break;
              }
            }
            if (stolen) break;
          }
          if (!stolen) {
            if (++backoff > 4) {
              std::this_thread::yield();
              backoff = 0;
            }
            continue;
          }
          ++me.steals;
          ++me.steals_by_class[static_cast<int>(stolen_from)];
        }
        backoff = 0;
        ctx.run_task(id, tid, stolen, enqueue, /*promoted=*/false,
                     stolen ? static_cast<int>(stolen_from) : -1);
      }
    });

    if (rec) rec->stop();
    return detail::merge_thread_stats(per, detail::seconds_since(t0), &team);
  }

 private:
  std::string name_;
  bool hierarchical_;
};

}  // namespace

namespace detail {

std::unique_ptr<Engine> make_chase_lev_engine(std::string name,
                                              bool hierarchical) {
  return std::make_unique<ChaseLevEngine>(std::move(name), hierarchical);
}

}  // namespace detail
}  // namespace calu::sched
