// engine_hybrid.cpp — the paper's hybrid static/dynamic executor
// (Algorithm 1), registered as "hybrid" and, with the tag-partitioned
// dynamic section, as "locality-tags".
//
// Tasks with owner >= 0 are queued to that thread's private priority queue
// (the static section); owner == kDynamicOwner tasks go to the sharded
// global ready queue (the dynamic section, DFS order per shard).  Threads
// always prefer their static queue — progress on the critical path and
// data locality — and fall back to the dynamic queue when idle, exactly
// Algorithm 1's "while not done, do dynamic_tasks()".
#include <cassert>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/sched/engine.h"
#include "src/sched/engine_impl.h"
#include "src/sched/task_queue.h"

namespace calu::sched {
namespace {

class HybridEngine final : public Engine {
 public:
  HybridEngine(std::string name, bool locality_tags)
      : name_(std::move(name)), locality_tags_(locality_tags) {}

  const std::string& name() const override { return name_; }

  EngineStats run(ThreadTeam& team, const TaskGraph& graph,
                  const ExecFn& exec, const RunHooks& hooks) override {
    assert(graph.finalized());
    const int p = team.size();
    const int n = graph.num_tasks();

    std::vector<PriorityTaskQueue> own(p);
    // Without locality tags the dynamic section is one logical DFS queue,
    // sharded for contention (a single shard when p == 1 keeps the strict
    // global order the degenerate case promises).  With tags it is
    // partitioned per thread so each serves its own tag's shard first.
    const int nshards = locality_tags_ ? p : std::min(p, 8);
    ShardedReadyQueue global(nshards);

    detail::RunContext ctx(graph, exec, hooks);
    auto enqueue = [&](int id) {
      const Task& t = graph.task(id);
      if (t.owner >= 0)
        own[t.owner % p].push(t.priority, id);
      else if (locality_tags_ && t.tag >= 0)
        global.push_to(t.tag % nshards, t.priority, id);
      else
        global.push(t.priority, id);
    };
    for (int t = 0; t < n; ++t)
      if (graph.initial_deps(t) == 0) enqueue(t);

    std::vector<PerThreadStats> per(p);
    trace::Recorder* rec = hooks.recorder;
    if (rec) rec->start(p);
    const auto t0 = std::chrono::steady_clock::now();

    team.run([&](int tid) {
      PerThreadStats& me = per[tid];
      int backoff = 0;
      while (!ctx.done()) {
        int id = -1;
        bool dynamic = false;
        bool got = own[tid].try_pop(id);
        if (!got) {
          // Dynamic section: own shard first, then the others round-robin.
          got = global.try_pop(id, tid % nshards);
          dynamic = got;
        }
        if (!got) {
          // No ready work for this thread right now: brief backoff.  The
          // paper's threads spin in the same situation (waiting on taskP).
          if (++backoff > 64) {
            std::this_thread::yield();
            backoff = 0;
          }
          continue;
        }
        backoff = 0;
        if (dynamic)
          ++me.dynamic_pops;
        else
          ++me.static_pops;
        ctx.run_task(id, tid, dynamic, enqueue);
      }
    });

    if (rec) rec->stop();
    return detail::merge_thread_stats(per, detail::seconds_since(t0));
  }

 private:
  std::string name_;
  bool locality_tags_;
};

}  // namespace

namespace detail {

std::unique_ptr<Engine> make_hybrid_engine(std::string name,
                                           bool locality_tags) {
  return std::make_unique<HybridEngine>(std::move(name), locality_tags);
}

}  // namespace detail
}  // namespace calu::sched
