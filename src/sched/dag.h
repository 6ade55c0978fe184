// dag.h — dependency-counted task graph.
//
// The hybrid scheduler splits one task dependency graph into a statically
// scheduled part (tasks carry an owner thread, determined by the 2-D
// block-cyclic distribution) and a dynamically scheduled part (owner == -1,
// fed to the shared global queue).  The graph itself is schedule-agnostic;
// CALU's builder (src/core/calu_dag.cpp) decides owners and priorities, and
// the engine (engine.h) executes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/trace/trace.h"
#include "src/util/span.h"

namespace calu::sched {

/// Owner value marking a task as dynamically scheduled.
inline constexpr int kDynamicOwner = -1;

/// The builders' priority key: DFS order (tile column j, step k, kind
/// rank).  Lower pops first; the rank orders tasks sharing (j, k).  Keys
/// stay under 2^48, which TaskGraph::append's re-keying relies on.
inline std::uint64_t dfs_priority(int j, int k, int rank) {
  return (static_cast<std::uint64_t>(j) << 36) |
         (static_cast<std::uint64_t>(k) << 12) |
         static_cast<std::uint64_t>(rank);
}

/// The hybrid split: how many of `npanels` leading panels are statically
/// scheduled when a fraction `dratio` of the work is left dynamic,
/// floor(npanels * (1 - dratio)) clamped to [0, npanels].
inline int static_panels(int npanels, double dratio) {
  return std::clamp(static_cast<int>(std::floor(npanels * (1.0 - dratio))),
                    0, npanels);
}

struct Task {
  std::uint64_t priority = 0;  // lower pops first (DFS order / look-ahead)
  std::int32_t owner = kDynamicOwner;
  trace::Kind kind = trace::Kind::Other;
  std::int32_t step = -1;   // K (panel index) — metadata for exec/trace
  std::int32_t i = -1;      // tile row
  std::int32_t j = -1;      // tile col
  std::int32_t aux = 0;     // kind-specific (e.g. group length, tree level)
  // Locality tag (Section 9 "future work" extension): the thread whose
  // cache most likely holds this task's tiles, independent of whether the
  // task is statically owned.  Used by the locality-aware dynamic policy.
  std::int32_t tag = -1;
  // Whether the priority-lookahead engine may promote this task onto its
  // shared urgent queue.  Cleared job-wide for Batch-class requests so a
  // fused run's urgent capacity is reserved for Interactive jobs (the
  // Service's two priority classes); every other engine ignores it.
  bool promotable = true;
};

class TaskGraph {
 public:
  /// Adds a task, returns its id (dense, starting at 0).
  int add_task(const Task& t) {
    tasks_.push_back(t);
    ndeps_.push_back(0);
    return static_cast<int>(tasks_.size()) - 1;
  }

  /// Declares that `to` cannot start before `from` completed.
  void add_edge(int from, int to) {
    edges_.emplace_back(from, to);
    ++ndeps_[to];
  }

  /// Builds the CSR successor structure.  Call once, before execution.
  void finalize();

  /// Appends every task and edge of `other` into this graph, returning
  /// the id offset assigned to other's task 0 (other's task t becomes id
  /// offset + t here; edges are re-targeted accordingly).  Owner, kind,
  /// step/i/j/aux and locality tag are preserved verbatim; priorities are
  /// re-keyed as
  ///
  ///     priority * priority_scale + priority_bias
  ///
  /// which namespaces the DFS order per appended graph: fusing N jobs
  /// with scale = N and bias = job index round-robins jobs that are tied
  /// at equal original priority instead of draining one job before the
  /// next — the fair interleave the fused batch path wants.  Builders
  /// keep priorities under 2^48 ((j<<36)|(k<<12)|rank), so realistic job
  /// counts multiply without overflowing 64 bits.  This graph must not be
  /// finalized yet; `other` may or may not be (a finalized source is read
  /// through its CSR successors, an unfinalized one through its pending
  /// edge list).  Used by sched::Session::run_fused to merge many jobs'
  /// DAGs into one engine run.
  int append(const TaskGraph& other, std::uint64_t priority_scale = 1,
             std::uint64_t priority_bias = 0);

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const Task& task(int id) const { return tasks_[id]; }
  Task& task(int id) { return tasks_[id]; }
  int initial_deps(int id) const { return ndeps_[id]; }

  util::Span<const int> successors(int id) const {
    return {succ_.data() + offset_[id],
            static_cast<std::size_t>(offset_[id + 1] - offset_[id])};
  }

  bool finalized() const { return !offset_.empty(); }

  /// Every edge runs from a lower id to a higher one, so executing the
  /// tasks in id order respects every dependency.  Set by finalize().
  bool id_ordered() const { return id_ordered_; }

 private:
  std::vector<Task> tasks_;
  std::vector<int> ndeps_;
  std::vector<std::pair<int, int>> edges_;
  std::vector<int> offset_;  // CSR: size num_tasks+1
  std::vector<int> succ_;
  bool id_ordered_ = true;
};

}  // namespace calu::sched
