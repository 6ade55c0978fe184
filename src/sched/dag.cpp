#include "src/sched/dag.h"

#include <algorithm>
#include <cassert>

namespace calu::sched {

void TaskGraph::finalize() {
  assert(!finalized());
  const int n = num_tasks();
  offset_.assign(n + 1, 0);
  for (const auto& [from, to] : edges_) {
    assert(from >= 0 && from < n && to >= 0 && to < n && from != to);
    ++offset_[from + 1];
    id_ordered_ = id_ordered_ && from < to;
  }
  for (int i = 0; i < n; ++i) offset_[i + 1] += offset_[i];
  succ_.resize(edges_.size());
  std::vector<int> cursor(offset_.begin(), offset_.end() - 1);
  for (const auto& [from, to] : edges_) succ_[cursor[from]++] = to;
  edges_.clear();
  edges_.shrink_to_fit();
}

int TaskGraph::append(const TaskGraph& other, std::uint64_t priority_scale,
                      std::uint64_t priority_bias) {
  assert(!finalized());
  assert(&other != this);
  const int off = num_tasks();
  const int m = other.num_tasks();
  tasks_.reserve(tasks_.size() + m);
  ndeps_.reserve(ndeps_.size() + m);
  for (int id = 0; id < m; ++id) {
    Task t = other.tasks_[id];
    t.priority = t.priority * priority_scale + priority_bias;
    tasks_.push_back(t);
    // Copy the dependency counts wholesale instead of re-counting through
    // add_edge: the edges appended below sum to exactly these values.
    ndeps_.push_back(other.ndeps_[id]);
  }
  if (other.finalized()) {
    edges_.reserve(edges_.size() + other.succ_.size());
    for (int id = 0; id < m; ++id)
      for (int s : other.successors(id))
        edges_.emplace_back(off + id, off + s);
  } else {
    edges_.reserve(edges_.size() + other.edges_.size());
    for (const auto& [from, to] : other.edges_)
      edges_.emplace_back(off + from, off + to);
  }
  return off;
}

}  // namespace calu::sched
