#include "src/core/calu_dag.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace calu::core {
namespace {

using sched::kDynamicOwner;
using sched::Task;

// Priority key (sched::dfs_priority): the rank orders tasks sharing
// (J, K): tournament before finalize before L before pack-L before U
// before pack-U before S — packs sit directly behind their producer so
// they run ahead of the S tasks they feed (look-ahead keeps the next
// panel's operands packed early).
using sched::dfs_priority;

void add_deps(sched::TaskGraph& g, std::vector<int>& deps, int to) {
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  for (int d : deps) g.add_edge(d, to);
}

}  // namespace

CaluPlan build_plan(const layout::Tiling& tiling, const layout::Grid& grid,
                    layout::Layout layout, double dratio, int group_factor,
                    bool pack_panels) {
  assert(dratio >= 0.0 && dratio <= 1.0);
  CaluPlan plan;
  plan.tiling = tiling;
  plan.grid = grid;
  plan.pack_panels = pack_panels;
  const int mb = tiling.mb(), nb = tiling.nb();
  plan.npanels = std::min(mb, nb);
  plan.nstatic = sched::static_panels(plan.npanels, dratio);
  plan.grouped =
      layout == layout::Layout::BlockCyclic && group_factor > 1;
  plan.group_factor = plan.grouped ? group_factor : 1;
  plan.tnodes.resize(plan.npanels);
  plan.root_node.resize(plan.npanels, -1);
  plan.final_task.resize(plan.npanels, -1);

  sched::TaskGraph& g = plan.graph;
  const int N = plan.nstatic;

  // Rolling dependency state from the previous step:
  //  cover[I * nb + J] = task that last wrote tile (I, J);
  //  col_tasks[J]      = the S tasks of the previous step in column J.
  std::vector<int> cover(static_cast<std::size_t>(mb) * nb, -1);
  std::vector<std::vector<int>> col_tasks(nb);
  std::vector<int> l_task(mb, -1);
  std::vector<int> pl_task(mb, -1);
  std::vector<int> deps;

  for (int k = 0; k < plan.npanels; ++k) {
    const bool panel_static = k < N;
    const int ntiles = mb - k;
    // Pack tasks exist only where S tasks will consume them (a step with a
    // trailing matrix below and to the right of the panel).
    const bool packing = pack_panels && mb > k + 1 && nb > k + 1;

    // --- P: tournament leaves (one per thread row owning panel tiles) ---
    auto& nodes = plan.tnodes[k];
    const int nleaves = std::min(grid.pr, ntiles);
    std::vector<int> level;
    for (int r = 0; r < nleaves; ++r) {
      const int tr = (k + r) % grid.pr;
      CaluPlan::TNode leaf;
      leaf.thread_row = tr;
      Task t;
      t.kind = trace::Kind::P;
      t.step = k;
      t.i = r;
      t.j = k;
      t.aux = static_cast<int>(nodes.size());
      t.priority = dfs_priority(k, k, 0);
      t.tag = tr * grid.pc + (k % grid.pc);
      t.owner = panel_static ? t.tag : kDynamicOwner;
      leaf.task = g.add_task(t);
      if (k > 0) {
        deps.clear();
        for (int I = k + (((tr - k) % grid.pr + grid.pr) % grid.pr); I < mb;
             I += grid.pr)
          deps.push_back(cover[static_cast<std::size_t>(I) * nb + k]);
        add_deps(g, deps, leaf.task);
      }
      level.push_back(static_cast<int>(nodes.size()));
      nodes.push_back(leaf);
    }
    // --- P: binary-tree merges ---
    while (level.size() > 1) {
      std::vector<int> next;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        CaluPlan::TNode merge;
        merge.child_a = level[i];
        merge.child_b = level[i + 1];
        merge.thread_row = nodes[level[i]].thread_row;
        Task t;
        t.kind = trace::Kind::P;
        t.step = k;
        t.j = k;
        t.aux = static_cast<int>(nodes.size());
        t.priority = dfs_priority(k, k, 1);
        t.tag = merge.thread_row * grid.pc + (k % grid.pc);
        t.owner = panel_static ? t.tag : kDynamicOwner;
        merge.task = g.add_task(t);
        g.add_edge(nodes[level[i]].task, merge.task);
        g.add_edge(nodes[level[i + 1]].task, merge.task);
        next.push_back(static_cast<int>(nodes.size()));
        nodes.push_back(merge);
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level = std::move(next);
    }
    plan.root_node[k] = level.front();

    // --- P: finalize (build swap list, right-swap panel, factor top tile)
    {
      Task t;
      t.kind = trace::Kind::P;
      t.step = k;
      t.j = k;
      t.aux = -1;  // sentinel: finalize
      t.priority = dfs_priority(k, k, 2);
      t.tag = grid.owner(k, k);
      t.owner = panel_static ? t.tag : kDynamicOwner;
      plan.final_task[k] = g.add_task(t);
      g.add_edge(nodes[plan.root_node[k]].task, plan.final_task[k]);
    }

    // --- L tiles (and their pack tasks) ---
    for (int I = k + 1; I < mb; ++I) {
      Task t;
      t.kind = trace::Kind::L;
      t.step = k;
      t.i = I;
      t.j = k;
      t.priority = dfs_priority(k, k, 3);
      t.tag = grid.owner(I, k);
      t.owner = panel_static ? t.tag : kDynamicOwner;
      l_task[I] = g.add_task(t);
      g.add_edge(plan.final_task[k], l_task[I]);
      if (packing) {
        Task tp;
        tp.kind = trace::Kind::PackL;
        tp.step = k;
        tp.i = I;
        tp.j = k;
        tp.priority = dfs_priority(k, k, 4);
        tp.tag = grid.owner(I, k);
        tp.owner = panel_static ? tp.tag : kDynamicOwner;
        pl_task[I] = g.add_task(tp);
        g.add_edge(l_task[I], pl_task[I]);
      }
    }

    // --- U + S per trailing column ---
    for (int J = k + 1; J < nb; ++J) {
      const bool col_static = J < N;
      Task tu;
      tu.kind = trace::Kind::U;
      tu.step = k;
      tu.i = k;
      tu.j = J;
      tu.priority = dfs_priority(J, k, 5);
      tu.tag = grid.owner(k, J);
      tu.owner = col_static ? tu.tag : kDynamicOwner;
      const int u_id = g.add_task(tu);
      g.add_edge(plan.final_task[k], u_id);
      for (int d : col_tasks[J]) g.add_edge(d, u_id);
      col_tasks[J].clear();

      if (k == plan.npanels - 1 && J >= plan.npanels) {
        // Last step: U tiles finish the factorization of wide matrices;
        // no S below.
      }
      int pu_id = -1;
      if (packing) {
        Task tp;
        tp.kind = trace::Kind::PackU;
        tp.step = k;
        tp.i = k;
        tp.j = J;
        tp.priority = dfs_priority(J, k, 6);
        tp.tag = grid.owner(k, J);
        tp.owner = col_static ? tp.tag : kDynamicOwner;
        pu_id = g.add_task(tp);
        g.add_edge(u_id, pu_id);
      }
      const bool group_here = plan.grouped && col_static;
      if (group_here) {
        for (int tr = 0; tr < grid.pr; ++tr) {
          // Owned tiles of thread row tr at I >= k+1 (stride pr, vertically
          // contiguous in the owner's BCL buffer).
          int I = k + 1 + (((tr - (k + 1)) % grid.pr + grid.pr) % grid.pr);
          while (I < mb) {
            const int cnt = std::min(plan.group_factor,
                                     (mb - I + grid.pr - 1) / grid.pr);
            Task ts;
            ts.kind = trace::Kind::S;
            ts.step = k;
            ts.i = I;
            ts.j = J;
            ts.aux = cnt;
            ts.priority = dfs_priority(J, k, 7);
            ts.tag = grid.owner(I, J);
            ts.owner = ts.tag;
            const int s_id = g.add_task(ts);
            g.add_edge(packing ? pu_id : u_id, s_id);
            for (int c = 0; c < cnt; ++c) {
              const int Ic = I + c * grid.pr;
              g.add_edge(packing ? pl_task[Ic] : l_task[Ic], s_id);
              cover[static_cast<std::size_t>(Ic) * nb + J] = s_id;
            }
            col_tasks[J].push_back(s_id);
            I += cnt * grid.pr;
          }
        }
      } else {
        for (int I = k + 1; I < mb; ++I) {
          Task ts;
          ts.kind = trace::Kind::S;
          ts.step = k;
          ts.i = I;
          ts.j = J;
          ts.aux = 1;
          ts.priority = dfs_priority(J, k, 7);
          ts.tag = grid.owner(I, J);
          ts.owner = col_static ? ts.tag : kDynamicOwner;
          const int s_id = g.add_task(ts);
          g.add_edge(packing ? pu_id : u_id, s_id);
          g.add_edge(packing ? pl_task[I] : l_task[I], s_id);
          cover[static_cast<std::size_t>(I) * nb + J] = s_id;
          col_tasks[J].push_back(s_id);
        }
      }
    }
  }

  g.finalize();
  return plan;
}

std::string plan_to_dot(const CaluPlan& plan) {
  const sched::TaskGraph& g = plan.graph;
  std::ostringstream os;
  os << "digraph calu {\n  rankdir=TB;\n  node [style=filled];\n";
  for (int id = 0; id < g.num_tasks(); ++id) {
    const Task& t = g.task(id);
    const char* color = "gray90";
    std::string label;
    switch (t.kind) {
      case trace::Kind::P:
        color = t.owner >= 0 ? "lightcoral" : "lightsalmon";
        label = t.aux < 0 ? "Pfin" : "P";
        break;
      case trace::Kind::L:
        color = t.owner >= 0 ? "khaki" : "lightyellow";
        label = "L";
        break;
      case trace::Kind::U:
        color = t.owner >= 0 ? "lightblue" : "azure";
        label = "U";
        break;
      case trace::Kind::S:
        color = t.owner >= 0 ? "palegreen" : "honeydew";
        label = "S";
        break;
      case trace::Kind::PackL:
        color = t.owner >= 0 ? "plum" : "thistle";
        label = "pL";
        break;
      case trace::Kind::PackU:
        color = t.owner >= 0 ? "orchid" : "lavenderblush";
        label = "pU";
        break;
      default:
        label = "?";
    }
    os << "  t" << id << " [label=\"" << label << " k=" << t.step;
    if (t.i >= 0) os << " i=" << t.i;
    if (t.j >= 0) os << " j=" << t.j;
    os << (t.owner >= 0 ? "\\n(static)" : "\\n(dynamic)");
    os << "\", fillcolor=" << color << "];\n";
  }
  for (int id = 0; id < g.num_tasks(); ++id)
    for (int s : g.successors(id)) os << "  t" << id << " -> t" << s << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace calu::core
