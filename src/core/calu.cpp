// calu.cpp — execution of the CALU plan: task bodies, the schedule
// dispatch, and the user-facing getrf drivers.
//
// The task bodies (Runtime) are templated over the element type: a
// Float32 job runs the identical plan on a converted float copy of the
// packed matrix.  The engines never see the difference — they only move
// task ids — which keeps every scheduler precision-agnostic by
// construction.
#include "src/core/calu.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "src/blas/blas.h"
#include "src/blas/microkernel.h"
#include "src/core/batch.h"
#include "src/core/calu_dag.h"
#include "src/core/tslu.h"
#include "src/model/lu_cost.h"
#include "src/sched/session.h"
#include "src/tune/autotuner.h"
#include "src/util/aligned_buffer.h"

namespace calu::core {
namespace {

inline std::size_t pad8(std::size_t v) { return (v + 7) / 8 * 8; }

// Per-thread pack scratch for the pack-per-task (pack_panels off) S path,
// one pair per precision.
template <class T>
util::AlignedBufferT<T>& tl_s_abuf() {
  thread_local util::AlignedBufferT<T> buf;
  return buf;
}

template <class T>
util::AlignedBufferT<T>& tl_s_bbuf() {
  thread_local util::AlignedBufferT<T> buf;
  return buf;
}

/// Mutable per-run state: tournament candidates, per-panel swap lists.
/// Distinct tasks touch distinct slots, so no locking is needed beyond the
/// engine's dependency ordering.
template <class T>
class Runtime {
 public:
  Runtime(layout::PackedMatrixT<T>& a, const CaluPlan& plan)
      : a_(a), plan_(plan) {
    cand_.resize(plan.npanels);
    for (int k = 0; k < plan.npanels; ++k)
      cand_[k].resize(plan.tnodes[k].size());
    swaps_.resize(plan.npanels);
    if (plan.pack_panels) {
      arenas_.resize(plan.npanels);
      std::vector<int> s_per_step(plan.npanels, 0);
      for (int id = 0; id < plan.graph.num_tasks(); ++id) {
        const sched::Task& t = plan.graph.task(id);
        if (t.kind == trace::Kind::S) ++s_per_step[t.step];
      }
      for (int k = 0; k < plan.npanels; ++k) {
        arenas_[k] = std::make_unique<StepArena>();
        arenas_[k]->s_remaining.store(s_per_step[k],
                                      std::memory_order_relaxed);
      }
    }
  }

  void exec(int id, int tid);

  /// Deferred left swaps (Algorithm 1 line 43), parallel over tile columns
  /// on `team`, or serially on the caller without one.  Tile columns are
  /// disjoint, so the split never changes the bits.
  void apply_left_swaps(sched::ThreadTeam* team);

  std::vector<int> take_ipiv();

  std::uint64_t pack_tasks() const {
    return pack_tasks_.load(std::memory_order_relaxed);
  }
  std::uint64_t s_operand_packs() const {
    return plan_.pack_panels ? pack_tasks()
                             : s_packs_.load(std::memory_order_relaxed);
  }

 private:
  /// Shared packed operands of one step: every L tile of the panel and
  /// every U tile of the block row, each packed exactly once (by its
  /// pL/pU task) in micro-kernel strip layout.  The buffer is allocated
  /// by the first pack task of the step and freed by the step's last S
  /// task, so live scratch stays proportional to the scheduler's actual
  /// look-ahead depth, not to the matrix.
  struct StepArena {
    util::AlignedBufferT<T> buf;
    std::once_flag once;
    T* lslots = nullptr;
    T* uslots = nullptr;
    std::size_t l_stride = 0, u_stride = 0;
    std::atomic<int> s_remaining{0};
  };

  StepArena& ensure_arena(int k);

  void exec_p(const sched::Task& t);
  void exec_l(const sched::Task& t);
  void exec_u(const sched::Task& t);
  void exec_s(const sched::Task& t);
  void exec_pack_l(const sched::Task& t);
  void exec_pack_u(const sched::Task& t);

  layout::PackedMatrixT<T>& a_;
  const CaluPlan& plan_;
  std::vector<std::vector<CandidatesT<T>>> cand_;
  std::vector<std::vector<int>> swaps_;
  std::vector<std::unique_ptr<StepArena>> arenas_;
  std::atomic<std::uint64_t> pack_tasks_{0};
  std::atomic<std::uint64_t> s_packs_{0};
};

template <class T>
void Runtime<T>::exec(int id, int tid) {
  (void)tid;
  const sched::Task& t = plan_.graph.task(id);
  switch (t.kind) {
    case trace::Kind::P: exec_p(t); break;
    case trace::Kind::L: exec_l(t); break;
    case trace::Kind::U: exec_u(t); break;
    case trace::Kind::S: exec_s(t); break;
    case trace::Kind::PackL: exec_pack_l(t); break;
    case trace::Kind::PackU: exec_pack_u(t); break;
    default: assert(false);
  }
}

template <class T>
void Runtime<T>::exec_p(const sched::Task& t) {
  const int k = t.step;
  const layout::Tiling& tl = plan_.tiling;
  if (t.aux >= 0) {
    const CaluPlan::TNode& node = plan_.tnodes[k][t.aux];
    if (node.child_a < 0) {
      // Leaf: GEPP over this thread row's tiles of the panel.
      const int pr = plan_.grid.pr;
      std::vector<int> tiles;
      for (int I = k + (((node.thread_row - k) % pr + pr) % pr);
           I < tl.mb(); I += pr)
        tiles.push_back(I);
      cand_[k][t.aux] = tslu_leaf(a_, k, tiles);
    } else {
      cand_[k][t.aux] =
          tslu_merge(cand_[k][node.child_a], cand_[k][node.child_b]);
      // The children are dead now; release their buffers.
      cand_[k][node.child_a] = CandidatesT<T>{};
      cand_[k][node.child_b] = CandidatesT<T>{};
    }
    return;
  }
  // Finalize: swap the winners into place within the panel column and
  // factor the top tile without pivoting (TSLU second step).
  const CandidatesT<T>& root = cand_[k][plan_.root_node[k]];
  const int row0 = tl.row0(k);
  swaps_[k] = build_swap_list(root.src, row0, root.count);
  const int c0 = tl.col0(k);
  const int c1 = c0 + tl.tile_cols(k);
  for (std::size_t i = 0; i < swaps_[k].size(); ++i)
    if (swaps_[k][i] != row0 + static_cast<int>(i))
      a_.swap_rows_global(c0, c1, row0 + static_cast<int>(i), swaps_[k][i]);
  layout::BlockRefT<T> top = a_.block(k, k);
  blas::getrf_nopiv(top.rows, top.cols, top.ptr, top.ld);
  cand_[k][plan_.root_node[k]] = CandidatesT<T>{};
}

template <class T>
void Runtime<T>::exec_l(const sched::Task& t) {
  // L(I,k) := A(I,k) * Ukk^{-1}.
  layout::BlockRefT<T> top = a_.block(t.step, t.step);
  layout::BlockRefT<T> d = a_.block(t.i, t.step);
  const int kk = std::min(top.rows, top.cols);
  blas::trsm(blas::Side::Right, blas::UpLo::Upper, blas::Trans::No,
             blas::Diag::NonUnit, d.rows, kk, T(1), top.ptr, top.ld, d.ptr,
             d.ld);
}

template <class T>
void Runtime<T>::exec_u(const sched::Task& t) {
  // Right swap of column J by panel k's pivots, then U(k,J) := Lkk^{-1}
  // A(k,J).
  const int k = t.step, J = t.j;
  const layout::Tiling& tl = plan_.tiling;
  const int row0 = tl.row0(k);
  const int c0 = tl.col0(J);
  const int c1 = c0 + tl.tile_cols(J);
  const std::vector<int>& sw = swaps_[k];
  for (std::size_t i = 0; i < sw.size(); ++i)
    if (sw[i] != row0 + static_cast<int>(i))
      a_.swap_rows_global(c0, c1, row0 + static_cast<int>(i), sw[i]);
  layout::BlockRefT<T> top = a_.block(k, k);
  layout::BlockRefT<T> d = a_.block(k, J);
  const int kk = std::min(top.rows, top.cols);
  blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
             blas::Diag::Unit, kk, d.cols, T(1), top.ptr, top.ld, d.ptr,
             d.ld);
}

template <class T>
typename Runtime<T>::StepArena& Runtime<T>::ensure_arena(int k) {
  StepArena& ar = *arenas_[k];
  std::call_once(ar.once, [&] {
    const layout::Tiling& tl = plan_.tiling;
    const int kk = std::min(tl.tile_rows(k), tl.tile_cols(k));
    // Uniform slots sized for a full b x kk tile (edge tiles just leave
    // slack); padded to 8 elements so every slot stays 64-byte aligned
    // for doubles and 32-byte for floats (both enough for the kernels).
    ar.l_stride = pad8(blas::packed_a_size<T>(tl.b, kk));
    ar.u_stride = pad8(blas::packed_b_size<T>(kk, tl.b));
    const std::size_t ltiles = tl.mb() - k - 1;
    const std::size_t utiles = tl.nb() - k - 1;
    // NUMA first touch falls out of the allocation discipline here:
    // AlignedBufferT::reserve only calls operator new (no memset), so the
    // arena's pages are not faulted by whichever thread won the
    // call_once race — each slot's pages land on the node of the pL/pU
    // task that first *writes* it, i.e. the owner of that tile's panel
    // column.  Do not "optimize" this into a zero-fill.
    ar.buf.reserve(ltiles * ar.l_stride + utiles * ar.u_stride);
    ar.lslots = ar.buf.data();
    ar.uslots = ar.buf.data() + ltiles * ar.l_stride;
  });
  return ar;
}

template <class T>
void Runtime<T>::exec_pack_l(const sched::Task& t) {
  // Pack finished L tile (I, k) into its arena slot, once per step.
  const int k = t.step, I = t.i;
  StepArena& ar = ensure_arena(k);
  layout::BlockRefT<T> top = a_.block(k, k);
  const int kk = std::min(top.rows, top.cols);
  layout::BlockRefT<T> l = a_.block(I, k);
  blas::gemm_pack_a(blas::Trans::No, l.rows, kk, l.ptr, l.ld,
                    ar.lslots + (I - k - 1) * ar.l_stride);
  pack_tasks_.fetch_add(1, std::memory_order_relaxed);
}

template <class T>
void Runtime<T>::exec_pack_u(const sched::Task& t) {
  // Pack finished U tile (k, J) into its arena slot, once per step.
  const int k = t.step, J = t.j;
  StepArena& ar = ensure_arena(k);
  layout::BlockRefT<T> top = a_.block(k, k);
  const int kk = std::min(top.rows, top.cols);
  layout::BlockRefT<T> u = a_.block(k, J);
  blas::gemm_pack_b(blas::Trans::No, kk, u.cols, u.ptr, u.ld,
                    ar.uslots + (J - k - 1) * ar.u_stride);
  pack_tasks_.fetch_add(1, std::memory_order_relaxed);
}

template <class T>
void Runtime<T>::exec_s(const sched::Task& t) {
  // A(I..,J) -= L(I..,k) * U(k,J), over a group of t.aux owned tiles
  // (one tile unless the static BCL grouping is active).  With
  // pack_panels the operands come pre-packed from the step arena; the
  // fallback packs them per task.  Both run the same register kernels on
  // identically packed data, so the results are bit-identical.
  const int k = t.step, I = t.i, J = t.j, cnt = t.aux;
  layout::BlockRefT<T> top = a_.block(k, k);
  const int kk = std::min(top.rows, top.cols);
  layout::BlockRefT<T> c = a_.column_segment(I, J, cnt);
  if (plan_.pack_panels) {
    StepArena& ar = *arenas_[k];
    const T* upack = ar.uslots + (J - k - 1) * ar.u_stride;
    int rowoff = 0;
    for (int g = 0; g < cnt; ++g) {
      const int Ig = I + g * plan_.grid.pr;
      const int rows = plan_.tiling.tile_rows(Ig);
      blas::gemm_packed(rows, c.cols, kk, T(-1),
                        ar.lslots + (Ig - k - 1) * ar.l_stride, upack,
                        c.ptr + rowoff, c.ld);
      rowoff += rows;
    }
    // Last S task of the step retires the arena.
    if (ar.s_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      ar.buf.release();
  } else {
    layout::BlockRefT<T> u = a_.block(k, J);
    layout::BlockRefT<T> l = a_.column_segment(I, k, cnt);
    util::AlignedBufferT<T>& abuf = tl_s_abuf<T>();
    util::AlignedBufferT<T>& bbuf = tl_s_bbuf<T>();
    abuf.reserve(blas::packed_a_size<T>(l.rows, kk));
    bbuf.reserve(blas::packed_b_size<T>(kk, u.cols));
    blas::gemm_pack_a(blas::Trans::No, l.rows, kk, l.ptr, l.ld, abuf.data());
    blas::gemm_pack_b(blas::Trans::No, kk, u.cols, u.ptr, u.ld, bbuf.data());
    s_packs_.fetch_add(2, std::memory_order_relaxed);
    blas::gemm_packed(c.rows, c.cols, kk, T(-1), abuf.data(), bbuf.data(),
                      c.ptr, c.ld);
  }
}

template <class T>
void Runtime<T>::apply_left_swaps(sched::ThreadTeam* team) {
  const layout::Tiling& tl = plan_.tiling;
  const int npanels = plan_.npanels;
  const auto column = [&](int J) {
    const int c0 = tl.col0(J);
    const int c1 = c0 + tl.tile_cols(J);
    for (int K = J + 1; K < npanels; ++K) {
      const int row0 = tl.row0(K);
      const std::vector<int>& sw = swaps_[K];
      for (std::size_t i = 0; i < sw.size(); ++i)
        if (sw[i] != row0 + static_cast<int>(i))
          a_.swap_rows_global(c0, c1, row0 + static_cast<int>(i), sw[i]);
    }
  };
  if (team != nullptr) {
    team->parallel_for(npanels, column);
  } else {
    for (int J = 0; J < npanels; ++J) column(J);
  }
}

template <class T>
std::vector<int> Runtime<T>::take_ipiv() {
  std::vector<int> ipiv;
  for (auto& sw : swaps_) ipiv.insert(ipiv.end(), sw.begin(), sw.end());
  return ipiv;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The checks behind validate() and pack_for(): `rhs` needs a square `a`
/// with as many rows, `square` asks for a square `a`, `b` must be >= 1.
JobError check_input(const layout::Matrix* a, const layout::Matrix* rhs,
                     bool square, int b) {
  if (a == nullptr) return JobError::NullMatrix;
  if (rhs != nullptr) {
    if (a->rows() != a->cols()) return JobError::RhsNotSquare;
    if (rhs->rows() != a->rows()) return JobError::RhsRows;
  }
  if (square && a->rows() != a->cols()) return JobError::NotSquare;
  if (b < 1) return JobError::TileSize;
  return JobError::None;
}

void throw_if_error(JobError e) {
  if (e != JobError::None)
    throw std::invalid_argument(std::string("calu::core: ") +
                                job_error_message(e));
}

}  // namespace

const char* job_error_message(JobError e) {
  switch (e) {
    case JobError::None: return "valid";
    case JobError::NullMatrix: return "A is null";
    case JobError::RhsNotSquare: return "A has an rhs but is not square";
    case JobError::RhsRows: return "rhs row count differs from A's";
    case JobError::TileSize: return "tile size b is below 1";
    case JobError::NotSquare: return "A is not square";
  }
  return "?";
}

JobError validate(const BatchJob& job) {
  return check_input(job.a, job.rhs, false, job.options.b);
}

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::Double: return "fp64";
    case Precision::Float32: return "fp32";
  }
  return "?";
}

const char* priority_class_name(PriorityClass c) {
  switch (c) {
    case PriorityClass::Interactive: return "interactive";
    case PriorityClass::Batch: return "batch";
  }
  return "?";
}

const char* tune_mode_name(TuneMode m) {
  switch (m) {
    case TuneMode::Off: return "off";
    case TuneMode::Auto: return "auto";
    case TuneMode::Force: return "force";
  }
  return "?";
}

int Options::resolved_threads() const {
  return threads > 0 ? threads : sched::ThreadTeam::hardware_threads();
}

layout::Grid Options::resolved_grid() const {
  if (pr > 0 && pc > 0) return layout::Grid{pr, pc};
  return layout::Grid::best(resolved_threads());
}

double Options::resolved_dratio() const {
  if (dratio < 0.0 || dratio > 1.0) {
    // Out-of-range ratios used to flow into plan construction silently
    // (dratio = 1.5 built a plan with a negative static prefix).  Clamp,
    // and say so once — a hot batch loop resolves this per job.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
      std::fprintf(stderr,
                   "calu::core: Options::dratio %g out of [0, 1]; "
                   "clamping (warned once)\n",
                   dratio);
  }
  return std::clamp(dratio, 0.0, 1.0);
}

int Options::resolved_b() const { return b; }

std::string Options::resolved_engine() const {
  return engine.empty() ? "hybrid" : engine;
}

Options resolve(const Options& opt, int m, int n,
                const sched::Session& session) {
  Options o = opt;
  if (o.threads <= 0) o.threads = session.threads();
  if (o.tune_n == 0) o.tune_n = std::min(m, n);
  if (o.tune != TuneMode::Off) {
    const tune::Decision d = tune::decision_for(o);
    if (o.tune_n > 0) o.b = std::min(d.b, o.tune_n);
    o.dratio = d.dratio;
    if (o.engine.empty()) o.engine = d.engine;
    o.lookahead_depth = d.lookahead_depth;
    o.tune = TuneMode::Off;
  }
  o.dratio = o.resolved_dratio();
  o.engine = o.resolved_engine();
  const layout::Grid grid = o.resolved_grid();
  o.pr = grid.pr;
  o.pc = grid.pc;
  return o;
}

sched::SessionOptions session_options_from(const Options& opt) {
  return sched::SessionOptions{opt.resolved_threads(), opt.pin_threads};
}

Options with_tune_key(const Options& opt, int m, int n) {
  if (opt.tune == TuneMode::Off || opt.tune_n != 0) return opt;
  Options o = opt;
  o.tune_n = std::min(m, n);
  return o;
}

layout::OwnerRunner owner_runner_from(const Options& opt,
                                      sched::ThreadTeam& team,
                                      int owner_shift) {
  if (!opt.first_touch || team.size() <= 1) return {};
  return [&team, owner_shift](int nowners,
                              const std::function<void(int)>& fill) {
    team.run([&](int tid) {
      // owner % p is how every engine maps Task::owner onto a thread, so
      // the pages a thread faults in here belong to the tasks it will
      // pop from its own queue later.  A fused job's owners are rotated
      // (sched::fused_owner_shift): owner g then runs on thread
      // (g + owner_shift) % p, so thread tid fills the owners g with
      // g = tid - owner_shift (mod p).
      const int p = team.size();
      for (int g = ((tid - owner_shift) % p + p) % p; g < nowners; g += p)
        fill(g);
    });
  };
}

sched::RunHooks run_hooks_from(const Options& opt, int team_size,
                               std::unique_ptr<noise::Injector>& injector) {
  sched::RunHooks hooks;
  hooks.recorder = opt.recorder;
  hooks.lookahead_depth = opt.lookahead_depth;
  if (opt.noise.enabled()) {
    injector = std::make_unique<noise::Injector>(opt.noise, team_size);
    hooks.injector = injector.get();
  }
  return hooks;
}

struct GetrfJob::Impl {
  CaluPlan plan;
  Precision precision;
  // Double jobs run directly on the caller's matrix.  Float32 jobs run on
  // a same-geometry converted copy and write back in finish(); only one
  // of the two runtimes exists.
  layout::PackedMatrix* caller = nullptr;
  layout::PackedMatrixT<float> a32;
  std::unique_ptr<Runtime<double>> rt64;
  std::unique_ptr<Runtime<float>> rt32;
  double plan_seconds = 0.0;
  double flops = 0.0;

  Impl(layout::PackedMatrix& a, const Options& opt)
      : plan(build_plan(a.tiling(), a.grid(), a.layout(),
                        opt.resolved_dratio(), opt.group_factor,
                        opt.pack_panels)),
        precision(opt.precision) {
    if (precision == Precision::Float32) {
      caller = &a;
      a32 = layout::PackedMatrixT<float>::convert_from(a);
      rt32 = std::make_unique<Runtime<float>>(a32, plan);
    } else {
      rt64 = std::make_unique<Runtime<double>>(a, plan);
    }
  }
};

GetrfJob::GetrfJob(layout::PackedMatrix& a, const Options& opt) {
  assert(a.tiling().b == opt.b);
  const auto t0 = std::chrono::steady_clock::now();
  impl_ = std::make_unique<Impl>(a, opt);
  if (opt.priority_class == PriorityClass::Batch) {
    // Batch-class jobs cede the priority-lookahead urgent queue: the flag
    // rides through TaskGraph::append verbatim, so a fused run keeps the
    // promotion fast lane exclusive to its Interactive jobs.
    sched::TaskGraph& g = impl_->plan.graph;
    for (int t = 0; t < g.num_tasks(); ++t) g.task(t).promotable = false;
  }
  impl_->plan_seconds = seconds_since(t0);
  impl_->flops = model::lu_flops(a.tiling().m, a.tiling().n);
}

GetrfJob::~GetrfJob() = default;
GetrfJob::GetrfJob(GetrfJob&&) noexcept = default;
GetrfJob& GetrfJob::operator=(GetrfJob&&) noexcept = default;

const sched::TaskGraph& GetrfJob::graph() const { return impl_->plan.graph; }

void GetrfJob::exec(int id, int tid) {
  if (impl_->rt32)
    impl_->rt32->exec(id, tid);
  else
    impl_->rt64->exec(id, tid);
}

double GetrfJob::plan_seconds() const { return impl_->plan_seconds; }

double GetrfJob::flops() const { return impl_->flops; }

Factorization GetrfJob::finish(sched::ThreadTeam& team) {
  return finish_on(&team);
}

Factorization GetrfJob::finish() { return finish_on(nullptr); }

Factorization GetrfJob::finish_on(sched::ThreadTeam* team) {
  Factorization f;
  auto fin = [&](auto& rt) {
    rt.apply_left_swaps(team);
    f.ipiv = rt.take_ipiv();
    f.stats.pack_tasks = rt.pack_tasks();
    f.stats.s_operand_packs = rt.s_operand_packs();
  };
  if (impl_->rt32) {
    fin(*impl_->rt32);
    // Left swaps must land while the factors are still float: swaps
    // commute with the (exact) float -> double conversion, but doing
    // them here keeps one code path and one write-back.
    impl_->a32.convert_into(*impl_->caller);
  } else {
    fin(*impl_->rt64);
  }
  f.stats.plan_seconds = impl_->plan_seconds;
  f.stats.tasks = impl_->plan.graph.num_tasks();
  f.stats.npanels = impl_->plan.npanels;
  f.stats.nstatic_panels = impl_->plan.nstatic;
  f.stats.precision = impl_->precision;
  f.stats.kernel = blas::active_kernel().name;
  return f;
}

Factorization getrf(layout::PackedMatrix& a, const Options& opt_in,
                    sched::Session& session) {
  Options opt = resolve(opt_in, a.tiling().m, a.tiling().n, session);
  opt.b = a.tiling().b;  // the caller's packing fixed the tile size
  GetrfJob job(a, opt);
  std::unique_ptr<noise::Injector> injector;
  sched::RunHooks hooks = run_hooks_from(opt, session.threads(), injector);

  auto exec = [&job](int id, int tid) { job.exec(id, tid); };
  const auto t0 = std::chrono::steady_clock::now();
  const sched::EngineStats engine_stats =
      session.run(job.graph(), exec, hooks, opt.engine);
  Factorization f = job.finish(session.team());
  f.stats.engine = engine_stats;
  f.stats.factor_seconds = seconds_since(t0);
  f.stats.gflops = model::gflops(job.flops(), f.stats.factor_seconds);
  if (injector) {
    f.stats.noise_delta_max = injector->delta_max();
    f.stats.noise_delta_avg = injector->delta_avg();
  }
  return f;
}

int team_share(std::size_t bytes, int team_size) {
  constexpr std::size_t kBytesPerThread = std::size_t{1} << 20;
  const std::size_t share = bytes / kBytesPerThread;
  return static_cast<int>(std::clamp<std::size_t>(
      share, 1, static_cast<std::size_t>(std::max(team_size, 1))));
}

void unpack_factors(const layout::PackedMatrix& p, layout::Matrix& lu,
                    const Options& opt, sched::ThreadTeam& team) {
  const layout::Tiling& t = p.tiling();
  if (lu.rows() != t.m || lu.cols() != t.n)
    lu = layout::Matrix::uninitialized(t.m, t.n);
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(t.m) *
                            static_cast<std::size_t>(t.n);
  const bool spread = team_share(bytes, team.size()) > 1;
  p.unpack(lu, spread ? owner_runner_from(opt, team) : layout::OwnerRunner{});
}

layout::PackedMatrix pack_for(const layout::Matrix& a, Options& opt,
                              sched::Session& session,
                              const layout::Matrix* rhs, bool square) {
  // A bad shape or tile size would otherwise read and write out of
  // bounds, or divide by zero, where no assert of a Release build looks.
  throw_if_error(check_input(&a, rhs, square, opt.b));
  // The Matrix-level drivers own the packing, so the tuned tile size that
  // resolve() writes into `b` is the one packed with (GetrfJob's b-match
  // contract then holds by construction).
  opt = resolve(opt, a.rows(), a.cols(), session);
  return layout::PackedMatrix::pack(a, opt.layout, opt.b, opt.resolved_grid(),
                                    owner_runner_from(opt, session.team()));
}

void require_square(const layout::PackedMatrix& a) {
  if (a.tiling().m != a.tiling().n) throw_if_error(JobError::NotSquare);
}

Factorization getrf(layout::Matrix& a, const Options& opt_in,
                    sched::Session& session) {
  Options opt = opt_in;
  layout::PackedMatrix p = pack_for(a, opt, session);
  Factorization f = getrf(p, opt, session);
  unpack_factors(p, a, opt, session.team());
  return f;
}

Factorization getrf(layout::Matrix& a, const Options& opt) {
  sched::Session ephemeral(session_options_from(opt));
  return getrf(a, opt, ephemeral);
}

}  // namespace calu::core
