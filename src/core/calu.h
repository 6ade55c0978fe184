// calu.h — CALU with hybrid static/dynamic scheduling: the paper's core
// contribution (Algorithms 1 and 2).
//
// One task dependency graph drives every schedule in the Table-1 design
// space.  The first Nstatic = N*(1 - dratio) panels' tasks are owned by
// threads through the 2-D block-cyclic distribution and served from
// per-thread priority queues; tasks of the trailing panels go to a shared
// global queue in DFS order.  Threads always prefer their static queue
// (progress on the critical path, data locality) and fall back to the
// dynamic queue when idle — Algorithm 1's dynamic_tasks().  Static and
// dynamic scheduling are dratio = 0 / 1 on the "hybrid" engine; the
// related-work baseline is engine = "work-stealing" over the same graph.
// Options::engine + Options::dratio are the whole executor selector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/layout/grid.h"
#include "src/layout/matrix.h"
#include "src/layout/packed.h"
#include "src/noise/noise.h"
#include "src/sched/engine.h"
#include "src/sched/session.h"
#include "src/sched/thread_team.h"
#include "src/trace/trace.h"

namespace calu::core {

/// Element precision a factorization runs at.  Float32 runs the SAME task
/// graph and engine on a float copy of the packed matrix (the engines are
/// precision-agnostic — they only move task ids); it exists for the
/// mixed-precision solver gesv_mixed, which refines the float factors back
/// to double accuracy.
enum class Precision : std::uint8_t { Double, Float32 };

const char* precision_name(Precision p);

/// Scheduling class for a request inside a fused engine run.  Interactive
/// jobs keep the priority-lookahead engine's urgent-queue promotion for
/// their panel-column tasks; Batch jobs run without promotion, yielding
/// the critical-path fast lane to the interactive traffic sharing the
/// run.  Engines other than priority-lookahead treat both classes alike.
enum class PriorityClass : std::uint8_t { Interactive, Batch };

const char* priority_class_name(PriorityClass c);

/// Autotuning policy for the {dratio, b, engine, lookahead_depth} knobs
/// (src/tune/autotuner.h).  Off uses the fields as set.  Auto has
/// resolve() write the per-host tuning profile's choice into the fields,
/// once per job — a profile miss triggers a one-time model-seeded
/// calibration for the (n, threads, kernel, topology) key, persisted
/// thereafter.  Force recalibrates the key (once per process) even when
/// a profile entry exists, e.g. after a hardware or load-environment
/// change the key cannot see.
enum class TuneMode : std::uint8_t { Off, Auto, Force };

const char* tune_mode_name(TuneMode m);

/// What a caller asks of one factorization.  The drivers run it through
/// resolve() once per job, which writes every derived value (thread
/// count, grid, tuned knobs) into these fields; the resolved_*()
/// accessors are pure reads of them.
struct Options {
  int b = 100;                // tile size (the paper uses b = 100)
  /// Fraction of panels scheduled dynamically: 0 is fully static, 1 fully
  /// dynamic, anything between the paper's hybrid.
  double dratio = 0.10;
  layout::Layout layout = layout::Layout::BlockCyclic;
  int threads = 0;            // 0 = all hardware threads
  int pr = 0, pc = 0;         // thread grid; 0 = near-square auto
  int group_factor = 3;       // k: group k owned tiles per GEMM (BCL static)
  /// Pack each panel's L tiles and U block row once per step (pL/pU DAG
  /// tasks) and feed every S task the shared packed operands — O(nb)
  /// packs per step instead of O(nb^2).  Off: each S task packs its own
  /// operands.  Results are bit-identical either way.
  bool pack_panels = true;
  bool pin_threads = true;
  /// Ownership-ordered first-touch packing: each grid owner's block-
  /// cyclic buffer is allocated and filled by the team thread that will
  /// run its P/pL/pU tasks (owner % threads), so under a first-touch
  /// NUMA policy the panel pages land on that thread's node.  Packed
  /// bits are identical either way; off restores the serial caller-
  /// thread pack (useful as the "remote pages" baseline in benches).
  bool first_touch = true;
  trace::Recorder* recorder = nullptr;  // optional timeline capture
  noise::NoiseSpec noise{};             // optional transient-load injection
  /// Executor registry name ("hybrid", "locality-tags", "work-stealing",
  /// "numa-hierarchical", "priority-lookahead", or any engine registered
  /// via sched::register_engine).  Empty = "hybrid", or the tuned engine
  /// under Auto/Force (resolve() writes it in).
  std::string engine;
  /// "priority-lookahead" window: panel-column tasks within this many
  /// panels of the completion frontier are promoted to the engine's
  /// shared urgent queue.  Other engines ignore it.
  int lookahead_depth = 4;
  /// Iterative-refinement step cap for the solve drivers (gesv and the
  /// batched solve paths).  Formerly a trailing parameter on every gesv
  /// overload; folding it here lets per-job Options carry it through the
  /// batch layer.  0 disables refinement.
  int max_refine = 2;
  /// Factorization element type.  Per-job Options carry it through the
  /// batch layer, so a fused engine run can mix double and float32 jobs.
  Precision precision = Precision::Double;
  /// Urgent-queue eligibility under the priority-lookahead engine; the
  /// async sched::Service maps its two request classes onto this.
  PriorityClass priority_class = PriorityClass::Interactive;
  /// Autotuning of {dratio, b, engine, lookahead_depth}: Off uses the
  /// fields above verbatim; under Auto/Force resolve() overwrites them
  /// from the per-host tuning profile (an explicitly set `engine` still
  /// wins) and returns tune = Off.
  TuneMode tune = TuneMode::Off;
  /// Problem-size key for the tuner (min(m, n)).  resolve() stamps it
  /// from the matrix when left 0, so callers never set it; pre-setting
  /// is only useful to warm a profile entry up front.
  int tune_n = 0;

  int resolved_threads() const;  ///< `threads`, 0 = all hardware threads
  /// {pr, pc} when both are set, else the near-square grid for
  /// resolved_threads().
  layout::Grid resolved_grid() const;
  /// `dratio` clamped to [0, 1] (out-of-range values warn once per
  /// process).
  double resolved_dratio() const;
  int resolved_b() const;  ///< `b`
  /// The registry key: `engine`, or "hybrid" when it is empty.
  std::string resolved_engine() const;
};

/// `opt` with every derived value written into its fields, for one m x n
/// job on `session`: threads (0 = session.threads()), tune_n (0 =
/// min(m, n)), under TuneMode::Auto/Force the tuned b, dratio, engine
/// (unless set) and lookahead_depth, then the clamped dratio, the engine
/// ("hybrid" when empty) and the grid as pr/pc.  The result has tune =
/// Off, so resolving it again changes nothing.  This is the one place
/// that consults the tuner (tune::decision_for), and every driver calls
/// it once per job: pack_for, the PackedMatrix-level getrf / potrf /
/// getrf_incpiv (which then keep the b of the caller's packing) and
/// batched_run.
Options resolve(const Options& opt, int m, int n,
                const sched::Session& session);

struct Stats {
  double factor_seconds = 0.0;  // engine run + deferred left swaps
  double plan_seconds = 0.0;    // task-graph construction
  double gflops = 0.0;          // lu_flops / factor_seconds
  sched::EngineStats engine;
  int tasks = 0;
  int npanels = 0;
  int nstatic_panels = 0;
  /// Operand packs feeding the S-task gemms: pL/pU task executions when
  /// pack_panels is on (O(nb) per step), 2 per S task when off (O(nb^2)).
  std::uint64_t s_operand_packs = 0;
  std::uint64_t pack_tasks = 0;  // pL/pU tasks executed
  double noise_delta_max = 0.0;  // measured δmax/δavg when noise is on
  double noise_delta_avg = 0.0;
  /// Precision the numerics actually ran at and the SIMD kernel variant
  /// they dispatched to — mirrors the "dispatched" stamp the benches put
  /// in BENCH_kernels.json, so traces/results are self-describing.
  Precision precision = Precision::Double;
  std::string kernel;
};

struct Factorization {
  /// Absolute-row swap sequence, LAPACK order: row i was swapped with row
  /// ipiv[i], i ascending.  Length min(m, n).
  std::vector<int> ipiv;
  Stats stats;
};

/// A prepared CALU job: the plan and mutable runtime state of one
/// factorization, with the task graph and task bodies exposed so the
/// batch layer can fuse many jobs into a single engine run
/// (sched::Session::run_fused, src/core/batch.cpp).  getrf() itself is
/// implemented as prepare → run → finish over this class, so fused and
/// sequential execution share every line of numerics and bit-identity
/// between them holds by construction.
class GetrfJob {
 public:
  /// Builds the plan and runtime for `a`, which must have been packed
  /// with opt.b and opt.resolved_grid() and must outlive the job.  `opt`
  /// is read as set (pass it through resolve() for tuning).  With
  /// opt.precision == Float32 the tasks run on an internally converted
  /// same-geometry float copy, and finish() writes the factors back into
  /// `a` (float -> double conversion is exact, so `a` then holds the
  /// float-accuracy factors bit-for-bit).
  GetrfJob(layout::PackedMatrix& a, const Options& opt);
  ~GetrfJob();
  GetrfJob(GetrfJob&&) noexcept;
  GetrfJob& operator=(GetrfJob&&) noexcept;

  /// The job's finalized task graph.  Ids are job-local: when fused, the
  /// session translates fused ids back before calling exec().
  const sched::TaskGraph& graph() const;

  /// Executes one task (job-local id).  Thread-safe under the engine's
  /// dependency ordering, like any task body.
  void exec(int id, int tid);

  /// Applies the deferred left swaps and extracts pivots + plan/task/pack
  /// stats.  Call exactly once, after every task of graph() executed.
  /// Engine counters and wall-clock attribution belong to the caller that
  /// ran the graph.
  Factorization finish(sched::ThreadTeam& team);

  /// finish() with the left swaps applied serially on the calling thread
  /// — for an epilogue that already runs one job per team thread.  Bit-
  /// identical to the team variant.
  Factorization finish();

  double plan_seconds() const;
  double flops() const;  ///< model LU flop count, for gflops attribution

 private:
  Factorization finish_on(sched::ThreadTeam* team);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Factor a packed matrix in place on a caller-provided session: `opt`
/// is resolved for the packed shape (keeping the packing's b), the
/// session's pinned team executes the DAG under the resolved engine
/// (cached in the session), and the run's counters fold into
/// session.totals().  The plan follows the packing's grid; opt.threads
/// does not resize the team (the session owns its lifetime).
Factorization getrf(layout::PackedMatrix& a, const Options& opt,
                    sched::Session& session);

/// Convenience: packs `a` into opt.layout (pack_for, which throws
/// std::invalid_argument for b < 1), factors, and unpacks the combined L
/// and U factors back into `a` (column-major, LAPACK getrf layout).
Factorization getrf(layout::Matrix& a, const Options& opt);

/// Session variant of the column-major convenience driver.
Factorization getrf(layout::Matrix& a, const Options& opt,
                    sched::Session& session);

/// The Matrix-level drivers' boundary step (getrf, potrf, gesv,
/// gesv_mixed).  First it checks the call, in Release builds too, with
/// the checks and messages of core::validate (batch.h): `rhs`, when
/// given, needs a square `a` with as many rows; `square` (Cholesky) asks
/// for a square `a`; opt.b must be at least 1.  A bad call throws
/// std::invalid_argument before anything is allocated.  Then it resolves
/// `opt` (resolve()) and packs `a` (only read) into opt.layout on the
/// session team, each owner's tiles first-touched by the thread that
/// will factor them.  `opt` is then the Options to factor the result
/// with.
layout::PackedMatrix pack_for(const layout::Matrix& a, Options& opt,
                              sched::Session& session,
                              const layout::Matrix* rhs = nullptr,
                              bool square = false);

/// Writes the factored `p` into `lu` (column-major), first allocating it
/// with Matrix::uninitialized when its shape differs from p's.  Above
/// the team_share() floor the copy-out runs owner-parallel on `team`
/// through owner_runner_from(); below it (and with first_touch off) it
/// stays on the caller.  The bits are the same either way.
void unpack_factors(const layout::PackedMatrix& p, layout::Matrix& lu,
                    const Options& opt, sched::ThreadTeam& team);

/// How many team threads a streaming pass over `bytes` of matrix data
/// (the factor unpack, the solve residual) is spread across: one per
/// MiB, capped at `team_size`, never below 1.  1 means the pass stays on
/// the calling thread, so small jobs — a batch of n <= ~360 systems —
/// pay no team dispatch for their epilogue.  A fixed internal floor, not
/// an Options knob: the passes are memory-bound and the crossover is a
/// property of dispatch cost versus bandwidth, not of the caller.
int team_share(std::size_t bytes, int team_size);

/// `opt` with the tuner's problem-size key stamped from the matrix shape
/// (min(m, n)) when tuning is on and the caller left tune_n at 0.  For
/// hand-rolled step sequences; the drivers get the same key from
/// resolve().
Options with_tune_key(const Options& opt, int m, int n);

/// Engine RunHooks from Options — the single source for the Options →
/// hooks wiring every factorization driver (CALU, Cholesky, incpiv)
/// shares, so a new hook field cannot be forgotten in one of them.  When
/// noise is enabled the injector is allocated into `injector`; the caller
/// keeps it alive through the run and reads its delta stats afterwards.
sched::RunHooks run_hooks_from(const Options& opt, int team_size,
                               std::unique_ptr<noise::Injector>& injector);

/// SessionOptions from Options — likewise the single source for the
/// Options → session wiring every one-shot ("ephemeral session, run
/// once") entry point shares.
sched::SessionOptions session_options_from(const Options& opt);

/// The ownership-ordered first-touch runner for PackedMatrix::pack —
/// owner g fills on team thread (g + owner_shift) % p, mirroring how
/// every engine routes owned tasks.  owner_shift is 0 for a job run on
/// its own and sched::fused_owner_shift(j, p) for job j of a fused run,
/// whose owners Session::run_fused rotates.  Empty (serial pack) when
/// Options::first_touch is off or the team is a single thread.  The
/// returned runner borrows `team`; use it before the team is torn down.
layout::OwnerRunner owner_runner_from(const Options& opt,
                                      sched::ThreadTeam& team,
                                      int owner_shift = 0);

}  // namespace calu::core
