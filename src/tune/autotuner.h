// autotuner.h — model-driven selection of {dratio, b, engine,
// lookahead_depth} per (n, threads, kernel variant, topology).
//
// ROADMAP item 5: the paper's headline result is that the best static
// fraction is machine- and load-dependent (Theorem 1 bounds it by the
// noise spread over T1/p), so hand-set knobs cannot survive deployment.
// The Autotuner turns src/model/theorem1.* into a runtime policy:
//
//   model seed  ->  Theorem 1 + the Section-6 overhead terms rank a small
//                   candidate grid (dratio from min_dynamic_fraction, b
//                   from the task-granularity trade, engine from the
//                   topology shape);
//   calibrate   ->  the top-ranked candidates are measured through an
//                   injectable MeasureFn (production: one real small
//                   factorization per candidate; tests: synthetic costs,
//                   zero wall clock);
//   persist     ->  the winner lands in a versioned per-host JSON profile
//                   (ProfileStore seam; $CALU_TUNE_PROFILE), so the
//                   calibration price is paid once per machine.
//
// Consumers never talk to this header directly: core::Options carries
// `tune = TuneMode::{Off,Auto,Force}`, and core::resolve() — called once
// per job by every driver and by batched_run — writes decision_for()'s
// choice into the job's Options.  Session, Service, and batched_run
// inherit tuned choices with zero call-site changes.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/tune/profile.h"

namespace calu::core {
struct Options;  // calu.h; bridged by decision_for() without a cycle
}

namespace calu::tune {

/// What a tuning decision is keyed by: any change to one of these fields
/// invalidates nothing but its own bucket — a rebuilt container with a
/// different SIMD variant or cpuset recalibrates, entries for the old
/// shape stay (the machine may come back).
struct Key {
  int n = 0;         ///< problem size (min(m, n)); 0 = size-agnostic
  int threads = 1;   ///< team size the decision applies to
  std::string kernel;    ///< dispatched micro-kernel variant name
  std::string topology;  ///< sched::Topology::summary() shape string

  /// Stable serialization used as the profile map key.
  std::string str() const;
};

/// Theorem-1 / Section-6 model inputs for candidate seeding, all in flop
/// units relative to T1 = lu_flops(n, n).
struct SeedParams {
  /// (δmax − δavg) / (T1/p): the measured noise spread that Theorem 1
  /// turns into a minimum dynamic fraction.  The default models the few
  /// percent of transient OS load the paper's Section 1 motivates with;
  /// calibration can overwrite it with a live probe (see
  /// TunerConfig::spread_probe_reps).
  double spread_frac = 0.05;
  /// Section-6 Toverhead: dequeue + dependency bookkeeping per task.
  double task_overhead_flops = 5.0e4;
  /// Section-6 Tmigration: coherence-miss cost of running a task on a
  /// core that does not own its data, paid by the dynamic fraction.
  double migration_frac = 0.03;
  /// Scale on the Section-6 TcriticalPath term (model::lu_cost's
  /// calu_critical_path_flops); 0 drops the term.
  double critical_path_frac = 1.0;
};

/// Candidate cost under the model (arbitrary flop-denominated units;
/// only the ordering matters).  Exposed so tests can assert the seeding
/// is exactly Theorem 1 + overhead terms and nothing else.
double predicted_cost(const Key& key, const Decision& d,
                      const SeedParams& sp);

/// The model-seeded candidate grid for `key`, ordered by predicted_cost
/// ascending (deterministic tie-break on engine/b/dratio).  The first
/// entry is the pure model pick — what TuneMode::Auto degrades to when
/// no measurement is possible.
std::vector<Decision> seed_candidates(const Key& key, const SeedParams& sp);

/// candidate -> cost seam.  Production measures wall clock; unit tests
/// inject synthetic costs so every decision path is deterministic.
using MeasureFn = std::function<double(const Key&, const Decision&)>;

struct TunerConfig {
  SeedParams seed;
  /// Candidates measured per calibration (top-k by predicted cost).
  int top_k = 4;
  /// > 1: measure the model's first pick this many times before seeding
  /// and feed the observed relative spread (max − avg) / avg into
  /// SeedParams::spread_frac — the "measured noise spread" input of the
  /// Theorem-1 bound.  0/1 keeps the configured spread_frac.
  int spread_probe_reps = 0;
};

/// The tuner.  Thread-safe: resolve() serializes on an internal mutex
/// (concurrent callers of the same key wait for one calibration instead
/// of racing N).  Never throws on storage problems — a corrupt profile
/// is regenerated (one warning), an unwritable one degrades to
/// in-memory caching (one warning).
class Autotuner {
 public:
  Autotuner(std::shared_ptr<ProfileStore> store, MeasureFn measure,
            TunerConfig cfg = {});

  /// The decision for `key`: profile hit when present, otherwise model
  /// seed -> calibrate -> persist.  `force` recalibrates even on a hit
  /// (once per key per process) — TuneMode::Force.
  Decision resolve(const Key& key, bool force = false);

  /// Model-seeded candidates under this tuner's configured SeedParams.
  std::vector<Decision> candidates(const Key& key) const;

  /// Swaps the measure function (test seam for the global tuner; also
  /// how the bench lane runs the real calibration with custom reps).
  void set_measure(MeasureFn measure);

  /// Introspection for tests and bench reporting.
  int calibrations() const;   ///< measure-based resolutions so far
  int profile_hits() const;   ///< resolutions served from the profile
  bool recovered_corrupt() const;  ///< a corrupt document was regenerated
  bool persist_failed() const;     ///< a save was refused by the store
  SeedParams last_seed() const;    ///< params the last calibration used
  Profile snapshot() const;        ///< copy of the in-memory profile

 private:
  void ensure_loaded_locked();
  Decision calibrate_locked(const Key& key);

  mutable std::mutex mu_;
  std::shared_ptr<ProfileStore> store_;
  MeasureFn measure_;
  TunerConfig cfg_;
  Profile profile_;
  bool load_attempted_ = false;
  bool warned_corrupt_ = false;
  bool warned_unwritable_ = false;
  std::set<std::string> forced_done_;
  int calibrations_ = 0;
  int hits_ = 0;
  bool recovered_corrupt_ = false;
  bool persist_failed_ = false;
  SeedParams last_seed_;
};

/// Process-wide tuner: FileProfileStore at default_profile_path() and the
/// real (wall-clock) measure function.  Constructed lazily on first use;
/// never destroyed (a driver run from a static destructor may still
/// resolve a tuned job).
Autotuner& global_autotuner();

/// The production MeasureFn: factors one random n×n matrix (n from the
/// key, capped for sanity) under the candidate's knobs with tune = Off
/// and returns factor_seconds.  Exposed so the bench lane can rebuild
/// the global recipe with its own reps/profile path.
MeasureFn real_measure(int reps = 1);

/// Bridges core::Options (TuneMode::Auto/Force) to the global tuner:
/// builds the Key from {tune_n, resolved_threads, active kernel variant,
/// system topology} and resolves it.  Its one caller is core::resolve()
/// (core/calu.cpp).
Decision decision_for(const core::Options& opt);

}  // namespace calu::tune
