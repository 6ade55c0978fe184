// tune_test.cpp — the autotuner's decision paths, fully deterministic.
//
// Every test drives the Autotuner through the two injected seams — a fake
// MeasureFn (candidate -> synthetic cost, zero wall clock) and a
// MemoryProfileStore — so model seeding, candidate pruning, profile
// hit/miss/stale, version migration, and corrupt-file recovery are all
// covered without timing anything.  The concurrent-resolve cases double as
// the TSan payload: this binary carries both the "unit" and "stress"
// CTest labels.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/core/batch.h"
#include "src/core/calu.h"
#include "src/core/solve.h"
#include "src/sched/session.h"
#include "src/tune/autotuner.h"
#include "src/tune/profile.h"

namespace calu {
namespace {

using tune::Autotuner;
using tune::Decision;
using tune::Key;
using tune::LoadStatus;
using tune::MemoryProfileStore;
using tune::Profile;
using tune::SeedParams;
using tune::TunerConfig;

/// The global tuner saves to $CALU_TUNE_PROFILE, else to
/// calu_tune_profile.json in the working directory.  The global-tuner
/// tests below feed it synthetic costs, which a later real TuneMode::Auto
/// run from that directory would read as profile hits.  So, unless the
/// variable is already set (e.g. to /dev/null), point it at a temp file
/// of this process before the tuner is first used, and delete the file
/// at exit.
class TempGlobalProfile : public ::testing::Environment {
 public:
  void SetUp() override {
    if (const char* env = std::getenv("CALU_TUNE_PROFILE");
        env != nullptr && env[0] != '\0')
      return;
    const char* tmp = std::getenv("TMPDIR");
    std::string dir = std::string(tmp != nullptr && tmp[0] != '\0' ? tmp
                                                                   : "/tmp") +
                      "/calu_tune_test_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr) << "mkdtemp " << dir;
    dir_ = dir;
    path_ = dir_ + "/profile.json";
    ASSERT_EQ(::setenv("CALU_TUNE_PROFILE", path_.c_str(), 1), 0);
  }
  void TearDown() override {
    if (dir_.empty()) return;
    std::remove(path_.c_str());
    ::rmdir(dir_.c_str());
  }

 private:
  std::string dir_, path_;
};

[[maybe_unused]] ::testing::Environment* const kTempGlobalProfile =
    ::testing::AddGlobalTestEnvironment(new TempGlobalProfile);

Key make_key(int n = 512, int threads = 4, std::string kernel = "testk",
             std::string topo = "1pkg/1l3/4core/1smt") {
  Key k;
  k.n = n;
  k.threads = threads;
  k.kernel = std::move(kernel);
  k.topology = std::move(topo);
  return k;
}

/// Synthetic cost with a unique, predictable minimum: prefers the
/// priority-lookahead engine, b = 96, lookahead 2, and the smallest
/// dratio — a point the pure model would not rank first, so tests can
/// tell "measured winner" apart from "model pick".
double synthetic_cost(const Decision& d) {
  double c = 1000.0 + std::abs(d.b - 96);
  if (d.engine != "priority-lookahead") c += 500.0;
  if (d.lookahead_depth != 2) c += 50.0;
  c += 10.0 * d.dratio;
  return c;
}

tune::MeasureFn fake_measure(std::shared_ptr<std::atomic<int>> calls) {
  return [calls](const Key&, const Decision& d) {
    calls->fetch_add(1, std::memory_order_relaxed);
    return synthetic_cost(d);
  };
}

// ----------------------------------------------------- model seeding ---

TEST(TuneSeeding, CandidatesOrderedByPredictedCostAndDeterministic) {
  const Key key = make_key();
  const SeedParams sp;
  const std::vector<Decision> cands = tune::seed_candidates(key, sp);
  ASSERT_FALSE(cands.empty());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    // The stored score is exactly the exposed model, nothing else.
    EXPECT_DOUBLE_EQ(cands[i].predicted,
                     tune::predicted_cost(key, cands[i], sp))
        << "candidate " << i;
    if (i > 0) {
      EXPECT_GE(cands[i].predicted, cands[i - 1].predicted)
          << "candidate " << i;
    }
  }
  // Deterministic: a second seeding reproduces the sequence bit-for-bit.
  const std::vector<Decision> again = tune::seed_candidates(key, sp);
  ASSERT_EQ(again.size(), cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    EXPECT_EQ(again[i].engine, cands[i].engine);
    EXPECT_EQ(again[i].b, cands[i].b);
    EXPECT_EQ(again[i].lookahead_depth, cands[i].lookahead_depth);
    EXPECT_DOUBLE_EQ(again[i].dratio, cands[i].dratio);
  }
}

TEST(TuneSeeding, ZeroNoiseSeedsFullyStatic) {
  // Theorem 1 with δmax == δavg: nothing to rebalance, and the Section-6
  // migration term then makes cost strictly increasing in dratio — the
  // model's first pick must be the fully static schedule.
  SeedParams sp;
  sp.spread_frac = 0.0;
  const auto cands = tune::seed_candidates(make_key(), sp);
  ASSERT_FALSE(cands.empty());
  EXPECT_DOUBLE_EQ(cands.front().dratio, 0.0);
}

TEST(TuneSeeding, NoisePushesSeededDynamicFractionUp) {
  SeedParams noisy;
  noisy.spread_frac = 0.5;
  const auto cands = tune::seed_candidates(make_key(), noisy);
  ASSERT_FALSE(cands.empty());
  EXPECT_GT(cands.front().dratio, 0.0);
}

TEST(TuneSeeding, EngineGridFollowsThreadsAndTopology) {
  const SeedParams sp;
  auto engines = [&](const Key& k) {
    std::vector<std::string> es;
    for (const Decision& d : tune::seed_candidates(k, sp))
      if (std::find(es.begin(), es.end(), d.engine) == es.end())
        es.push_back(d.engine);
    std::sort(es.begin(), es.end());
    return es;
  };
  // p = 1: every engine degenerates to the same serial schedule.
  EXPECT_EQ(engines(make_key(512, 1)),
            (std::vector<std::string>{"hybrid"}));
  // Flat machine: no cache distances for numa-hierarchical to exploit.
  EXPECT_EQ(engines(make_key(512, 4, "testk", "1pkg/1l3/4core/1smt")),
            (std::vector<std::string>{"hybrid", "priority-lookahead"}));
  // Two L3 groups: the distance-aware engine joins the grid.
  EXPECT_EQ(engines(make_key(512, 4, "testk", "1pkg/2l3/8core/1smt")),
            (std::vector<std::string>{"hybrid", "numa-hierarchical",
                                      "priority-lookahead"}));
  // Lookahead depth is only a free knob for priority-lookahead.
  for (const Decision& d : tune::seed_candidates(make_key(), sp)) {
    if (d.engine == "priority-lookahead")
      EXPECT_TRUE(d.lookahead_depth == 2 || d.lookahead_depth == 4);
    else
      EXPECT_EQ(d.lookahead_depth, 4);
  }
}

// ------------------------------------------------ calibrate & persist ---

TEST(TuneAutotuner, BestMeasuredCandidateWins) {
  auto store = std::make_shared<MemoryProfileStore>();
  auto calls = std::make_shared<std::atomic<int>>(0);
  TunerConfig cfg;
  cfg.top_k = 10000;  // measure the whole grid: the winner is global
  Autotuner tuner(store, fake_measure(calls), cfg);

  const Key key = make_key();
  const Decision d = tuner.resolve(key);
  EXPECT_EQ(d.engine, "priority-lookahead");
  EXPECT_EQ(d.b, 96);
  EXPECT_EQ(d.lookahead_depth, 2);
  // Smallest dratio the grid offers for that (engine, b) — the synthetic
  // cost is strictly increasing in dratio.
  double min_dr = 1.0;
  for (const Decision& c : tuner.candidates(key))
    if (c.engine == "priority-lookahead" && c.b == 96 &&
        c.lookahead_depth == 2)
      min_dr = std::min(min_dr, c.dratio);
  EXPECT_DOUBLE_EQ(d.dratio, min_dr);
  EXPECT_DOUBLE_EQ(d.measured, synthetic_cost(d));
  EXPECT_EQ(tuner.calibrations(), 1);
  EXPECT_GT(calls->load(), 0);
  EXPECT_EQ(store->saves, 1);  // persisted immediately
}

TEST(TuneAutotuner, TopKPrunesToModelRankedPrefix) {
  auto store = std::make_shared<MemoryProfileStore>();
  auto calls = std::make_shared<std::atomic<int>>(0);
  TunerConfig cfg;
  cfg.top_k = 3;
  Autotuner tuner(store, fake_measure(calls), cfg);
  tuner.resolve(make_key());
  EXPECT_EQ(calls->load(), 3);  // exactly the top-k, nothing else
}

TEST(TuneAutotuner, SecondResolveIsProfileHit) {
  auto store = std::make_shared<MemoryProfileStore>();
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(store, fake_measure(calls));

  const Key key = make_key();
  const Decision first = tuner.resolve(key);
  const int calls_after_first = calls->load();
  const Decision second = tuner.resolve(key);
  EXPECT_EQ(calls->load(), calls_after_first);  // no remeasure
  EXPECT_EQ(tuner.calibrations(), 1);
  EXPECT_EQ(tuner.profile_hits(), 1);
  EXPECT_EQ(second.engine, first.engine);
  EXPECT_EQ(second.b, first.b);
  EXPECT_DOUBLE_EQ(second.dratio, first.dratio);
}

TEST(TuneAutotuner, KeyMismatchForcesRecalibration) {
  auto store = std::make_shared<MemoryProfileStore>();
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(store, fake_measure(calls));

  tuner.resolve(make_key(512, 4));
  // A different thread count is a different machine shape as far as
  // Theorem 1 is concerned — and so is a rebuilt kernel variant.
  tuner.resolve(make_key(512, 8));
  tuner.resolve(make_key(512, 4, "avx512"));
  EXPECT_EQ(tuner.calibrations(), 3);
  EXPECT_EQ(tuner.profile_hits(), 0);
  // All three buckets coexist; none evicts another.
  EXPECT_EQ(tuner.snapshot().entries.size(), 3u);
}

TEST(TuneAutotuner, ProfileRoundTripAcrossTunerInstances) {
  auto store = std::make_shared<MemoryProfileStore>();
  const Key key = make_key();
  Decision saved;
  {
    auto calls = std::make_shared<std::atomic<int>>(0);
    Autotuner writer(store, fake_measure(calls));
    saved = writer.resolve(key);
    EXPECT_TRUE(store->present());
  }
  // A fresh tuner (new process, same machine) must serve the persisted
  // decision without calling its measure function at all.
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner reader(store, fake_measure(calls));
  const Decision loaded = reader.resolve(key);
  EXPECT_EQ(calls->load(), 0);
  EXPECT_EQ(reader.calibrations(), 0);
  EXPECT_EQ(reader.profile_hits(), 1);
  EXPECT_EQ(loaded.engine, saved.engine);
  EXPECT_EQ(loaded.b, saved.b);
  EXPECT_EQ(loaded.lookahead_depth, saved.lookahead_depth);
  EXPECT_DOUBLE_EQ(loaded.dratio, saved.dratio);
  EXPECT_DOUBLE_EQ(loaded.measured, saved.measured);
}

TEST(TuneAutotuner, ForceRecalibratesOncePerKeyPerProcess) {
  auto store = std::make_shared<MemoryProfileStore>();
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(store, fake_measure(calls));

  const Key key = make_key();
  tuner.resolve(key);                  // calibration 1
  tuner.resolve(key, /*force=*/true);  // TuneMode::Force: recalibrate
  EXPECT_EQ(tuner.calibrations(), 2);
  tuner.resolve(key, /*force=*/true);  // already forced: profile hit
  EXPECT_EQ(tuner.calibrations(), 2);
  EXPECT_EQ(tuner.profile_hits(), 1);
}

TEST(TuneAutotuner, NullMeasureDegradesToModelPick) {
  // TuneMode::Auto with no way to measure (the CI /dev/null lane's
  // degenerate cousin): the model's first pick is used, never measured.
  auto store = std::make_shared<MemoryProfileStore>();
  Autotuner tuner(store, tune::MeasureFn{});
  const Key key = make_key();
  const Decision d = tuner.resolve(key);
  const auto cands = tuner.candidates(key);
  ASSERT_FALSE(cands.empty());
  EXPECT_EQ(d.engine, cands.front().engine);
  EXPECT_EQ(d.b, cands.front().b);
  EXPECT_DOUBLE_EQ(d.dratio, cands.front().dratio);
  EXPECT_LT(d.measured, 0.0);  // model-seeded, not measured
  EXPECT_EQ(tuner.calibrations(), 0);
}

TEST(TuneAutotuner, SpreadProbeFeedsMeasuredNoiseIntoSeed) {
  auto store = std::make_shared<MemoryProfileStore>();
  // First three calls are the noise probe: costs 0.9, 1.0, 1.1 give
  // avg = 1.0, max = 1.1, so the measured spread is (1.1 - 1.0)/1.0.
  auto probe_calls = std::make_shared<std::atomic<int>>(0);
  tune::MeasureFn measure = [probe_calls](const Key&, const Decision& d) {
    const int i = probe_calls->fetch_add(1, std::memory_order_relaxed);
    if (i < 3) return 0.9 + 0.1 * i;
    return synthetic_cost(d);
  };
  TunerConfig cfg;
  cfg.seed.spread_frac = 0.0;  // the probe must overwrite this
  cfg.spread_probe_reps = 3;
  Autotuner tuner(store, measure, cfg);
  tuner.resolve(make_key());
  EXPECT_NEAR(tuner.last_seed().spread_frac, 0.1, 1e-9);
}

// ------------------------------------------------- profile documents ---

TEST(TuneProfile, SerializeParseRoundTrip) {
  Profile p;
  p.host = "1pkg/1l3/4core/1smt";
  Decision a;
  a.dratio = 0.25;
  a.b = 128;
  a.engine = "priority-lookahead";
  a.lookahead_depth = 2;
  a.predicted = 123.5;
  a.measured = 0.0625;
  Decision b;  // defaults, never measured
  p.entries[make_key(512, 4).str()] = a;
  p.entries[make_key(1024, 8, "avx512").str()] = b;

  Profile back;
  ASSERT_EQ(tune::parse_profile(tune::serialize_profile(p), back),
            LoadStatus::Ok);
  EXPECT_EQ(back.version, tune::kProfileVersion);
  EXPECT_EQ(back.host, p.host);
  ASSERT_EQ(back.entries.size(), 2u);
  const Decision& ra = back.entries.at(make_key(512, 4).str());
  EXPECT_DOUBLE_EQ(ra.dratio, a.dratio);
  EXPECT_EQ(ra.b, a.b);
  EXPECT_EQ(ra.engine, a.engine);
  EXPECT_EQ(ra.lookahead_depth, a.lookahead_depth);
  EXPECT_DOUBLE_EQ(ra.predicted, a.predicted);
  EXPECT_DOUBLE_EQ(ra.measured, a.measured);
  const Decision& rb = back.entries.at(make_key(1024, 8, "avx512").str());
  EXPECT_LT(rb.measured, 0.0);
}

TEST(TuneProfile, WhitespaceOnlyTextIsMissingNotCorrupt) {
  // /dev/null reads as zero bytes; that is "nothing stored" and must not
  // trigger the corruption warning.
  Profile p;
  EXPECT_EQ(tune::parse_profile("", p), LoadStatus::Missing);
  EXPECT_EQ(tune::parse_profile("  \n\t\r\n", p), LoadStatus::Missing);
}

TEST(TuneProfile, GarbageAndTruncationAreCorrupt) {
  Profile p;
  EXPECT_EQ(tune::parse_profile("not json at all", p), LoadStatus::Corrupt);
  EXPECT_EQ(tune::parse_profile("{\"version\": 2", p), LoadStatus::Corrupt);
  EXPECT_EQ(tune::parse_profile("[1, 2, 3]", p), LoadStatus::Corrupt);
  EXPECT_EQ(tune::parse_profile("{\"entries\": []}", p),
            LoadStatus::Corrupt);  // no version field
  // A valid document cut off mid-entry must not half-parse.
  Profile full;
  full.entries[make_key().str()] = Decision{};
  const std::string text = tune::serialize_profile(full);
  EXPECT_EQ(tune::parse_profile(text.substr(0, text.size() / 2), p),
            LoadStatus::Corrupt);
}

TEST(TuneProfile, VersionOneIsCorrupt) {
  // Only the current schema loads; an older document reads as Corrupt,
  // which the tuner's recovery path regenerates.
  const std::string v1 =
      "{ \"version\": 1, \"host\": \"h\", \"entries\": ["
      "  { \"key\": \"n=512;t=4;k=k;topo=t\", \"dratio\": 0.3,"
      "    \"b\": 64, \"engine\": \"hybrid\", \"measured\": 1.5 } ] }";
  Profile p;
  EXPECT_EQ(tune::parse_profile(v1, p), LoadStatus::Corrupt);
}

TEST(TuneProfile, CurrentVersionMissingLookaheadIsCorrupt) {
  const std::string v2 =
      "{ \"version\": 2, \"host\": \"h\", \"entries\": ["
      "  { \"key\": \"x\", \"dratio\": 0.3, \"b\": 64,"
      "    \"engine\": \"hybrid\" } ] }";
  Profile p;
  EXPECT_EQ(tune::parse_profile(v2, p), LoadStatus::Corrupt);
}

TEST(TuneProfile, FutureVersionIsCorrupt) {
  const std::string future =
      "{ \"version\": 99, \"host\": \"h\", \"entries\": [] }";
  Profile p;
  EXPECT_EQ(tune::parse_profile(future, p), LoadStatus::Corrupt);
}

// ------------------------------------------------- degraded storage ---

TEST(TuneAutotuner, CorruptProfileRegeneratedWithOneWarning) {
  auto store = std::make_shared<MemoryProfileStore>("{{{ wrecked");
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(store, fake_measure(calls));

  ::testing::internal::CaptureStderr();
  const Decision d = tuner.resolve(make_key());
  const std::string first = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("corrupt"), std::string::npos);
  EXPECT_TRUE(tuner.recovered_corrupt());
  EXPECT_EQ(d.engine, "priority-lookahead");  // calibration still ran

  // The wreck was overwritten with a valid document holding the entry.
  Profile regenerated;
  ASSERT_EQ(tune::parse_profile(store->text(), regenerated), LoadStatus::Ok);
  EXPECT_EQ(regenerated.entries.size(), 1u);

  // Warn once: further resolutions stay quiet.
  ::testing::internal::CaptureStderr();
  tuner.resolve(make_key(1024));
  const std::string second = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(second.find("corrupt"), std::string::npos);
}

TEST(TuneAutotuner, UnwritableStoreDegradesToInMemoryCaching) {
  auto store = std::make_shared<MemoryProfileStore>();
  store->fail_saves = true;
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(store, fake_measure(calls));

  const Key key = make_key();
  ::testing::internal::CaptureStderr();
  const Decision d = tuner.resolve(key);
  const std::string warn = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warn.find("unwritable"), std::string::npos);
  EXPECT_TRUE(tuner.persist_failed());
  EXPECT_EQ(d.engine, "priority-lookahead");  // decision still delivered

  // The in-memory profile still serves hits, and the warning stays once.
  ::testing::internal::CaptureStderr();
  tuner.resolve(key);
  tuner.resolve(make_key(1024));
  EXPECT_EQ(::testing::internal::GetCapturedStderr().find("unwritable"),
            std::string::npos);
  EXPECT_EQ(tuner.profile_hits(), 1);
}

TEST(TuneAutotuner, UnreadableStoreIsMissingNotCorrupt) {
  auto store = std::make_shared<MemoryProfileStore>("valid-but-unreadable");
  store->fail_loads = true;
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(store, fake_measure(calls));
  ::testing::internal::CaptureStderr();
  tuner.resolve(make_key());
  EXPECT_EQ(::testing::internal::GetCapturedStderr().find("corrupt"),
            std::string::npos);
  EXPECT_FALSE(tuner.recovered_corrupt());
  EXPECT_EQ(tuner.calibrations(), 1);
}

TEST(TuneFileStore, DevNullIsTheSupportedNoPersistenceMode) {
  // CI's degraded lane sets CALU_TUNE_PROFILE=/dev/null: loads find
  // nothing (no corruption warning), saves succeed into the void, and
  // per-process in-memory caching keeps Auto functional.
  auto store = std::make_shared<tune::FileProfileStore>("/dev/null");
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(store, fake_measure(calls));
  const Key key = make_key();
  ::testing::internal::CaptureStderr();
  const Decision d = tuner.resolve(key);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(d.engine, "priority-lookahead");
  EXPECT_FALSE(tuner.persist_failed());
  EXPECT_FALSE(tuner.recovered_corrupt());
  tuner.resolve(key);
  EXPECT_EQ(tuner.profile_hits(), 1);
  EXPECT_EQ(tuner.calibrations(), 1);
}

TEST(TuneFileStore, RoundTripOnDisk) {
  const std::string path = "tune_test_profile.tmp.json";
  std::remove(path.c_str());
  const Key key = make_key();
  Decision saved;
  {
    auto calls = std::make_shared<std::atomic<int>>(0);
    Autotuner writer(std::make_shared<tune::FileProfileStore>(path),
                     fake_measure(calls));
    saved = writer.resolve(key);
  }
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner reader(std::make_shared<tune::FileProfileStore>(path),
                   fake_measure(calls));
  const Decision loaded = reader.resolve(key);
  EXPECT_EQ(calls->load(), 0);
  EXPECT_EQ(loaded.engine, saved.engine);
  EXPECT_EQ(loaded.b, saved.b);
  EXPECT_DOUBLE_EQ(loaded.dratio, saved.dratio);
  std::remove(path.c_str());
}

// ------------------------------------------------ Options integration ---

TEST(TuneOptions, WithTuneKeyStampsProblemSize) {
  core::Options off;
  EXPECT_EQ(core::with_tune_key(off, 300, 200).tune_n, 0);  // Off: no-op
  core::Options on;
  on.tune = core::TuneMode::Auto;
  EXPECT_EQ(core::with_tune_key(on, 300, 200).tune_n, 200);  // min(m, n)
  on.tune_n = 777;  // an already-stamped key is never overwritten
  EXPECT_EQ(core::with_tune_key(on, 300, 200).tune_n, 777);
}

/// Swaps the global tuner's measure for the synthetic one for one test,
/// so it stays wall-clock-free, and restores the production measure for
/// any later user of the global.  (Under the CI degraded lane
/// CALU_TUNE_PROFILE=/dev/null these tests exercise the no-persistence
/// path.)
struct FakeGlobalMeasure {
  FakeGlobalMeasure() {
    tune::global_autotuner().set_measure(
        fake_measure(std::make_shared<std::atomic<int>>(0)));
  }
  ~FakeGlobalMeasure() {
    tune::global_autotuner().set_measure(tune::real_measure());
  }
};

/// Lookups the global tuner has served: profile hits plus calibrations.
int global_lookups() {
  const Autotuner& t = tune::global_autotuner();
  return t.profile_hits() + t.calibrations();
}

core::Options auto_options() {
  core::Options o;
  o.tune = core::TuneMode::Auto;
  o.threads = 2;
  return o;
}

TEST(TuneOptions, AutoResolvesThroughGlobalTuner) {
  // resolve() writes the tuned knobs into the fields: each from the
  // candidate universe, with tuning then off.
  FakeGlobalMeasure fake;
  sched::Session session(sched::SessionOptions{2, false});
  const core::Options o = auto_options();
  const core::Options r = core::resolve(o, 256, 256, session);
  EXPECT_EQ(r.tune, core::TuneMode::Off);
  EXPECT_EQ(r.tune_n, 256);
  EXPECT_GE(r.dratio, 0.0);
  EXPECT_LE(r.dratio, 1.0);
  EXPECT_GE(r.b, 8);
  EXPECT_LE(r.b, 256);
  EXPECT_TRUE(r.engine == "hybrid" || r.engine == "priority-lookahead" ||
              r.engine == "numa-hierarchical")
      << r.engine;
  EXPECT_TRUE(r.lookahead_depth == 2 || r.lookahead_depth == 4)
      << r.lookahead_depth;

  // Explicit knobs still win over the tuner where the contract says so.
  core::Options pinned = o;
  pinned.engine = "hybrid";
  EXPECT_EQ(core::resolve(pinned, 256, 256, session).engine, "hybrid");
  pinned.tune = core::TuneMode::Off;
  const core::Options off = core::resolve(pinned, 256, 256, session);
  EXPECT_DOUBLE_EQ(off.dratio, pinned.dratio);
  EXPECT_EQ(off.b, pinned.b);
}

TEST(TuneOptions, ResolveIsIdempotentAndAccessorsArePure) {
  FakeGlobalMeasure fake;
  sched::Session session(sched::SessionOptions{2, false});
  core::Options plain;
  plain.dratio = 1.5;  // clamped once, by the first resolve
  for (const core::Options& o : {auto_options(), plain}) {
    const core::Options once = core::resolve(o, 300, 200, session);
    const int before = global_lookups();
    const core::Options twice = core::resolve(once, 300, 200, session);
    EXPECT_EQ(global_lookups(), before);  // tune is Off after one resolve
    EXPECT_EQ(twice.threads, once.threads);
    EXPECT_EQ(twice.pr, once.pr);
    EXPECT_EQ(twice.pc, once.pc);
    EXPECT_EQ(twice.b, once.b);
    EXPECT_EQ(twice.dratio, once.dratio);
    EXPECT_EQ(twice.engine, once.engine);
    EXPECT_EQ(twice.lookahead_depth, once.lookahead_depth);
    EXPECT_EQ(twice.tune_n, once.tune_n);
    EXPECT_EQ(twice.tune, once.tune);
    EXPECT_EQ(once.tune_n, 200);
    EXPECT_EQ(once.threads, 2);
  }
  EXPECT_EQ(core::resolve(plain, 64, 64, session).dratio, 1.0);

  // The accessors read the fields: a tune = Auto Options asks the tuner
  // nothing through them.
  core::Options o = auto_options();
  o.tune_n = 256;
  const int before = global_lookups();
  EXPECT_EQ(o.resolved_b(), o.b);
  EXPECT_EQ(o.resolved_dratio(), o.dratio);
  EXPECT_EQ(o.resolved_engine(), "hybrid");
  EXPECT_EQ(o.resolved_threads(), 2);
  EXPECT_EQ(o.resolved_grid().size(), 2);
  EXPECT_EQ(global_lookups(), before);
}

TEST(TuneOptions, OneTunerLookupPerJob) {
  FakeGlobalMeasure fake;
  sched::Session session(sched::SessionOptions{2, false});
  const core::Options o = auto_options();
  const layout::Matrix a = layout::Matrix::random(64, 64, 41);
  const layout::Matrix b = layout::Matrix::random(64, 1, 42);

  int before = global_lookups();
  core::gesv(a, b, o, session);
  EXPECT_EQ(global_lookups() - before, 1) << "gesv";

  layout::Matrix lu = a;
  before = global_lookups();
  core::getrf(lu, o, session);
  EXPECT_EQ(global_lookups() - before, 1) << "getrf";

  for (core::BatchMode mode :
       {core::BatchMode::Fused, core::BatchMode::Sequential}) {
    std::vector<layout::Matrix> as(8, a);
    std::vector<core::BatchJob> jobs(8);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].a = &as[i];
      jobs[i].rhs = &b;
      jobs[i].options = o;
    }
    before = global_lookups();
    core::batched_run(jobs, session, mode);
    EXPECT_EQ(global_lookups() - before, 8)
        << (mode == core::BatchMode::Fused ? "fused" : "sequential");
  }
}

// ------------------------------------------------------- stress (TSan) ---

TEST(TuneStress, ConcurrentResolveOfOneKeyCalibratesOnce) {
  auto store = std::make_shared<MemoryProfileStore>();
  auto calls = std::make_shared<std::atomic<int>>(0);
  TunerConfig cfg;
  cfg.top_k = 4;
  Autotuner tuner(store, fake_measure(calls), cfg);

  const Key key = make_key();
  constexpr int kThreads = 8;
  std::vector<Decision> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&tuner, &results, &key, t] { results[t] = tuner.resolve(key); });
  for (auto& th : threads) th.join();

  // One calibration total: the mutex serializes racers of the same key,
  // and the losers are served the winner's persisted decision.
  EXPECT_EQ(tuner.calibrations(), 1);
  EXPECT_EQ(calls->load(), cfg.top_k);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].engine, results[0].engine) << "thread " << t;
    EXPECT_EQ(results[t].b, results[0].b) << "thread " << t;
    EXPECT_DOUBLE_EQ(results[t].dratio, results[0].dratio)
        << "thread " << t;
  }
}

TEST(TuneStress, ConcurrentResolveOfDistinctKeysAllLand) {
  auto store = std::make_shared<MemoryProfileStore>();
  auto calls = std::make_shared<std::atomic<int>>(0);
  Autotuner tuner(store, fake_measure(calls));

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&tuner, t] {
      tuner.resolve(make_key(256 + 64 * t, 2 + (t % 3)));
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(tuner.calibrations(), kThreads);
  EXPECT_EQ(tuner.snapshot().entries.size(),
            static_cast<std::size_t>(kThreads));
  // The persisted document holds every bucket and still parses.
  Profile p;
  ASSERT_EQ(tune::parse_profile(store->text(), p), LoadStatus::Ok);
  EXPECT_EQ(p.entries.size(), static_cast<std::size_t>(kThreads));
}

}  // namespace
}  // namespace calu
