// profile.h — persisted autotuner decisions, one JSON document per host.
//
// The autotuner's calibration runs are the expensive part of TuneMode::Auto
// (each one factors a real matrix); the profile is what makes them a
// once-per-machine cost.  A profile maps a serialized tuning Key —
// (n, threads, kernel variant, topology summary) — to the Decision that
// calibration picked, under a schema version so a file of any other
// version is regenerated instead of silently poisoning new binaries.
//
// Storage is an injectable seam (ProfileStore): production uses
// FileProfileStore at $CALU_TUNE_PROFILE (default
// "calu_tune_profile.json" in the working directory, i.e. the build dir
// for ctest/bench runs), the unit tests use MemoryProfileStore so every
// hit/miss/stale/corrupt path is deterministic and filesystem-free.
//
// Schema (version 2):
//   {
//     "version": 2,
//     "host": "1pkg/1l3/1core/1smt",          // informational
//     "entries": [
//       { "key": "n=512;t=4;k=avx512;topo=1pkg/1l3/1core/1smt",
//         "dratio": 0.1, "b": 128, "engine": "hybrid",
//         "lookahead_depth": 4, "measured": 0.0123 }
//     ]
//   }
// Corrupt or truncated documents, and documents of any other version,
// parse as LoadStatus::Corrupt and the caller regenerates (warn once,
// never throw).
#pragma once

#include <map>
#include <string>

namespace calu::tune {

/// One resolved knob set for a tuning key.  `measured` is the calibration
/// cost that won (seconds under the real measure function, arbitrary
/// units under an injected one); < 0 means the decision was model-seeded
/// only and never measured.
struct Decision {
  double dratio = 0.10;
  int b = 100;
  std::string engine = "hybrid";
  int lookahead_depth = 4;
  double predicted = 0.0;  ///< model score used for candidate ordering
  double measured = -1.0;
};

inline constexpr int kProfileVersion = 2;

/// Parsed profile document.  Entries are keyed by Key::str().
struct Profile {
  int version = kProfileVersion;
  std::string host;
  std::map<std::string, Decision> entries;
};

enum class LoadStatus {
  Ok,        ///< parsed a current-version document
  Missing,   ///< no document (empty text / store had nothing)
  Corrupt,   ///< unparseable or wrong shape — caller should regenerate
};

/// Serializes to the version-2 JSON document (stable key order).
std::string serialize_profile(const Profile& p);

/// Parses `text` into `out`.  Only kProfileVersion documents load; any
/// other version is reported Corrupt, since regenerating is safer than
/// guessing at fields another schema wrote.
LoadStatus parse_profile(const std::string& text, Profile& out);

/// Storage seam.  load() returns false when nothing is stored (distinct
/// from an empty document); save() returns false when the medium is
/// unwritable — the tuner treats both as "keep going without
/// persistence", never as errors.
class ProfileStore {
 public:
  virtual ~ProfileStore() = default;
  virtual bool load(std::string& text_out) = 0;
  virtual bool save(const std::string& text) = 0;
  /// Human-readable location for warnings ("file:/path", "memory").
  virtual std::string describe() const = 0;
};

/// In-memory store for tests: contents survive only as long as the
/// object, and failure modes are switchable to drive the degraded paths.
class MemoryProfileStore : public ProfileStore {
 public:
  MemoryProfileStore() = default;
  explicit MemoryProfileStore(std::string initial)
      : text_(std::move(initial)), present_(true) {}

  bool load(std::string& text_out) override {
    if (!present_ || fail_loads) return false;
    text_out = text_;
    return true;
  }
  bool save(const std::string& text) override {
    if (fail_saves) return false;
    text_ = text;
    present_ = true;
    ++saves;
    return true;
  }
  std::string describe() const override { return "memory"; }

  const std::string& text() const { return text_; }
  bool present() const { return present_; }

  bool fail_loads = false;  ///< simulate an unreadable medium
  bool fail_saves = false;  ///< simulate an unwritable medium
  int saves = 0;            ///< persistence-call count for tests

 private:
  std::string text_;
  bool present_ = false;
};

/// File-backed store.  A missing file is Missing (load() false); an empty
/// file (e.g. CALU_TUNE_PROFILE=/dev/null) likewise, so pointing the
/// profile at /dev/null is the supported "no persistence" mode: loads
/// find nothing, saves succeed into the void, and the tuner falls back to
/// per-process in-memory caching of its calibrations.
class FileProfileStore : public ProfileStore {
 public:
  explicit FileProfileStore(std::string path) : path_(std::move(path)) {}

  bool load(std::string& text_out) override;
  bool save(const std::string& text) override;
  std::string describe() const override { return "file:" + path_; }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The production store: $CALU_TUNE_PROFILE when set, else
/// "calu_tune_profile.json" in the current working directory.
std::string default_profile_path();

}  // namespace calu::tune
