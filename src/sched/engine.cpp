// engine.cpp — EngineStats merge/report.  The concrete executors live in
// engine_{hybrid,numa,priority}.cpp; selection goes through
// engine_registry.cpp.
#include "src/sched/engine.h"

#include <algorithm>
#include <cstdio>

namespace calu::sched {

EngineStats& EngineStats::merge(const EngineStats& other) {
  static_pops += other.static_pops;
  dynamic_pops += other.dynamic_pops;
  steals += other.steals;
  steal_attempts += other.steal_attempts;
  promotions += other.promotions;
  for (int c = 0; c < kStealClassCount; ++c)
    steals_by_class[c] += other.steals_by_class[c];
  pinned_threads = std::max(pinned_threads, other.pinned_threads);
  elapsed = std::max(elapsed, other.elapsed);
  return *this;
}

std::string EngineStats::report() const {
  const std::uint64_t total = static_pops + dynamic_pops + steals;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "tasks=%llu static=%llu dynamic=%llu steals=%llu/%llu "
                "promoted=%llu elapsed=%.4fs",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(static_pops),
                static_cast<unsigned long long>(dynamic_pops),
                static_cast<unsigned long long>(steals),
                static_cast<unsigned long long>(steal_attempts),
                static_cast<unsigned long long>(promotions), elapsed);
  std::string out = buf;
  std::uint64_t classified = 0;
  for (std::uint64_t n : steals_by_class) classified += n;
  if (classified > 0) {
    // Steal-distance histogram, nearest class first — only for engines
    // that classify (others would print all-zero noise).
    out += " dist[";
    for (int c = 0; c < kStealClassCount; ++c) {
      std::snprintf(buf, sizeof(buf), "%s%s=%llu", c ? " " : "",
                    steal_class_name(static_cast<StealClass>(c)),
                    static_cast<unsigned long long>(steals_by_class[c]));
      out += buf;
    }
    out += "]";
  }
  if (pinned_threads >= 0) {
    std::snprintf(buf, sizeof(buf), " pinned=%d", pinned_threads);
    out += buf;
  }
  return out;
}

}  // namespace calu::sched
