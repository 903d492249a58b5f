#pragma once
// TraceSink: the single entry point of the observability plane. Engines
// hand it one Event per occurrence (emit); the sink completes the record
// once and folds it into every consumer by direct call:
//   * the bounded ring of trace events (ring kinds only),
//   * exact per-call-site abort attribution (SiteAgg),
//   * the simulated PMU (Pmu::on) and the windowed metrics hub
//     (MetricsHub::on), when attached.
//
// Completing a record means: labelling attempt and retry events with the
// context's current static call site (engines declare it with set_site),
// resolving an abort's attacker context to the attacker's site, and pairing
// each commit/abort with its context's open begin to fill the attempt
// window (Event::cycles) — from one per-context open-attempt table, so every
// fold sees the same pairing.
//
// The ring keeps the newest `capacity` events (oldest are overwritten and
// counted in dropped()); the folds are incremental, so attribution and
// counters stay exact even after the ring wraps. Capacity 0 keeps no ring
// at all (events() empty, dropped() 0) for runs that export no trace. All
// emission is host-side work: it performs no simulated machine operation,
// so an installed sink never perturbs simulated timing.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/events.h"
#include "sim/types.h"
#include "util/arena.h"

namespace tsx::obs {

class Pmu;         // obs/pmu.h
class MetricsHub;  // obs/metrics.h

// Exact per-site attribution (independent of ring capacity).
struct SiteAgg {
  uint64_t attempts = 0;   // hardware or STM attempts started
  uint64_t commits = 0;
  uint64_t fallbacks = 0;  // serial-fallback decisions at this site
  std::array<uint64_t, static_cast<size_t>(sim::AbortReason::kCount)>
      aborts_by_reason{};
  std::map<uint64_t, uint64_t> conflict_lines;  // line -> abort count
  std::map<uint32_t, uint64_t> attacker_sites;  // attacker site -> abort count

  uint64_t aborts() const {
    uint64_t s = 0;
    for (uint64_t a : aborts_by_reason) s += a;
    return s;
  }
};

class TraceSink {
 public:
  explicit TraceSink(size_t capacity = 1 << 16);

  // Optional consumers, not owned.
  void set_pmu(Pmu* pmu) { pmu_ = pmu; }
  void set_hub(MetricsHub* hub) { hub_ = hub; }

  // Declares `site` as ctx's current static call site (host-side, no
  // event). Engines call this at the top of every execute().
  void set_site(sim::CtxId ctx, uint32_t site);

  // Completes `e` (see above) and folds it into the ring and every
  // attached consumer.
  void emit(Event e);

  // ---- Inspection / export ----
  // Events oldest -> newest (at most `capacity`).
  std::vector<Event> events() const;
  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }
  // Number of events overwritten because the ring was full.
  size_t dropped() const { return dropped_; }

  const std::map<uint32_t, SiteAgg>& sites() const { return sites_; }

  // Optional human-readable site names for reports ("site#N" otherwise).
  void set_site_name(uint32_t site, std::string name);
  const std::map<uint32_t, std::string>& site_names() const {
    return site_names_;
  }

  // Elide-lock names, keyed by lock id (make_capture copies them into the
  // PMU and metrics results).
  void set_lock_name(uint32_t lock, std::string name);
  const std::map<uint32_t, std::string>& lock_names() const {
    return lock_names_;
  }

 private:
  struct OpenAttempt {
    bool open = false;
    sim::Cycles begin_t = 0;
  };

  void push(const Event& e);
  uint32_t cur_site(sim::CtxId ctx) const {
    return ctx < cur_site_.size() ? cur_site_[ctx] : kNoSite;
  }

  size_t cap_;
  // Ring storage allocated once at full capacity from the arena (events are
  // flat PODs, never destroyed element-wise), so emission can never trigger
  // a vector reallocation mid-run.
  util::Arena arena_;
  Event* ring_ = nullptr;
  size_t size_ = 0;
  size_t head_ = 0;  // next write position once the ring is full
  size_t dropped_ = 0;

  std::array<uint32_t, sim::kMaxCtxs> cur_site_;
  std::array<OpenAttempt, sim::kMaxCtxs> open_{};
  std::map<uint32_t, SiteAgg> sites_;
  std::map<uint32_t, std::string> site_names_;
  std::map<uint32_t, std::string> lock_names_;
  Pmu* pmu_ = nullptr;
  MetricsHub* hub_ = nullptr;
};

}  // namespace tsx::obs
