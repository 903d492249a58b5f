#pragma once
// MetricsHub: the live metrics plane, one of TraceSink's event folds.
//
// Where the Pmu accumulates whole-run totals and only yields PmuData at
// finalize(), the hub folds the same events incrementally into fixed
// simulated-time windows and maintains per-window derived signals — abort
// rate by MISC bucket, conflict/capacity mix, wasted-cycle share, fallback
// rate, per-lock elided share — plus an online EWMA/CUSUM phase-change
// detector over those signals. That makes the run *watchable while it
// happens*: subscribe() hands every sealed window (and any phase boundary
// it triggered) to a callback, which is the seam the adaptive runtime
// (ROADMAP item 5) plugs into.
//
// Windowing is exact, not sampled: every event lands in the window that
// contains its timestamp (windows[t / window_cycles]), so for every counter
// the sum of all window deltas equals the finalized PmuData total by
// construction — regardless of the slight cross-context reordering the
// scheduler's per-context clocks produce. Cycle deltas (committed/wasted)
// are attributed to the window containing the attempt's *closing* event,
// using the attempt window the sink paired once for every fold. Like the
// Pmu and SiteAgg, all aggregation happens at emission time and never
// replays the lossy event ring, so the per-site wasted-cycle flame profile
// stays exact after the ring wraps.
//
// All of this is host-side bookkeeping on simulated timestamps: an
// installed hub performs no simulated machine operation and never perturbs
// simulated results.

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/events.h"
#include "sim/types.h"

namespace tsx::obs {

struct Capture;  // registry.h (which includes this header)

// ---- Window aggregates ----

// Per-lock elision deltas inside one window (per-lock elided% signal).
struct ElideWindowCounters {
  uint64_t acquisitions = 0;
  uint64_t elided = 0;
  uint64_t fallbacks = 0;
  sim::Cycles cycles_elided = 0;
  sim::Cycles cycles_wasted = 0;
};

// One fixed simulated-time window [start, start + window_cycles). All
// counters are deltas within the window, not cumulative.
struct MetricsWindow {
  sim::Cycles start = 0;

  // Hardware transaction lifecycle (the machine's TraceHooks).
  uint64_t hw_starts = 0;
  uint64_t hw_commits = 0;
  uint64_t hw_aborts = 0;
  std::array<uint64_t, static_cast<size_t>(sim::MiscBucket::kCount)>
      aborts_by_misc{};
  std::array<uint64_t, static_cast<size_t>(sim::AbortReason::kCount)>
      aborts_by_reason{};

  // Software transactions (STM backends, hybrid fallback).
  uint64_t stm_starts = 0;
  uint64_t stm_commits = 0;
  uint64_t stm_aborts = 0;

  uint64_t fallbacks = 0;  // retry-policy serial-fallback decisions

  // Lock-backend critical sections (EventKind::kLockSection, folded by the
  // hub only) so kLock/kCas runs produce a per-window activity signal
  // without any ring/PMU change.
  uint64_t lock_sections = 0;
  sim::Cycles lock_section_cycles = 0;

  // Attempt-window cycle deltas (closing-event attribution, like the Pmu).
  sim::Cycles committed_cycles = 0;
  sim::Cycles wasted_cycles = 0;

  // Per-lock elision deltas, keyed by lock id (sorted map iteration keeps
  // every export deterministic).
  std::map<uint32_t, ElideWindowCounters> elide;

  // ---- Derived signals (the phase detector's inputs) ----
  uint64_t attempts() const { return hw_starts + stm_starts; }
  uint64_t commits() const { return hw_commits + stm_commits; }
  uint64_t aborts() const { return hw_aborts + stm_aborts; }
  // Completed units of useful work: the activity signal that exists for
  // every backend (RTM/STM/hybrid commits, lock sections).
  uint64_t activity() const { return commits() + lock_sections; }
  double abort_rate() const {
    uint64_t a = attempts();
    return a ? static_cast<double>(aborts()) / static_cast<double>(a) : 0.0;
  }
  double conflict_share() const;   // conflict aborts / all aborts
  double capacity_share() const;   // capacity aborts / all aborts
  double wasted_share() const {    // wasted / (committed + wasted)
    sim::Cycles tx = committed_cycles + wasted_cycles;
    return tx ? static_cast<double>(wasted_cycles) / static_cast<double>(tx)
              : 0.0;
  }
  double fallback_rate() const {
    uint64_t a = attempts();
    return a ? static_cast<double>(fallbacks) / static_cast<double>(a) : 0.0;
  }
};

// ---- Phase detection ----

// One detected phase boundary: the detector's evidence crossed its decision
// threshold at window `window`; `t` is that window's start (the boundary is
// located to within one window by construction).
struct PhaseEvent {
  uint32_t window = 0;
  sim::Cycles t = 0;
  int channel = 0;    // PhaseDetector channel that fired (kChannel* below)
  int direction = 0;  // +1 signal rose, -1 signal fell
  double score = 0;   // CUSUM statistic at the decision point
};

struct MetricsConfig {
  // Window length in simulated cycles; 0 disables the hub entirely.
  sim::Cycles window_cycles = 0;

  // Phase-detector tuning (see DESIGN.md "Windowing and phase detection").
  uint32_t warmup_windows = 3;    // windows used to learn the baseline
  double ewma_alpha = 0.25;       // baseline mean/deviation smoothing
  double cusum_k = 0.5;           // per-window slack, in deviation units
  double cusum_h = 4.0;           // decision threshold, in deviation units
  uint32_t cooldown_windows = 2;  // re-learn windows after a boundary
};

// Online two-sided CUSUM over EWMA-standardized window signals. Streaming
// and causal: update() sees one sealed window at a time and reports whether
// that window crossed the decision threshold. Channels:
//   0  activity  log1p(commits + lock sections)  — throughput shifts
//   1  aborts    aborts / attempts              — contention shifts
//   2  wasted    wasted / (committed + wasted)  — speculation-cost shifts
class PhaseDetector {
 public:
  static constexpr int kChannelActivity = 0;
  static constexpr int kChannelAbortRate = 1;
  static constexpr int kChannelWastedShare = 2;
  static constexpr int kChannels = 3;

  explicit PhaseDetector(const MetricsConfig& cfg);

  // Feeds the next window; returns the boundary event (positioned at this
  // window) if the evidence crossed the threshold. After a boundary the
  // detector re-learns its baseline from the new phase.
  std::optional<PhaseEvent> update(const MetricsWindow& w);

 private:
  struct Channel {
    bool primed = false;
    double mean = 0;
    double dev = 0;  // EWMA of |residual| (robust scale)
    double up = 0;   // one-sided CUSUM statistics
    double down = 0;
  };

  void reset_baseline();

  MetricsConfig cfg_;
  std::array<Channel, kChannels> ch_{};
  uint32_t seen_ = 0;      // windows since the last baseline reset
  uint32_t windows_ = 0;   // total windows fed
  uint32_t cooldown_ = 0;  // pending re-learn windows
};

// ---- Flame profile ----

// Second stack frame of the wasted-cycle flame profile: the attacker's call
// site for attributed conflicts, the abort reason otherwise. Encoded as one
// ordered key so the per-site maps stay sorted and cheap.
constexpr uint64_t kFlameAttackerBit = uint64_t{1} << 32;
inline uint64_t flame_attacker_key(uint32_t site) {
  return kFlameAttackerBit | site;
}
inline uint64_t flame_reason_key(sim::AbortReason r) {
  return static_cast<uint64_t>(r);
}

// victim site -> (attacker-site-or-reason key -> wasted cycles).
using FlameProfile = std::map<uint32_t, std::map<uint64_t, uint64_t>>;

// ---- Finalized result (carried inside a registry Capture) ----

struct MetricsData {
  sim::Cycles window_cycles = 0;
  std::vector<MetricsWindow> windows;
  std::vector<PhaseEvent> phases;  // detector run over the exact series
  FlameProfile flame;
  std::map<uint32_t, std::string> lock_names;  // from the sink (make_capture)
};

// ---- The hub ----

class MetricsHub {
 public:
  explicit MetricsHub(MetricsConfig cfg);

  // Folds one completed event (TraceSink::emit calls this).
  void on(const Event& e);

  // ---- Live subscription (the AdaptivePolicy seam) ----
  // Called once per sealed window, in window order, with the phase boundary
  // that window triggered (if any). A window seals when the event stream's
  // high-water mark passes the *next* window's end, leaving one window of
  // slack for the scheduler's bounded cross-context clock skew; the final
  // partial window seals at finalize(). Live sealing is a low-latency view
  // of the same aggregates finalize() reports.
  using WindowCallback =
      std::function<void(const MetricsWindow&, const std::optional<PhaseEvent>&)>;
  void subscribe(WindowCallback cb) { subscribers_.push_back(std::move(cb)); }

  // Seals every remaining window, replays a fresh detector over the exact
  // window series (identical statistics to the live pass once stragglers
  // are included), and returns the immutable result.
  MetricsData finalize(sim::Cycles wall);

 private:
  MetricsWindow& window_at(sim::Cycles t);
  void note_time(sim::Cycles t);
  void seal_through(size_t end_index);  // seals windows [sealed_, end_index)

  MetricsConfig cfg_;
  std::vector<MetricsWindow> windows_;
  FlameProfile flame_;
  std::vector<WindowCallback> subscribers_;
  PhaseDetector live_detector_;
  sim::Cycles max_t_seen_ = 0;
  size_t sealed_ = 0;  // windows [0, sealed_) already delivered live
  bool finalized_ = false;
};

// ---- Exporters (captures arrive label-sorted from Registry::drain, so
// both outputs are byte-identical across --jobs values) ----

// OpenMetrics / Prometheus text exposition of every capture's final window
// series: one sample per window per metric family, labelled
// {cell="<label>",w="<index>"} (plus lock="<name>" for elision families),
// ending with "# EOF".
void write_openmetrics(std::ostream& os, const std::vector<Capture>& captures);

// Collapsed-stack flame profile ("cell;victim;attacker-or-reason cycles"
// lines), weighted by wasted cycles — feed to flamegraph.pl or speedscope.
void write_flamegraph(std::ostream& os, const std::vector<Capture>& captures);

}  // namespace tsx::obs
