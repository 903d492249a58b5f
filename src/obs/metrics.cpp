#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/events.h"
#include "obs/registry.h"
#include "util/json.h"

namespace tsx::obs {

// ---- MetricsWindow ----

double MetricsWindow::conflict_share() const {
  uint64_t all = aborts();
  if (!all) return 0.0;
  // STM aborts are data conflicts by construction (see StmExecutor).
  uint64_t conf =
      aborts_by_reason[static_cast<size_t>(sim::AbortReason::kConflict)] +
      stm_aborts;
  return static_cast<double>(conf) / static_cast<double>(all);
}

double MetricsWindow::capacity_share() const {
  uint64_t all = aborts();
  if (!all) return 0.0;
  uint64_t cap =
      aborts_by_reason[static_cast<size_t>(sim::AbortReason::kReadCapacity)] +
      aborts_by_reason[static_cast<size_t>(sim::AbortReason::kWriteCapacity)];
  return static_cast<double>(cap) / static_cast<double>(all);
}

// ---- PhaseDetector ----

namespace {

// Per-channel deviation floors: detection thresholds are expressed in
// deviation units, so a floor keeps near-noiseless baselines (dev ~ 0) from
// turning tiny fluctuations into boundaries. Channel 0 is log-activity
// (0.08 ~ an 8% throughput shift); channels 1-2 are shares in [0, 1].
constexpr double kScaleFloor[PhaseDetector::kChannels] = {0.08, 0.02, 0.02};

double channel_value(int c, const MetricsWindow& w) {
  switch (c) {
    case PhaseDetector::kChannelActivity:
      return std::log1p(static_cast<double>(w.activity()));
    case PhaseDetector::kChannelAbortRate:
      return w.abort_rate();
    case PhaseDetector::kChannelWastedShare:
      return w.wasted_share();
  }
  return 0.0;
}

}  // namespace

PhaseDetector::PhaseDetector(const MetricsConfig& cfg) : cfg_(cfg) {}

void PhaseDetector::reset_baseline() {
  for (Channel& c : ch_) c = Channel{};
  seen_ = 0;
}

std::optional<PhaseEvent> PhaseDetector::update(const MetricsWindow& w) {
  uint32_t idx = windows_++;
  if (cooldown_ > 0) {
    // Transition windows are a mix of both phases; keep them out of the new
    // baseline entirely.
    --cooldown_;
    return std::nullopt;
  }
  ++seen_;

  std::optional<PhaseEvent> fired;
  for (int i = 0; i < kChannels; ++i) {
    Channel& c = ch_[i];
    double x = channel_value(i, w);
    if (!c.primed) {
      c.primed = true;
      c.mean = x;
      continue;
    }
    double resid = x - c.mean;
    double scale = std::max(c.dev, kScaleFloor[i]);
    double z = resid / scale;
    if (seen_ > cfg_.warmup_windows && !fired) {
      c.up = std::max(0.0, c.up + z - cfg_.cusum_k);
      c.down = std::max(0.0, c.down - z - cfg_.cusum_k);
      if (c.up > cfg_.cusum_h || c.down > cfg_.cusum_h) {
        PhaseEvent e;
        e.window = idx;
        e.channel = i;
        e.direction = c.up > cfg_.cusum_h ? 1 : -1;
        e.score = std::max(c.up, c.down);
        fired = e;
        continue;  // baseline resets below; no point updating this EWMA
      }
    }
    c.mean += cfg_.ewma_alpha * resid;
    c.dev = (1.0 - cfg_.ewma_alpha) * c.dev +
            cfg_.ewma_alpha * std::fabs(resid);
  }

  if (fired) {
    reset_baseline();
    cooldown_ = cfg_.cooldown_windows;
  }
  return fired;
}

// ---- MetricsHub ----

MetricsHub::MetricsHub(MetricsConfig cfg)
    : cfg_(cfg), live_detector_(cfg) {
  if (cfg_.window_cycles == 0) cfg_.window_cycles = 1;  // defensive
}

MetricsWindow& MetricsHub::window_at(sim::Cycles t) {
  size_t idx = static_cast<size_t>(t / cfg_.window_cycles);
  if (idx >= windows_.size()) {
    size_t old = windows_.size();
    windows_.resize(idx + 1);
    for (size_t i = old; i <= idx; ++i) {
      windows_[i].start = static_cast<sim::Cycles>(i) * cfg_.window_cycles;
    }
  }
  return windows_[idx];
}

void MetricsHub::note_time(sim::Cycles t) {
  if (t > max_t_seen_) max_t_seen_ = t;
  // Seal with one full window of slack: the scheduler always resumes the
  // smallest-clock runnable context, so a context can run at most one
  // quantum past its peers — events for window w stop arriving well before
  // the stream's high-water mark leaves window w+1.
  size_t hw = static_cast<size_t>(max_t_seen_ / cfg_.window_cycles);
  if (hw >= 2) seal_through(hw - 1);
}

void MetricsHub::seal_through(size_t end_index) {
  if (end_index <= sealed_) return;
  // Materialize empty windows in the gap so subscribers see a contiguous,
  // in-order series (an idle window is a signal too).
  if (end_index > windows_.size()) {
    window_at(static_cast<sim::Cycles>(end_index - 1) * cfg_.window_cycles);
  }
  for (; sealed_ < end_index; ++sealed_) {
    const MetricsWindow& w = windows_[sealed_];
    std::optional<PhaseEvent> e = live_detector_.update(w);
    if (e) e->t = w.start;
    for (const WindowCallback& cb : subscribers_) cb(w, e);
  }
}

void MetricsHub::on(const Event& e) {
  // Evictions and counter samples are not windowed, nor is a decision to
  // retry speculatively.
  if (e.kind == EventKind::kEvict || e.kind == EventKind::kEnergy ||
      (e.kind == EventKind::kRetry && !e.decision)) {
    return;
  }
  note_time(e.t);
  MetricsWindow& w = window_at(e.t);
  const bool stm = e.flags & kFlagStm;
  switch (e.kind) {
    case EventKind::kTxBegin:
      ++(stm ? w.stm_starts : w.hw_starts);
      break;
    case EventKind::kTxCommit:
      ++(stm ? w.stm_commits : w.hw_commits);
      w.committed_cycles += e.cycles;
      break;
    case EventKind::kTxAbort: {
      if (stm) {
        ++w.stm_aborts;
      } else {
        ++w.hw_aborts;
        ++w.aborts_by_misc[static_cast<size_t>(sim::misc_bucket_for(e.reason))];
        ++w.aborts_by_reason[static_cast<size_t>(e.reason)];
      }
      w.wasted_cycles += e.cycles;
      // An unpaired abort still gets its (zero-cycle) flame edge.
      uint64_t key = e.attributed() ? flame_attacker_key(e.attacker_site)
                                    : flame_reason_key(e.reason);
      flame_[e.site][key] += e.cycles;
      break;
    }
    case EventKind::kRetry:
      ++w.fallbacks;
      break;
    case EventKind::kLockSection:
      ++w.lock_sections;
      w.lock_section_cycles += e.cycles;
      break;
    case EventKind::kElideAcquire: {
      const ElideAcquisition& a = *e.payload.elide;
      ElideWindowCounters& c = w.elide[a.lock];
      ++c.acquisitions;
      if (a.kind == ElideAcqKind::kElided) ++c.elided;
      if (a.kind == ElideAcqKind::kFallback) ++c.fallbacks;
      c.cycles_elided += a.cycles_elided;
      c.cycles_wasted += a.cycles_wasted;
      break;
    }
    case EventKind::kEvict:
    case EventKind::kEnergy:
      break;
  }
}

MetricsData MetricsHub::finalize(sim::Cycles wall) {
  // Pad the series to cover [0, wall) so trailing idle time is visible,
  // then deliver any unsealed windows to live subscribers.
  if (wall > 0) {
    size_t n = static_cast<size_t>((wall + cfg_.window_cycles - 1) /
                                   cfg_.window_cycles);
    if (n > windows_.size()) {
      window_at(static_cast<sim::Cycles>(n - 1) * cfg_.window_cycles);
    }
  }
  if (!finalized_) {
    finalized_ = true;
    seal_through(windows_.size());
  }

  MetricsData d;
  d.window_cycles = cfg_.window_cycles;
  d.windows = windows_;
  d.flame = flame_;

  // Authoritative phase pass: a fresh detector streamed over the exact
  // window series. The final window is excluded when it is partial (it
  // covers less simulated time than the others, so its counts dip for
  // length reasons, not workload reasons).
  PhaseDetector det(cfg_);
  size_t n = d.windows.size();
  if (n && wall > 0 && d.windows[n - 1].start + cfg_.window_cycles > wall) {
    --n;
  }
  for (size_t i = 0; i < n; ++i) {
    std::optional<PhaseEvent> e = det.update(d.windows[i]);
    if (e) {
      e->t = d.windows[i].start;
      d.phases.push_back(*e);
    }
  }
  return d;
}

// ---- Exporters ----

namespace {

std::string lock_label(const MetricsData& m, uint32_t lock) {
  auto it = m.lock_names.find(lock);
  if (it != m.lock_names.end()) return it->second;
  return "lock#" + std::to_string(lock);
}

// One OpenMetrics family: emits the TYPE header, then one sample per window
// of every capture (captures are already label-sorted).
template <typename Fn>
void emit_family(std::ostream& os, const std::vector<Capture>& captures,
                 const char* name, const char* help, Fn&& per_window) {
  os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " gauge\n";
  for (const Capture& c : captures) {
    if (!c.metrics) continue;
    const MetricsData& m = *c.metrics;
    for (size_t i = 0; i < m.windows.size(); ++i) {
      per_window(os, c, m, m.windows[i], i);
    }
  }
}

void sample_head(std::ostream& os, const char* name, const Capture& c,
                 size_t w) {
  os << name << "{cell=\"" << c.label << "\",w=\"" << w << "\"}";
}

}  // namespace

void write_openmetrics(std::ostream& os,
                       const std::vector<Capture>& captures) {
  // Run-level series parameters first, then the window families.
  os << "# HELP tsxlab_window_cycles Window length in simulated cycles\n";
  os << "# TYPE tsxlab_window_cycles gauge\n";
  for (const Capture& c : captures) {
    if (!c.metrics) continue;
    os << "tsxlab_window_cycles{cell=\"" << c.label << "\"} "
       << c.metrics->window_cycles << "\n";
  }

  struct CounterFamily {
    const char* name;
    const char* help;
    uint64_t (*get)(const MetricsWindow&);
  };
  static const CounterFamily kCounters[] = {
      {"tsxlab_window_start_cycles", "Window start, simulated cycles",
       [](const MetricsWindow& w) { return static_cast<uint64_t>(w.start); }},
      {"tsxlab_window_hw_starts", "Hardware transaction attempts begun",
       [](const MetricsWindow& w) { return w.hw_starts; }},
      {"tsxlab_window_hw_commits", "Hardware transaction commits",
       [](const MetricsWindow& w) { return w.hw_commits; }},
      {"tsxlab_window_hw_aborts", "Hardware transaction aborts",
       [](const MetricsWindow& w) { return w.hw_aborts; }},
      {"tsxlab_window_stm_starts", "Software transaction attempts begun",
       [](const MetricsWindow& w) { return w.stm_starts; }},
      {"tsxlab_window_stm_commits", "Software transaction commits",
       [](const MetricsWindow& w) { return w.stm_commits; }},
      {"tsxlab_window_stm_aborts", "Software transaction aborts",
       [](const MetricsWindow& w) { return w.stm_aborts; }},
      {"tsxlab_window_fallbacks", "Retry-policy serial fallbacks",
       [](const MetricsWindow& w) { return w.fallbacks; }},
      {"tsxlab_window_lock_sections", "Lock-backend critical sections",
       [](const MetricsWindow& w) { return w.lock_sections; }},
      {"tsxlab_window_committed_cycles", "Cycles in committed attempts",
       [](const MetricsWindow& w) {
         return static_cast<uint64_t>(w.committed_cycles);
       }},
      {"tsxlab_window_wasted_cycles", "Cycles in aborted attempts",
       [](const MetricsWindow& w) {
         return static_cast<uint64_t>(w.wasted_cycles);
       }},
      {"tsxlab_window_lock_section_cycles",
       "Cycles inside lock-backend critical sections",
       [](const MetricsWindow& w) {
         return static_cast<uint64_t>(w.lock_section_cycles);
       }},
  };
  for (const CounterFamily& fam : kCounters) {
    emit_family(os, captures, fam.name, fam.help,
                [&fam](std::ostream& o, const Capture& c, const MetricsData&,
                       const MetricsWindow& w, size_t i) {
                  sample_head(o, fam.name, c, i);
                  o << " " << fam.get(w) << "\n";
                });
  }

  emit_family(os, captures, "tsxlab_window_aborts_misc",
              "Hardware aborts by RTM_RETIRED.ABORTED_MISC bucket",
              [](std::ostream& o, const Capture& c, const MetricsData&,
                 const MetricsWindow& w, size_t i) {
                for (size_t b = 0; b < w.aborts_by_misc.size(); ++b) {
                  o << "tsxlab_window_aborts_misc{cell=\"" << c.label
                    << "\",w=\"" << i << "\",bucket=\"" << b + 1 << "\"} "
                    << w.aborts_by_misc[b] << "\n";
                }
              });

  struct RatioFamily {
    const char* name;
    const char* help;
    double (*get)(const MetricsWindow&);
  };
  static const RatioFamily kRatios[] = {
      {"tsxlab_window_abort_rate", "Aborts per attempt",
       [](const MetricsWindow& w) { return w.abort_rate(); }},
      {"tsxlab_window_conflict_share", "Conflict aborts / all aborts",
       [](const MetricsWindow& w) { return w.conflict_share(); }},
      {"tsxlab_window_capacity_share", "Capacity aborts / all aborts",
       [](const MetricsWindow& w) { return w.capacity_share(); }},
      {"tsxlab_window_wasted_share",
       "Wasted cycles / (committed + wasted) cycles",
       [](const MetricsWindow& w) { return w.wasted_share(); }},
      {"tsxlab_window_fallback_rate", "Fallbacks per attempt",
       [](const MetricsWindow& w) { return w.fallback_rate(); }},
  };
  for (const RatioFamily& fam : kRatios) {
    emit_family(os, captures, fam.name, fam.help,
                [&fam](std::ostream& o, const Capture& c, const MetricsData&,
                       const MetricsWindow& w, size_t i) {
                  sample_head(o, fam.name, c, i);
                  o << " " << util::json_fixed(fam.get(w), 6) << "\n";
                });
  }

  emit_family(os, captures, "tsxlab_window_elided_share",
              "Elided acquisitions / acquisitions, per elide lock",
              [](std::ostream& o, const Capture& c, const MetricsData& m,
                 const MetricsWindow& w, size_t i) {
                for (const auto& [lock, e] : w.elide) {
                  double share =
                      e.acquisitions
                          ? static_cast<double>(e.elided) /
                                static_cast<double>(e.acquisitions)
                          : 0.0;
                  o << "tsxlab_window_elided_share{cell=\"" << c.label
                    << "\",w=\"" << i << "\",lock=\"" << lock_label(m, lock)
                    << "\"} " << util::json_fixed(share, 6) << "\n";
                }
              });

  os << "# HELP tsxlab_phase_boundary Detected phase boundary (value: "
        "boundary time, simulated cycles)\n";
  os << "# TYPE tsxlab_phase_boundary gauge\n";
  for (const Capture& c : captures) {
    if (!c.metrics) continue;
    for (const PhaseEvent& e : c.metrics->phases) {
      os << "tsxlab_phase_boundary{cell=\"" << c.label << "\",w=\""
         << e.window << "\",channel=\"" << e.channel << "\",direction=\""
         << (e.direction > 0 ? "rise" : "fall") << "\"} " << e.t << "\n";
    }
  }
  os << "# EOF\n";
}

void write_flamegraph(std::ostream& os, const std::vector<Capture>& captures) {
  for (const Capture& c : captures) {
    if (!c.metrics) continue;
    for (const auto& [victim, edges] : c.metrics->flame) {
      for (const auto& [key, cycles] : edges) {
        if (!cycles) continue;  // zero-weight stacks only add noise
        os << c.label << ";" << site_name(c, victim) << ";";
        if (key & kFlameAttackerBit) {
          os << site_name(c, static_cast<uint32_t>(key & 0xffffffffull));
        } else {
          os << "["
             << sim::abort_reason_name(static_cast<sim::AbortReason>(key))
             << "]";
        }
        os << " " << cycles << "\n";
      }
    }
  }
}

}  // namespace tsx::obs
