// src/obs MetricsHub: exact event->window folding, the live subscribe seam,
// the EWMA/CUSUM phase detector on synthetic and simulated series, the
// wasted-cycle flame profile (exact under ring wrap), and the OpenMetrics /
// collapsed-stack exporters' determinism.
//
// The window/total identity against PmuData lives in test_pmu.cpp next to
// the cycle-attribution identity it extends.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"

namespace {

using namespace tsx;
using core::Backend;
using sim::CtxId;
using sim::Cycles;
using sim::Word;

// ---- PhaseDetector on synthetic window series ----

obs::MetricsConfig det_cfg() {
  obs::MetricsConfig cfg;
  cfg.window_cycles = 1000;
  return cfg;  // detector defaults: warmup 3, alpha 0.25, k 0.5, h 4
}

// A window with the given commit count (activity channel) and optional
// abort traffic (abort-rate channel).
obs::MetricsWindow win(uint64_t commits, uint64_t aborts = 0,
                       Cycles committed_cycles = 0, Cycles wasted_cycles = 0) {
  obs::MetricsWindow w;
  w.hw_starts = commits + aborts;
  w.hw_commits = commits;
  w.hw_aborts = aborts;
  w.aborts_by_reason[static_cast<size_t>(sim::AbortReason::kConflict)] =
      aborts;
  w.aborts_by_misc[static_cast<size_t>(
      sim::misc_bucket_for(sim::AbortReason::kConflict))] = aborts;
  w.committed_cycles = committed_cycles;
  w.wasted_cycles = wasted_cycles;
  return w;
}

TEST(PhaseDetector, SteadySeriesNeverFires) {
  obs::PhaseDetector det(det_cfg());
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(det.update(win(100)).has_value()) << "window " << i;
  }
}

TEST(PhaseDetector, ActivityStepUpFiresWithinOneWindow) {
  obs::PhaseDetector det(det_cfg());
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(det.update(win(100)));
  // 4x throughput step: log1p jumps ~1.4 against a near-zero deviation
  // (floored at 0.08), so the CUSUM must cross on the very first shifted
  // window — the boundary is located to within one window.
  std::optional<obs::PhaseEvent> e = det.update(win(400));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->window, 20u);
  EXPECT_EQ(e->channel, obs::PhaseDetector::kChannelActivity);
  EXPECT_EQ(e->direction, 1);
  EXPECT_GT(e->score, 4.0);
}

TEST(PhaseDetector, ActivityStepDownFiresFalling) {
  obs::PhaseDetector det(det_cfg());
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(det.update(win(400)));
  std::optional<obs::PhaseEvent> e = det.update(win(50));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->window, 20u);
  EXPECT_EQ(e->channel, obs::PhaseDetector::kChannelActivity);
  EXPECT_EQ(e->direction, -1);
}

TEST(PhaseDetector, AbortRateStepFiresItsOwnChannel) {
  obs::PhaseDetector det(det_cfg());
  // Constant commits (activity flat) with a contention step: abort rate
  // jumps from ~0.09 to 0.5 while log-activity stays fixed.
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(det.update(win(100, 10)));
  std::optional<obs::PhaseEvent> e = det.update(win(100, 100));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->channel, obs::PhaseDetector::kChannelAbortRate);
  EXPECT_EQ(e->direction, 1);
}

TEST(PhaseDetector, WastedShareStepFiresItsOwnChannel) {
  obs::PhaseDetector det(det_cfg());
  // Fixed commit/abort counts; only the cycle mix moves, so neither the
  // activity nor the abort-rate channel sees a shift.
  for (int i = 0; i < 20; ++i) {
    ASSERT_FALSE(det.update(win(100, 10, 9000, 1000)));
  }
  std::optional<obs::PhaseEvent> e = det.update(win(100, 10, 4000, 6000));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->channel, obs::PhaseDetector::kChannelWastedShare);
  EXPECT_EQ(e->direction, 1);
}

TEST(PhaseDetector, RelearnsAfterBoundaryWithoutRefiring) {
  obs::PhaseDetector det(det_cfg());
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(det.update(win(100)));
  ASSERT_TRUE(det.update(win(400)).has_value());
  // The new phase is steady at the shifted level: after the cooldown and
  // re-learn the detector must settle, not ring on the same boundary.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(det.update(win(400)).has_value()) << "window " << i;
  }
  // And a genuine second boundary still fires.
  EXPECT_TRUE(det.update(win(100)).has_value());
}

TEST(PhaseDetector, WarmupWindowsNeverFire) {
  obs::MetricsConfig cfg = det_cfg();
  cfg.warmup_windows = 5;
  obs::PhaseDetector det(cfg);
  // A wild series inside the warmup: the detector is still learning and
  // must stay silent for warmup_windows + 1 windows (prime + warmup).
  for (uint32_t i = 0; i <= cfg.warmup_windows; ++i) {
    EXPECT_FALSE(det.update(win(i % 2 ? 500 : 10)).has_value());
  }
}

// ---- MetricsHub feeding, sealing and the subscribe seam ----

obs::MetricsConfig hub_cfg(Cycles window) {
  obs::MetricsConfig cfg;
  cfg.window_cycles = window;
  return cfg;
}

// A hub fed the way the engines feed it: through a TraceSink, which pairs
// each commit/abort with its begin before folding.
struct FedHub {
  obs::MetricsHub hub;
  obs::TraceSink sink{64};

  explicit FedHub(Cycles window) : hub(hub_cfg(window)) { sink.set_hub(&hub); }

  void emit(obs::EventKind kind, CtxId ctx, Cycles t,
            sim::AbortReason reason = sim::AbortReason::kNone) {
    sink.emit({.kind = kind, .reason = reason, .ctx = ctx, .t = t});
  }
  void elide(uint32_t lock, Cycles t, obs::ElideAcqKind kind,
             Cycles cycles_elided, Cycles cycles_wasted) {
    const obs::ElideAcquisition a{lock, kind, false, 0, cycles_elided,
                                  cycles_wasted};
    sink.emit({.kind = obs::EventKind::kElideAcquire,
               .t = t,
               .payload = {.elide = &a}});
  }
};

using obs::EventKind;

TEST(MetricsHub, EventsLandInTheWindowContainingTheirTimestamp) {
  FedHub f(100);
  f.emit(EventKind::kTxBegin, 0, 10);
  f.emit(EventKind::kTxCommit, 0, 99);   // [10, 99]: window 0, 89 cycles
  f.emit(EventKind::kTxBegin, 0, 150);
  f.emit(EventKind::kTxCommit, 0, 260);  // closes in window 2: cycles there
  f.sink.set_site(1, 7);
  f.emit(EventKind::kTxBegin, 1, 205);
  f.emit(EventKind::kTxAbort, 1, 230, sim::AbortReason::kConflict);
  obs::MetricsData d = f.hub.finalize(300);
  ASSERT_EQ(d.windows.size(), 3u);
  EXPECT_EQ(d.windows[0].hw_starts, 1u);
  EXPECT_EQ(d.windows[0].hw_commits, 1u);
  EXPECT_EQ(d.windows[0].committed_cycles, 89u);
  EXPECT_EQ(d.windows[1].hw_starts, 1u);
  EXPECT_EQ(d.windows[1].hw_commits, 0u);
  EXPECT_EQ(d.windows[2].hw_commits, 1u);
  EXPECT_EQ(d.windows[2].committed_cycles, 110u);
  EXPECT_EQ(d.windows[2].hw_starts, 1u);  // ctx 1's begin at t=205
  EXPECT_EQ(d.windows[2].hw_aborts, 1u);
  EXPECT_EQ(d.windows[2].wasted_cycles, 25u);
  EXPECT_EQ(d.windows[2].aborts_by_reason[static_cast<size_t>(
                sim::AbortReason::kConflict)],
            1u);
}

TEST(MetricsHub, FinalizePadsIdleTailToWall) {
  FedHub f(100);
  f.emit(EventKind::kTxBegin, 0, 5);
  f.emit(EventKind::kTxCommit, 0, 50);
  obs::MetricsData d = f.hub.finalize(1000);
  ASSERT_EQ(d.windows.size(), 10u);  // trailing idle windows materialized
  for (size_t i = 0; i < d.windows.size(); ++i) {
    EXPECT_EQ(d.windows[i].start, i * 100u);
    if (i > 0) EXPECT_EQ(d.windows[i].hw_commits, 0u);
  }
}

TEST(MetricsHub, SubscribersSeeContiguousWindowsInOrderWithOneWindowLag) {
  FedHub f(100);
  std::vector<Cycles> starts;
  f.hub.subscribe([&](const obs::MetricsWindow& w,
                      const std::optional<obs::PhaseEvent>&) {
    starts.push_back(w.start);
  });
  // Stream events marching forward through five windows. Sealing lags the
  // high-water mark by one full window (clock-skew slack): after an event
  // at t in window 4, windows [0, 3) are sealed.
  for (Cycles t = 10; t < 450; t += 20) {
    f.emit(EventKind::kTxBegin, 0, t);
    f.emit(EventKind::kTxCommit, 0, t + 5);
  }
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[1], 100u);
  EXPECT_EQ(starts[2], 200u);
  // finalize delivers the rest exactly once, still in order.
  obs::MetricsData d = f.hub.finalize(450);
  ASSERT_EQ(starts.size(), d.windows.size());
  for (size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(starts[i], i * 100u);
  }
}

TEST(MetricsHub, LiveWindowsMatchFinalizedWindows) {
  FedHub f(100);
  std::vector<uint64_t> live_commits;
  f.hub.subscribe([&](const obs::MetricsWindow& w,
                      const std::optional<obs::PhaseEvent>&) {
    live_commits.push_back(w.hw_commits);
  });
  for (Cycles t = 0; t < 1000; t += 10) {
    f.emit(EventKind::kTxBegin, 0, t);
    f.emit(EventKind::kTxCommit, 0, t + 9);
  }
  obs::MetricsData d = f.hub.finalize(1000);
  ASSERT_EQ(live_commits.size(), d.windows.size());
  for (size_t i = 0; i < d.windows.size(); ++i) {
    EXPECT_EQ(live_commits[i], d.windows[i].hw_commits) << "window " << i;
  }
}

TEST(MetricsHub, FinalizeIsIdempotent) {
  FedHub f(100);
  f.emit(EventKind::kTxBegin, 0, 10);
  f.emit(EventKind::kTxCommit, 0, 20);
  obs::MetricsData a = f.hub.finalize(200);
  obs::MetricsData b = f.hub.finalize(200);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  EXPECT_EQ(a.phases.size(), b.phases.size());
  EXPECT_EQ(a.windows[0].hw_commits, b.windows[0].hw_commits);
}

TEST(MetricsHub, ElideCountersAggregatePerLockPerWindow) {
  FedHub f(100);
  f.sink.set_lock_name(3, "hot-mutex");
  f.elide(3, 50, obs::ElideAcqKind::kElided, 40, 0);
  f.elide(3, 60, obs::ElideAcqKind::kFallback, 0, 25);
  f.elide(3, 150, obs::ElideAcqKind::kElided, 30, 0);
  obs::Capture c =
      obs::make_capture(f.sink, "t", 3.3, 1, std::nullopt, f.hub.finalize(200));
  const obs::MetricsData& d = *c.metrics;
  ASSERT_EQ(d.windows.size(), 2u);
  const obs::ElideWindowCounters& w0 = d.windows[0].elide.at(3);
  EXPECT_EQ(w0.acquisitions, 2u);
  EXPECT_EQ(w0.elided, 1u);
  EXPECT_EQ(w0.fallbacks, 1u);
  EXPECT_EQ(w0.cycles_elided, 40u);
  EXPECT_EQ(w0.cycles_wasted, 25u);
  EXPECT_EQ(d.windows[1].elide.at(3).elided, 1u);
  EXPECT_EQ(d.lock_names.at(3), "hot-mutex");
}

// ---- Flame profile: exact under ring wrap ----

core::RunConfig traced_cfg(Backend b, size_t ring_capacity) {
  core::RunConfig cfg;
  cfg.backend = b;
  cfg.threads = 2;
  cfg.obs.enabled = true;
  cfg.obs.capacity = ring_capacity;
  cfg.obs.metrics.window_cycles = 500;
  return cfg;
}

void run_contended(core::TxRuntime& rt, uint32_t threads) {
  sim::Addr addr = rt.heap().host_alloc(64, 64);
  std::vector<std::function<void(core::TxCtx&)>> workers;
  for (CtxId t = 0; t < threads; ++t) {
    workers.push_back([addr](core::TxCtx& ctx) {
      for (int i = 0; i < 150; ++i) {
        ctx.transaction([&] {
          Word v = ctx.load(addr);
          ctx.compute(30);
          ctx.store(addr, v + 1);
        });
      }
    });
  }
  rt.run(std::move(workers));
}

TEST(FlameProfile, WeightsSumToWastedCyclesEvenAfterRingWrap) {
  // A 16-event ring wraps hundreds of times in this run; the flame profile
  // aggregates at emission time, so it must not lose a single wasted cycle.
  core::TxRuntime rt(traced_cfg(Backend::kRtm, 16));
  run_contended(rt, 2);
  ASSERT_GT(rt.trace_sink()->dropped(), 0u);
  auto m = rt.metrics_data();
  auto p = rt.pmu_data();
  ASSERT_TRUE(m.has_value());
  ASSERT_TRUE(p.has_value());
  ASSERT_GT(p->split.wasted, 0u);
  uint64_t flame_total = 0;
  for (const auto& [victim, edges] : m->flame) {
    for (const auto& [key, cycles] : edges) flame_total += cycles;
  }
  EXPECT_EQ(flame_total, p->split.wasted);
}

// ---- Ring capacity 0: every fold stays exact ----

// Untraced bench runs keep no event ring (only the Chrome trace export reads
// it). PMU data, per-site attribution and the metrics digest must not
// notice: each is folded at emission time, never replayed from the ring.
TEST(RingCapacity, ZeroCapacityRunFoldsLikeAFullRing) {
  for (Backend b : {Backend::kRtm, Backend::kTinyStm, Backend::kHybrid}) {
    auto capture = [b](size_t ring_capacity) {
      core::RunConfig cfg = traced_cfg(b, ring_capacity);
      cfg.obs.sample_interval = 2000;
      core::TxRuntime rt(cfg);
      run_contended(rt, 2);
      return obs::make_capture(*rt.trace_sink(), "cell", 3.3, 2,
                               rt.pmu_data(), rt.metrics_data());
    };
    obs::Capture full = capture(1 << 16);
    obs::Capture none = capture(0);
    EXPECT_FALSE(full.events.empty());
    EXPECT_EQ(full.dropped, 0u);
    EXPECT_TRUE(none.events.empty());
    EXPECT_EQ(none.dropped, 0u);
    ASSERT_TRUE(none.pmu.has_value());
    EXPECT_FALSE(none.pmu->samples.empty());

    obs::Registry with_ring, without_ring;
    with_ring.add(full);
    without_ring.add(none);
    EXPECT_EQ(with_ring.counter_digest(), without_ring.counter_digest());
    ASSERT_TRUE(without_ring.metrics_digest().has_value());
    EXPECT_EQ(with_ring.metrics_digest(), without_ring.metrics_digest());

    ASSERT_EQ(full.sites.size(), none.sites.size());
    for (const auto& [site, agg] : full.sites) {
      const obs::SiteAgg& z = none.sites.at(site);
      EXPECT_EQ(agg.attempts, z.attempts);
      EXPECT_EQ(agg.commits, z.commits);
      EXPECT_EQ(agg.fallbacks, z.fallbacks);
      EXPECT_EQ(agg.aborts_by_reason, z.aborts_by_reason);
      EXPECT_EQ(agg.conflict_lines, z.conflict_lines);
      EXPECT_EQ(agg.attacker_sites, z.attacker_sites);
    }
    std::ostringstream ps_full, ps_none;
    obs::write_perf_stat(ps_full, {full});
    obs::write_perf_stat(ps_none, {none});
    EXPECT_EQ(ps_full.str(), ps_none.str()) << core::backend_name(b);
  }
}

// ---- Exporters ----

obs::Capture hub_capture(const std::string& label, Backend b) {
  core::TxRuntime rt(traced_cfg(b, 1 << 16));
  run_contended(rt, 2);
  obs::Capture c = obs::make_capture(*rt.trace_sink(), label, 3.3, 2);
  c.pmu = rt.pmu_data();
  c.metrics = rt.metrics_data();
  return c;
}

TEST(OpenMetrics, ExpositionIsByteDeterministicAndWellFormed) {
  auto render = [] {
    std::vector<obs::Capture> caps;
    caps.push_back(hub_capture("cell:rtm", Backend::kRtm));
    std::ostringstream os;
    obs::write_openmetrics(os, caps);
    return os.str();
  };
  std::string a = render();
  EXPECT_EQ(a, render());
  // Spot-check the exposition grammar: HELP/TYPE headers, labelled samples,
  // the misc-bucket label, and the mandatory EOF marker last.
  EXPECT_NE(a.find("# HELP tsxlab_window_hw_commits "), std::string::npos);
  EXPECT_NE(a.find("# TYPE tsxlab_window_hw_commits gauge"),
            std::string::npos);
  EXPECT_NE(a.find("tsxlab_window_hw_commits{cell=\"cell:rtm\",w=\"0\"} "),
            std::string::npos);
  EXPECT_NE(a.find("bucket=\"1\""), std::string::npos);
  EXPECT_NE(a.find("tsxlab_window_abort_rate{"), std::string::npos);
  EXPECT_NE(a.find("tsxlab_window_cycles{cell=\"cell:rtm\"} 500"),
            std::string::npos);
  ASSERT_GE(a.size(), 6u);
  EXPECT_EQ(a.substr(a.size() - 6), "# EOF\n");
}

TEST(OpenMetrics, SamplesFollowRegistryLabelOrder) {
  // Registry::drain label-sorts, which is what makes the exposition --jobs
  // invariant; the exporter itself must preserve that order per family.
  obs::Registry reg;
  reg.add(hub_capture("cell:b", Backend::kRtm));
  reg.add(hub_capture("cell:a", Backend::kRtm));
  std::vector<obs::Capture> caps = reg.drain();
  std::ostringstream os;
  obs::write_openmetrics(os, caps);
  std::string out = os.str();
  size_t first_a = out.find("tsxlab_window_hw_starts{cell=\"cell:a\"");
  size_t first_b = out.find("tsxlab_window_hw_starts{cell=\"cell:b\"");
  ASSERT_NE(first_a, std::string::npos);
  ASSERT_NE(first_b, std::string::npos);
  EXPECT_LT(first_a, first_b);
}

TEST(Flamegraph, CollapsedStacksAreDeterministicAndWeighted) {
  auto render = [] {
    std::vector<obs::Capture> caps;
    caps.push_back(hub_capture("cell:rtm", Backend::kRtm));
    std::ostringstream os;
    obs::write_flamegraph(os, caps);
    return os.str();
  };
  std::string a = render();
  EXPECT_EQ(a, render());
  ASSERT_FALSE(a.empty());
  // Each line: "cell;victim;attacker-or-[reason] <cycles>" with a positive
  // weight (zero-weight stacks are filtered).
  std::istringstream is(a);
  std::string line;
  uint64_t total = 0;
  while (std::getline(is, line)) {
    ASSERT_EQ(line.rfind("cell:rtm;", 0), 0u) << line;
    size_t semi2 = line.find(';', line.find(';') + 1);
    ASSERT_NE(semi2, std::string::npos) << line;
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    uint64_t cycles = std::stoull(line.substr(sp + 1));
    EXPECT_GT(cycles, 0u) << line;
    total += cycles;
  }
  EXPECT_GT(total, 0u);
}

// ---- Phase events reach the finalized data on a simulated phased run ----

TEST(MetricsHub, SimulatedLoadShiftProducesAPhaseEvent) {
  // Two phases in one run: a quiet warmup (sparse small transactions), then
  // a hot burst (every context hammering one line). The detector must mark
  // at least one boundary, on the activity or contention axis.
  core::RunConfig cfg = traced_cfg(Backend::kRtm, 1 << 16);
  cfg.threads = 4;
  cfg.obs.metrics.window_cycles = 2000;
  core::TxRuntime rt(cfg);
  sim::Addr addr = rt.heap().host_alloc(256, 64);
  std::vector<std::function<void(core::TxCtx&)>> workers;
  for (CtxId t = 0; t < 4; ++t) {
    workers.push_back([addr, t](core::TxCtx& ctx) {
      // Phase 1: long idle gaps, disjoint lines — low activity, no aborts.
      for (int i = 0; i < 40; ++i) {
        ctx.transaction([&] {
          Word v = ctx.load(addr + 64 * t);
          ctx.compute(5);
          ctx.store(addr + 64 * t, v + 1);
        });
        ctx.compute(400);
      }
      // Phase 2: tight contended loop on one shared line.
      for (int i = 0; i < 400; ++i) {
        ctx.transaction([&] {
          Word v = ctx.load(addr);
          ctx.compute(10);
          ctx.store(addr, v + 1);
        });
      }
    });
  }
  rt.run(std::move(workers));
  auto m = rt.metrics_data();
  ASSERT_TRUE(m.has_value());
  ASSERT_GT(m->windows.size(), 6u);
  EXPECT_FALSE(m->phases.empty());
  for (const obs::PhaseEvent& e : m->phases) {
    EXPECT_LT(e.window, m->windows.size());
    EXPECT_EQ(e.t, m->windows[e.window].start);
  }
}

}  // namespace
