// src/obs: ring-buffer trace sink, abort attribution, and the exporters.
//
// Covers the subsystem's contract end-to-end: the ring keeps the newest
// events while aggregation stays exact; a deliberately conflicting
// two-thread workload is attributed to the correct cache line and attacker
// call site; the Chrome trace export is well-formed and byte-identical
// across repeated identical runs (the --jobs determinism the bench layer
// relies on).

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "eigenbench/eigenbench.h"
#include "obs/abort_report.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"

namespace {

using namespace tsx;
using sim::AbortReason;
using sim::CtxId;
using sim::Cycles;
using sim::Word;

TEST(TraceSink, RingWraparoundKeepsNewestAndAggregatesStayExact) {
  obs::TraceSink sink(4);
  for (Cycles t = 0; t < 10; ++t) {
    sink.emit({.kind = obs::EventKind::kTxBegin,
               .flags = obs::kFlagStm,
               .ctx = 0,
               .site = 7,
               .t = t});
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  std::vector<obs::Event> ev = sink.events();
  ASSERT_EQ(ev.size(), 4u);
  for (size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].t, 6u + i);  // oldest -> newest, newest kept
    EXPECT_EQ(ev[i].kind, obs::EventKind::kTxBegin);
    EXPECT_EQ(ev[i].flags & obs::kFlagStm, obs::kFlagStm);
  }
  // Per-site attribution is maintained incrementally, not recomputed from
  // the (lossy) ring: all 10 attempts are still counted.
  ASSERT_EQ(sink.sites().count(7u), 1u);
  EXPECT_EQ(sink.sites().at(7u).attempts, 10u);
}

// One scripted stream through a sink with both consumers attached: the
// sink's single open-attempt table pairs every attempt once, and the PMU,
// the hub, the flame profile and SiteAgg all see the same pairing.
TEST(TraceSink, OneOpenAttemptTableFeedsEveryFold) {
  using obs::EventKind;
  obs::TraceSink sink(64);
  obs::Pmu pmu(2);
  obs::MetricsConfig mcfg;
  mcfg.window_cycles = 100;
  obs::MetricsHub hub(mcfg);
  sink.set_pmu(&pmu);
  sink.set_hub(&hub);
  auto hw = [&](EventKind k, CtxId c, Cycles t,
                AbortReason r = AbortReason::kNone, CtxId attacker = ~0u) {
    sink.emit({.kind = k, .reason = r, .ctx = c, .attacker = attacker, .t = t});
  };

  sink.set_site(0, 1);
  hw(EventKind::kTxBegin, 0, 10);
  hw(EventKind::kTxCommit, 0, 40);  // paired: 30 committed cycles
  sink.emit({.kind = EventKind::kTxBegin,
             .flags = obs::kFlagStm,
             .ctx = 1,
             .site = 2,
             .t = 20});
  sink.emit({.kind = EventKind::kTxAbort,  // attributed to ctx 0's site 1
             .flags = obs::kFlagStm,
             .reason = AbortReason::kConflict,
             .ctx = 1,
             .attacker = 0,
             .t = 50,
             .line = 0x40});
  sink.emit(obs::retry_event(1, 55, /*fallback=*/true));
  hw(EventKind::kTxBegin, 0, 60);
  hw(EventKind::kTxAbort, 0, 90, AbortReason::kReadCapacity);  // no attacker
  hw(EventKind::kTxCommit, 1, 120);  // no open begin
  hw(EventKind::kTxBegin, 0, 130);
  hw(EventKind::kTxBegin, 0, 140);  // attempt already open: dropped
  hw(EventKind::kTxCommit, 0, 170);  // pairs with t=140: 30 cycles
  hw(EventKind::kTxAbort, 1, 180, AbortReason::kConflict, 1);  // no begin
  // A context past the PMU's thread count: the hub pairs it, the PMU not.
  hw(EventKind::kTxBegin, 3, 210);
  hw(EventKind::kTxCommit, 3, 230);
  sink.emit({.kind = EventKind::kLockSection, .ctx = 0, .t = 250, .cycles = 40});
  sink.set_lock_name(5, "m5");
  sink.set_lock_name(6, "idle");
  const obs::ElideAcquisition acq{5, obs::ElideAcqKind::kElided, false, 2,
                                  12, 3};
  sink.emit({.kind = EventKind::kElideAcquire,
             .ctx = 0,
             .t = 260,
             .payload = {.elide = &acq}});

  // Ring: every event except the two fold-only kinds.
  EXPECT_EQ(sink.size(), 14u);
  for (const obs::Event& e : sink.events()) {
    EXPECT_TRUE(obs::is_ring_kind(e.kind));
    EXPECT_EQ(e.payload.stats, nullptr);
  }

  // PMU: three mismatches (commit and abort without a begin, begin while
  // open); ctx 3 is beyond its thread count and ignored.
  obs::PmuData d = pmu.finalize(sim::MachineStats{}, 300, {300, 300},
                                {300, 300}, 0.0, sim::EnergyParams{}, 3.3);
  EXPECT_EQ(d.mismatched, 3u);
  EXPECT_FALSE(d.identity_ok);
  EXPECT_EQ(d.stm_starts, 1u);
  EXPECT_EQ(d.stm_aborts, 1u);
  EXPECT_EQ(d.fallbacks, 1u);
  EXPECT_EQ(d.ctx[0].committed, 60u);
  EXPECT_EQ(d.ctx[0].wasted, 30u);
  EXPECT_EQ(d.ctx[1].committed, 0u);
  EXPECT_EQ(d.ctx[1].wasted, 30u);
  EXPECT_EQ(d.tx_duration.count(), 2u);
  EXPECT_EQ(d.abort_latency.count(), 2u);
  ASSERT_EQ(d.elide.size(), 1u);
  EXPECT_EQ(d.elide[0].attempts, 2u);
  EXPECT_EQ(d.elide[0].cycles_wasted, 3u);

  // Hub windows.
  obs::Capture c =
      obs::make_capture(sink, "t", 3.3, 2, std::move(d), hub.finalize(300));
  const obs::MetricsData& m = *c.metrics;
  ASSERT_EQ(m.windows.size(), 3u);
  const obs::MetricsWindow& w0 = m.windows[0];
  EXPECT_EQ(w0.hw_starts, 2u);
  EXPECT_EQ(w0.hw_commits, 1u);
  EXPECT_EQ(w0.hw_aborts, 1u);
  EXPECT_EQ(w0.stm_starts, 1u);
  EXPECT_EQ(w0.stm_aborts, 1u);
  EXPECT_EQ(w0.fallbacks, 1u);
  EXPECT_EQ(w0.committed_cycles, 30u);
  EXPECT_EQ(w0.wasted_cycles, 60u);
  EXPECT_EQ(w0.aborts_by_reason[static_cast<size_t>(
                AbortReason::kReadCapacity)],
            1u);
  EXPECT_EQ(w0.aborts_by_reason[static_cast<size_t>(AbortReason::kConflict)],
            0u);  // STM aborts count as stm_aborts only
  const obs::MetricsWindow& w1 = m.windows[1];
  EXPECT_EQ(w1.hw_starts, 2u);
  EXPECT_EQ(w1.hw_commits, 2u);
  EXPECT_EQ(w1.hw_aborts, 1u);
  EXPECT_EQ(w1.committed_cycles, 30u);  // the unpaired commit adds none
  EXPECT_EQ(w1.wasted_cycles, 0u);
  const obs::MetricsWindow& w2 = m.windows[2];
  EXPECT_EQ(w2.hw_starts, 1u);
  EXPECT_EQ(w2.committed_cycles, 20u);  // ctx 3
  EXPECT_EQ(w2.lock_sections, 1u);
  EXPECT_EQ(w2.lock_section_cycles, 40u);
  EXPECT_EQ(w2.elide.at(5).elided, 1u);
  EXPECT_EQ(w2.elide.at(5).cycles_elided, 12u);

  // Flame: the attributed STM abort, the unattributed capacity abort, and a
  // zero-cycle edge for the unpaired abort.
  const obs::FlameProfile& f = m.flame;
  EXPECT_EQ(f.at(2).at(obs::flame_attacker_key(1)), 30u);
  EXPECT_EQ(f.at(1).at(obs::flame_reason_key(AbortReason::kReadCapacity)),
            30u);
  EXPECT_EQ(f.at(2).at(obs::flame_reason_key(AbortReason::kConflict)), 0u);

  // SiteAgg.
  const obs::SiteAgg& s1 = c.sites.at(1);
  EXPECT_EQ(s1.attempts, 4u);
  EXPECT_EQ(s1.commits, 2u);
  EXPECT_EQ(s1.aborts(), 1u);
  const obs::SiteAgg& s2 = c.sites.at(2);
  EXPECT_EQ(s2.attempts, 1u);
  EXPECT_EQ(s2.commits, 1u);
  EXPECT_EQ(s2.fallbacks, 1u);
  EXPECT_EQ(s2.aborts_by_reason[static_cast<size_t>(AbortReason::kConflict)],
            2u);
  EXPECT_EQ(s2.conflict_lines.at(0x40), 1u);
  ASSERT_EQ(s2.attacker_sites.size(), 1u);  // self-attack not attributed
  EXPECT_EQ(s2.attacker_sites.at(1), 1u);
  EXPECT_EQ(c.sites.at(obs::kNoSite).attempts, 1u);  // ctx 3: no site

  // Lock names come from the sink, once, into both results.
  ASSERT_EQ(c.pmu->elide.size(), 2u);
  EXPECT_EQ(c.pmu->elide[0].name, "m5");
  EXPECT_EQ(c.pmu->elide[1].name, "idle");
  EXPECT_EQ(c.pmu->elide[1].acquisitions, 0u);
  EXPECT_EQ(m.lock_names.at(6), "idle");
}

// Capacity 0 keeps no ring: nothing is stored or counted as dropped, while
// SiteAgg and the PMU fold the same stream exactly as a sink with a ring.
TEST(TraceSink, ZeroCapacityKeepsNoRingButFoldsExactly) {
  using obs::EventKind;
  obs::TraceSink ringless(0);
  obs::TraceSink ring(64);
  obs::Pmu pmu0(2);
  obs::Pmu pmu1(2);
  ringless.set_pmu(&pmu0);
  ring.set_pmu(&pmu1);
  for (obs::TraceSink* s : {&ringless, &ring}) {
    s->set_site(0, 7);
    s->set_site(1, 9);
    for (Cycles t = 0; t < 200; t += 20) {
      s->emit({.kind = EventKind::kTxBegin, .ctx = 0, .t = t});
      if (t % 40) {
        s->emit({.kind = EventKind::kTxCommit, .ctx = 0, .t = t + 15});
      } else {
        s->emit({.kind = EventKind::kTxAbort,
                 .reason = AbortReason::kConflict,
                 .ctx = 0,
                 .attacker = 1,
                 .t = t + 10,
                 .line = 0x40});
        s->emit(obs::retry_event(0, t + 10, t == 160));
      }
    }
    s->emit({.kind = EventKind::kEvict, .level = 1, .ctx = 1, .t = 5,
             .line = 0x80});
  }
  EXPECT_EQ(ringless.capacity(), 0u);
  EXPECT_EQ(ringless.size(), 0u);
  EXPECT_TRUE(ringless.events().empty());
  EXPECT_EQ(ringless.dropped(), 0u);
  EXPECT_EQ(ring.events().size(), 26u);  // every ring kind was kept

  ASSERT_EQ(ringless.sites().size(), ring.sites().size());
  const obs::SiteAgg& a = ringless.sites().at(7);
  const obs::SiteAgg& b = ring.sites().at(7);
  EXPECT_EQ(a.attempts, 10u);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.fallbacks, 1u);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.aborts_by_reason, b.aborts_by_reason);
  EXPECT_EQ(a.conflict_lines, b.conflict_lines);
  EXPECT_EQ(a.attacker_sites, b.attacker_sites);
  EXPECT_EQ(a.attacker_sites.at(9), 5u);

  auto fin = [](const obs::Pmu& p) {
    return p.finalize(sim::MachineStats{}, 300, {300, 300}, {300, 300}, 0.0,
                      sim::EnergyParams{}, 3.3);
  };
  obs::PmuData d0 = fin(pmu0);
  obs::PmuData d1 = fin(pmu1);
  EXPECT_EQ(d0.split.committed, 75u);
  EXPECT_EQ(d0.split.committed, d1.split.committed);
  EXPECT_EQ(d0.split.wasted, d1.split.wasted);
  EXPECT_EQ(d0.fallbacks, d1.fallbacks);
  EXPECT_EQ(d0.mismatched, d1.mismatched);
  EXPECT_EQ(d0.tx_duration.count(), d1.tx_duration.count());
  EXPECT_EQ(d0.abort_latency.count(), d1.abort_latency.count());
  std::ostringstream r0, r1;
  obs::write_perf_stat(r0, {obs::make_capture(ringless, "t", 3.3, 2, d0)});
  obs::write_perf_stat(r1, {obs::make_capture(ring, "t", 3.3, 2, d1)});
  EXPECT_EQ(r0.str(), r1.str());
}

// Two threads hammer the same word from distinct call sites: the abort
// report must name the contended line and blame the opposite site.
core::RunConfig conflict_cfg() {
  core::RunConfig cfg;
  cfg.backend = core::Backend::kRtm;
  cfg.threads = 2;
  cfg.machine.interrupts_enabled = false;
  cfg.obs.enabled = true;
  return cfg;
}

void run_conflict_workload(core::TxRuntime& rt, sim::Addr* addr_out) {
  sim::Addr addr = rt.heap().host_alloc(64, 64);
  *addr_out = addr;
  std::vector<std::function<void(core::TxCtx&)>> workers;
  for (CtxId t = 0; t < 2; ++t) {
    uint32_t site = t + 1;  // thread 0 -> site 1, thread 1 -> site 2
    workers.push_back([addr, site](core::TxCtx& ctx) {
      for (int i = 0; i < 200; ++i) {
        ctx.transaction(
            [&] {
              Word v = ctx.load(addr);
              ctx.compute(30);
              ctx.store(addr, v + 1);
            },
            site);
      }
    });
  }
  rt.run(std::move(workers));
}

TEST(AbortAttribution, ConflictNamesLineAndAttackerSite) {
  core::TxRuntime rt(conflict_cfg());
  sim::Addr addr = 0;
  run_conflict_workload(rt, &addr);
  EXPECT_EQ(rt.machine().peek(addr), 400u);  // workload actually contended

  obs::TraceSink* sink = rt.trace_sink();
  ASSERT_NE(sink, nullptr);
  const auto& sites = sink->sites();
  ASSERT_EQ(sites.count(1u), 1u);
  ASSERT_EQ(sites.count(2u), 1u);

  uint64_t conflicts = 0, on_line = 0, attacked = 0;
  for (uint32_t site : {1u, 2u}) {
    const obs::SiteAgg& agg = sites.at(site);
    EXPECT_GT(agg.attempts, 0u);
    EXPECT_GT(agg.commits, 0u);
    conflicts +=
        agg.aborts_by_reason[static_cast<size_t>(AbortReason::kConflict)];
    auto it = agg.conflict_lines.find(sim::line_of(addr));
    if (it != agg.conflict_lines.end()) on_line += it->second;
    // Attackers can only be the two workload sites (self-aborts are not
    // attributed to an attacker site).
    uint32_t other = site == 1u ? 2u : 1u;
    for (const auto& [asite, n] : agg.attacker_sites) {
      EXPECT_EQ(asite, other) << "victim site " << site;
      attacked += n;
    }
  }
  EXPECT_GT(conflicts, 0u);  // the workload must have conflicted
  EXPECT_GT(on_line, 0u);    // ... on the shared word's cache line
  EXPECT_GT(attacked, 0u);   // ... blamed on the opposite call site
}

// STM aborts are C++ exceptions, and the abort handler yields to other
// fibers (lock release, backoff) before it reports the abort. Fibers share
// one host thread's caught-exception stack, so another fiber leaving its
// own handler can free this handler's exception object: the handler must
// not read it after a yield. Under ASan this contended, traced TinySTM run
// (fig07's hottest cell) turns any such read into a failure.
TEST(AbortAttribution, StmAbortsUnderContentionNameValidAttackers) {
  core::RunConfig cfg;
  cfg.backend = core::Backend::kTinyStm;
  cfg.threads = 4;
  cfg.machine.seed = 7000;
  cfg.seed = 7000;
  cfg.obs.enabled = true;
  eigenbench::EigenConfig eb;
  eb.loops = 100;
  eb.reads_mild = 0;
  eb.writes_mild = 0;
  eb.reads_hot = 90;
  eb.writes_hot = 10;
  eb.hot_bytes = 16 * 1024;
  cfg.obs.label = "test:stm-contention";
  eigenbench::run(cfg, eb);
  std::vector<obs::Capture> caps = obs::Registry::global().drain();
  ASSERT_EQ(caps.size(), 1u);
  uint64_t aborts = 0;
  for (const obs::Event& e : caps[0].events) {
    if (e.kind != obs::EventKind::kTxAbort) continue;
    ++aborts;
    EXPECT_LT(e.attacker, cfg.threads);
  }
  EXPECT_GT(aborts, 0u);
}

TEST(ChromeTrace, ExportIsWellFormedAndDeterministic) {
  auto traced_run = [] {
    core::TxRuntime rt(conflict_cfg());
    sim::Addr addr = 0;
    run_conflict_workload(rt, &addr);
    std::vector<obs::Capture> caps;
    caps.push_back(
        obs::make_capture(*rt.trace_sink(), "test:conflict", 3.3, 2));
    std::ostringstream os;
    obs::write_chrome_trace(os, caps);
    return os.str();
  };
  std::string a = traced_run();
  // Structural sanity without a JSON parser: envelope plus the event types
  // a contended RTM run must produce.
  EXPECT_EQ(a.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(a.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(a.find("\"ph\":\"M\""), std::string::npos);  // track metadata
  EXPECT_NE(a.find("\"ph\":\"X\""), std::string::npos);  // committed tx spans
  EXPECT_NE(a.find("\"ph\":\"i\""), std::string::npos);  // abort instants
  // The simulation and the export are both deterministic: a second
  // identical run serializes byte-identically (what makes bench traces
  // independent of --jobs).
  EXPECT_EQ(a, traced_run());
}

TEST(AbortReport, WriterCoversEverySiteAndDroppedNote) {
  core::TxRuntime rt(conflict_cfg());
  sim::Addr addr = 0;
  run_conflict_workload(rt, &addr);
  std::vector<obs::Capture> caps;
  caps.push_back(obs::make_capture(*rt.trace_sink(), "test:conflict", 3.3, 2));
  std::ostringstream os;
  obs::write_abort_report(os, caps);
  std::string r = os.str();
  EXPECT_NE(r.find("abort attribution: test:conflict"), std::string::npos);
  EXPECT_NE(r.find("site#1"), std::string::npos);
  EXPECT_NE(r.find("site#2"), std::string::npos);
}

TEST(EnergyWindows, SamplesAreEmittedOnMonotonicBoundaries) {
  core::RunConfig cfg = conflict_cfg();
  cfg.obs.sample_interval = 1000;
  core::TxRuntime rt(cfg);
  sim::Addr addr = 0;
  run_conflict_workload(rt, &addr);
  Cycles last = 0;
  size_t samples = 0;
  for (const obs::Event& e : rt.trace_sink()->events()) {
    if (e.kind != obs::EventKind::kEnergy) continue;
    ++samples;
    EXPECT_EQ(e.t % 1000, 0u);  // window boundaries only
    EXPECT_GT(e.t, last);       // strictly monotonic
    last = e.t;
  }
  EXPECT_GT(samples, 1u);
}

TEST(Registry, DrainSortsByLabelRegardlessOfAddOrder) {
  obs::Registry reg;
  obs::TraceSink sink(8);
  reg.add(obs::make_capture(sink, "b:second", 3.3, 1));
  reg.add(obs::make_capture(sink, "a:first", 3.3, 1));
  EXPECT_EQ(reg.size(), 2u);
  std::vector<obs::Capture> caps = reg.drain();
  ASSERT_EQ(caps.size(), 2u);
  EXPECT_EQ(caps[0].label, "a:first");
  EXPECT_EQ(caps[1].label, "b:second");
  EXPECT_EQ(reg.size(), 0u);
}

}  // namespace
