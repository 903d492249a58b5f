// bench/server: the open-loop request generator (Zipf sampler, phase
// schedules), the three services' conservation laws under every scoreboard
// backend (with the serializability oracle recording each run), and the
// --jobs determinism of the rendered scoreboard.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bench/server/server_driver.h"
#include "sim/rng.h"

namespace {

using namespace tsx;
using namespace tsx::bench::server;

// ---- Zipf sampler ----

TEST(ZipfSampler, StaysInRangeAndIsDeterministic) {
  sim::ZipfSampler z(1000, 0.99);
  sim::Rng a(42), b(42);
  for (int i = 0; i < 5000; ++i) {
    uint64_t va = z(a);
    uint64_t vb = z(b);
    EXPECT_EQ(va, vb);
    EXPECT_LT(va, 1000u);
  }
}

TEST(ZipfSampler, SingleElementAlwaysZero) {
  sim::ZipfSampler z(1, 0.99);
  sim::Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z(rng), 0u);
}

TEST(ZipfSampler, SkewsTowardLowRanks) {
  // Rank 0 must dominate a mid-pack rank, and the head must carry far more
  // mass than a uniform draw would give it. Loose bounds: this is a
  // distribution sanity check, not a statistical test.
  sim::ZipfSampler z(1u << 16, 0.99);
  sim::Rng rng(7);
  const int n = 200000;
  uint64_t rank0 = 0, head256 = 0, mid = 0;
  for (int i = 0; i < n; ++i) {
    uint64_t v = z(rng);
    if (v == 0) ++rank0;
    if (v < 256) ++head256;
    if (v >= (1u << 15) && v < (1u << 15) + 256) ++mid;  // 256 mid ranks
  }
  EXPECT_GT(rank0, n / 1000);    // uniform would give ~3 hits
  EXPECT_GT(head256, n / 10);    // the head carries a large share
  EXPECT_GT(head256, 20 * mid);  // and dwarfs an equal-width mid slice
}

TEST(ZipfSampler, StableAtThetaOne) {
  // theta == 1 exercises the log branch of hIntegral (the 0/0 limit the
  // log1p/expm1 helpers exist for). Must not hang, NaN, or leave range.
  sim::ZipfSampler z(1u << 20, 1.0);
  sim::Rng rng(3);
  uint64_t max_seen = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = z(rng);
    EXPECT_LT(v, 1u << 20);
    if (v > max_seen) max_seen = v;
  }
  // The tail is still reachable (not collapsed onto rank 0).
  EXPECT_GT(max_seen, 1u << 10);
}

// ---- Schedule generator ----

TrafficConfig small_traffic(uint64_t requests_per_phase = 40) {
  TrafficConfig t;
  t.keys = 4096;
  t.clients = 1024;
  t.mean_interarrival = 400;
  t.threads = 2;
  t.seed = 1234;
  t.phases = default_phases(requests_per_phase, 0.2);
  return t;
}

TEST(ServerSchedule, DeterministicPerWorkerAndDistinctAcrossWorkers) {
  TrafficConfig t = small_traffic();
  std::vector<Request> a = make_schedule(t, 0);
  std::vector<Request> b = make_schedule(t, 0);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].is_write, b[i].is_write);
  }
  std::vector<Request> other = make_schedule(t, 1);
  bool differs = false;
  for (size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].arrival != other[i].arrival || a[i].key != other[i].key;
  }
  EXPECT_TRUE(differs) << "workers must not share an arrival stream";
}

TEST(ServerSchedule, PhasesArriveInOrderWithScriptedShape) {
  TrafficConfig t = small_traffic(300);
  std::vector<Request> s = make_schedule(t, 0);
  ASSERT_EQ(s.size(), 900u);
  uint64_t writes[3] = {0, 0, 0}, hot[3] = {0, 0, 0}, count[3] = {0, 0, 0};
  sim::Cycles prev = 0;
  uint32_t prev_phase = 0;
  for (const Request& r : s) {
    EXPECT_GT(r.arrival, prev);  // strictly increasing open-loop arrivals
    prev = r.arrival;
    EXPECT_GE(r.phase, prev_phase);  // phases are contiguous windows
    prev_phase = r.phase;
    ASSERT_LT(r.phase, 3u);
    ++count[r.phase];
    if (r.is_write) ++writes[r.phase];
    if (r.key < 16) ++hot[r.phase];
    EXPECT_LT(r.key, t.keys);
    EXPECT_LT(r.client, t.clients);
    EXPECT_GE(r.amount, 1u);
    EXPECT_LE(r.amount, 8u);
  }
  for (int p = 0; p < 3; ++p) EXPECT_EQ(count[p], 300u);
  // Flash crowd: ~80% of phase-1 traffic on 16 keys; the steady phase only
  // hits them by Zipf chance.
  EXPECT_GT(hot[1], 200u);
  EXPECT_LT(hot[0], hot[1] / 2);
  // Write burst: phase 2 writes (ratio 0.8) dwarf the steady 0.2.
  EXPECT_GT(writes[2], writes[0] * 2);
}

// ---- Services under every scoreboard backend, oracle-recorded ----

class ServerService
    : public ::testing::TestWithParam<std::tuple<ServiceKind, core::Backend>> {
};

TEST_P(ServerService, ConservationHoldsAndHistorySerializable) {
  auto [kind, backend] = GetParam();
  TrafficConfig t = small_traffic();
  // verify_history=true records every simulated access and checks the run
  // for serializability (tm_fuzz's oracle) — small workload, full check.
  CellResult r = run_server_rep(kind, backend, t, t.seed,
                                /*obs_label=*/"", /*verify_history=*/true);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.completed, r.offered);
  EXPECT_EQ(r.lat_all.count(), r.completed);
  EXPECT_GT(r.wall, 0u);
  ASSERT_EQ(r.lat_phase.size(), 3u);
  uint64_t per_phase = 0;
  for (size_t p = 0; p < 3; ++p) per_phase += r.completed_phase[p];
  EXPECT_EQ(per_phase, r.completed);
  if (kind == ServiceKind::kKv) {
    EXPECT_GT(r.elide_attempts, 0u);  // the KV store went through elision
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ServerService,
    ::testing::Combine(::testing::Values(ServiceKind::kKv,
                                         ServiceKind::kOrderBook,
                                         ServiceKind::kInventory),
                       ::testing::Values(core::Backend::kRtm,
                                         core::Backend::kTinyStm,
                                         core::Backend::kHybrid,
                                         core::Backend::kLock)),
    [](const auto& info) {
      return std::string(service_name(std::get<0>(info.param))) + "_" +
             core::backend_name(std::get<1>(info.param));
    });

// The service totals are the per-lock sums on every field, including the
// busy-wait, abort and cycle counters the scoreboard does not print.
TEST(ServerService, ElideTotalsSumEveryPerLockField) {
  TrafficConfig t = small_traffic(100);
  t.keys = 64;  // few hot keys across 4 workers: busy waits and aborts
  t.threads = 4;
  core::TxRuntime rt(server_run_cfg(core::Backend::kRtm, t, t.seed));
  std::unique_ptr<Service> svc = make_service(ServiceKind::kKv, rt, t);
  std::vector<std::vector<Request>> sched;
  for (uint32_t w = 0; w < t.threads; ++w) {
    sched.push_back(make_schedule(t, w));
  }
  rt.run([&](core::TxCtx& ctx) {
    if (ctx.id() == 0) svc->init(ctx);
    ctx.barrier();
    for (const Request& r : sched[ctx.id()]) svc->handle(ctx, ctx.id(), r);
  });

  elide::ElideStats sum;
  std::vector<elide::ElideStats> locks = svc->elide_locks();
  ASSERT_EQ(locks.size(), KvService::kShards);
  for (const elide::ElideStats& s : locks) {
    sum.acquisitions += s.acquisitions;
    sum.attempts += s.attempts;
    sum.elided += s.elided;
    sum.busy_waits += s.busy_waits;
    sum.aborts += s.aborts;
    sum.fallbacks += s.fallbacks;
    sum.lock_acquires += s.lock_acquires;
    sum.self_stops += s.self_stops;
    sum.cycles_elided += s.cycles_elided;
    sum.cycles_wasted += s.cycles_wasted;
    sum.stopped = sum.stopped || s.stopped;
  }
  elide::ElideStats tot = svc->elide_totals();
  EXPECT_EQ(tot.acquisitions, sum.acquisitions);
  EXPECT_EQ(tot.attempts, sum.attempts);
  EXPECT_EQ(tot.elided, sum.elided);
  EXPECT_EQ(tot.busy_waits, sum.busy_waits);
  EXPECT_EQ(tot.aborts, sum.aborts);
  EXPECT_EQ(tot.fallbacks, sum.fallbacks);
  EXPECT_EQ(tot.lock_acquires, sum.lock_acquires);
  EXPECT_EQ(tot.self_stops, sum.self_stops);
  EXPECT_EQ(tot.cycles_elided, sum.cycles_elided);
  EXPECT_EQ(tot.cycles_wasted, sum.cycles_wasted);
  EXPECT_EQ(tot.stopped, sum.stopped);
  // The run exercised the fields the totals used to drop.
  EXPECT_EQ(tot.acquisitions, 4 * 300u);
  EXPECT_GT(tot.busy_waits, 0u);
  EXPECT_GT(tot.aborts, 0u);
  EXPECT_GT(tot.cycles_elided, 0u);
  EXPECT_GT(tot.cycles_wasted, 0u);
}

TEST(ServerService, SameSeedSameScoreboardCell) {
  TrafficConfig t = small_traffic();
  CellResult a = run_server_rep(ServiceKind::kOrderBook, core::Backend::kRtm,
                                t, t.seed);
  CellResult b = run_server_rep(ServiceKind::kOrderBook, core::Backend::kRtm,
                                t, t.seed);
  EXPECT_EQ(a.wall, b.wall);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.misses, b.misses);
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(a.lat_all.percentile(p), b.lat_all.percentile(p));
  }
}

// ---- Online phase detection on the scripted schedule ----

// The metrics hub's acceptance criterion (PR 10): for every scoreboard
// backend, the online detector must flag the scripted steady->flash-crowd
// and flash-crowd->write-burst transitions within one window of the ground
// truth, without chattering in between.
class ServerPhaseDetection : public ::testing::TestWithParam<core::Backend> {};

TEST_P(ServerPhaseDetection, ScriptedBoundariesFlaggedWithinOneWindow) {
  TrafficConfig t;
  t.keys = 4096;
  t.clients = 1024;
  // Sub-capacity load: every backend (the serialized Lock included) must
  // drain requests as they arrive, so per-window activity tracks the
  // *scripted* arrival rate instead of saturating at service capacity —
  // an overloaded server turns scripted steps into queueing ramps.
  t.mean_interarrival = 4000;
  t.threads = 2;
  t.seed = 99;
  // Long phases spanning many windows: ~1.2M cycles steady, ~600k flash
  // crowd (arrival_scale 0.5), ~1.2M write burst.
  t.phases = default_phases(300, 0.2);

  PhaseProbe probe;
  probe.window_cycles = 60000;  // ~30 completions per steady window
  CellResult r = run_server_rep(ServiceKind::kOrderBook, GetParam(), t,
                                t.seed, /*obs_label=*/"",
                                /*verify_history=*/false, &probe);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(probe.metrics.has_value());
  ASSERT_EQ(probe.boundaries.size(), 2u);  // two scripted transitions

  const obs::MetricsData& m = *probe.metrics;
  ASSERT_GT(m.windows.size(), 20u);
  for (size_t b = 0; b < probe.boundaries.size(); ++b) {
    // The transition lands inside window wb; the detector may flag the
    // mixed window itself or the first wholly-shifted one — within one
    // window of the scripted boundary either way.
    uint32_t wb =
        static_cast<uint32_t>(probe.boundaries[b] / probe.window_cycles);
    bool flagged = false;
    for (const obs::PhaseEvent& e : m.phases) {
      flagged = flagged || (e.window >= wb && e.window <= wb + 1);
    }
    EXPECT_TRUE(flagged) << "scripted boundary " << b << " (cycle "
                         << probe.boundaries[b] << ", window " << wb
                         << ") not flagged; detector fired at windows: "
                         << [&] {
                              std::string s;
                              for (const obs::PhaseEvent& e : m.phases) {
                                s += std::to_string(e.window) + " ";
                              }
                              return s;
                            }();
  }
  // Bounded chatter: a handful of boundary events across the whole run,
  // not one per window.
  EXPECT_LE(m.phases.size(), 8u);
  EXPECT_GE(m.phases.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ServerPhaseDetection,
                         ::testing::Values(core::Backend::kRtm,
                                           core::Backend::kTinyStm,
                                           core::Backend::kHybrid,
                                           core::Backend::kLock),
                         [](const auto& info) {
                           return std::string(core::backend_name(info.param));
                         });

// ---- --jobs determinism of the rendered scoreboard ----

TEST(ServerSweep, ScoreboardIsByteIdenticalAcrossJobs) {
  TrafficConfig t = small_traffic();
  tsx::bench::BenchArgs args;
  args.reps = 2;
  args.progress = 0;  // no TTY progress lines from the pool
  std::vector<core::Backend> backends = server_backends();

  args.jobs = 1;
  std::string serial =
      scoreboard_text(t, run_server_sweep("test_server_sweep", ServiceKind::kKv,
                                          t, backends, args));
  args.jobs = 4;
  std::string sharded =
      scoreboard_text(t, run_server_sweep("test_server_sweep", ServiceKind::kKv,
                                          t, backends, args));
  EXPECT_EQ(serial, sharded);
  EXPECT_NE(serial.find("RTM"), std::string::npos);
  EXPECT_NE(serial.find("Lock"), std::string::npos);
}

}  // namespace
