// Tests for the src/check subsystem: the serializability checker's replay
// semantics on hand-built histories, the history recorder's integration
// with every backend, and the schedule explorer's ability to catch (and
// shrink) an intentionally broken conflict-detection policy.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/checker.h"
#include "check/explorer.h"
#include "check/history.h"
#include "check/oracle.h"
#include "mem/layout.h"
#include "obs/registry.h"
#include "sim/rng.h"

namespace {

using tsx::check::Access;
using tsx::check::CheckResult;
using tsx::check::ExplorerConfig;
using tsx::check::History;
using tsx::check::OracleConfig;
using tsx::check::Unit;
using tsx::core::Backend;
using tsx::sim::Addr;
using tsx::sim::Word;

constexpr Addr kX = tsx::mem::kHeapBase;
constexpr Addr kY = tsx::mem::kHeapBase + 8;

Unit strict_unit(tsx::sim::CtxId ctx, std::vector<Access> accs) {
  Unit u;
  u.ctx = ctx;
  u.accesses = std::move(accs);
  return u;
}

Unit stm_unit(tsx::sim::CtxId ctx, std::vector<Access> accs) {
  Unit u = strict_unit(ctx, std::move(accs));
  u.stm = true;
  return u;
}

// A final-state oracle that replays the expected values.
std::function<Word(Addr)> final_is(std::unordered_map<Addr, Word> vals) {
  return [vals = std::move(vals)](Addr a) {
    auto it = vals.find(a);
    return it != vals.end() ? it->second : Word{0};
  };
}

TEST(Checker, AcceptsSerialHistory) {
  History h;
  h.initial = {{kX, 0}};
  h.units.push_back(strict_unit(0, {{kX, 0, false}, {kX, 1, true}}));
  h.units.push_back(strict_unit(1, {{kX, 1, false}, {kX, 2, true}}));
  CheckResult r = tsx::check::check_history(h, final_is({{kX, 2}}));
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(Checker, DetectsLostUpdate) {
  // Both units read 0 and write 1: the second one's read missed the first
  // one's committed write — the classic read-set-conflict-ignored bug.
  History h;
  h.initial = {{kX, 0}};
  h.units.push_back(strict_unit(0, {{kX, 0, false}, {kX, 1, true}}));
  h.units.push_back(strict_unit(1, {{kX, 0, false}, {kX, 1, true}}));
  CheckResult r = tsx::check::check_history(h, final_is({{kX, 1}}));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.unit_index, 1u);
}

TEST(Checker, DetectsFinalStateDivergence) {
  History h;
  h.initial = {{kX, 0}};
  h.units.push_back(strict_unit(0, {{kX, 5, true}}));
  CheckResult r = tsx::check::check_history(h, final_is({{kX, 7}}));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.unit_index, SIZE_MAX);
}

TEST(Checker, StmUnitMayReadAnOlderSnapshot) {
  // A time-based STM transaction can serialize after a writer it did not
  // observe, as long as all its reads come from one consistent snapshot.
  History h;
  h.initial = {{kX, 0}};
  h.units.push_back(strict_unit(0, {{kX, 1, true}}));
  h.units.push_back(stm_unit(1, {{kX, 0, false}, {kY, 9, true}}));
  CheckResult r = tsx::check::check_history(h, final_is({{kX, 1}, {kY, 9}}));
  EXPECT_TRUE(r.ok) << r.error;

  // The same history is NOT valid for a strict (lock/HTM) unit.
  h.units[1].stm = false;
  r = tsx::check::check_history(h, final_is({{kX, 1}, {kY, 9}}));
  EXPECT_FALSE(r.ok);
}

TEST(Checker, StmSnapshotMustBeSingleInstant) {
  // x and y are written together (unit 0); an STM unit that sees the new y
  // but the old x mixed two snapshots — torn read, must be rejected.
  History h;
  h.initial = {{kX, 0}, {kY, 0}};
  h.units.push_back(strict_unit(0, {{kX, 1, true}, {kY, 1, true}}));
  h.units.push_back(stm_unit(1, {{kY, 1, false}, {kX, 0, false}}));
  CheckResult r = tsx::check::check_history(h, final_is({{kX, 1}, {kY, 1}}));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.unit_index, 1u);
}

TEST(Checker, StmReadOwnWriteMustReturnBufferedValue) {
  History h;
  h.initial = {{kX, 0}};
  h.units.push_back(stm_unit(0, {{kX, 5, true}, {kX, 4, false}}));
  CheckResult r = tsx::check::check_history(h, final_is({{kX, 5}}));
  EXPECT_FALSE(r.ok);
}

TEST(Checker, StmRepeatedReadMustBeStable) {
  History h;
  h.initial = {{kX, 0}};
  h.units.push_back(strict_unit(0, {{kX, 1, true}}));
  h.units.push_back(stm_unit(1, {{kX, 0, false}, {kX, 1, false}}));
  CheckResult r = tsx::check::check_history(h, final_is({{kX, 1}}));
  EXPECT_FALSE(r.ok);
}

// ---- recorder + oracle integration ----

class OracleBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(OracleBackends, EigenIncHistorySerializable) {
  OracleConfig cfg;
  cfg.threads = 2;
  cfg.loops = 24;
  cfg.seed = 11;
  tsx::check::WorkloadResult r =
      tsx::check::run_workload("eigen-inc", GetParam(), cfg);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST_P(OracleBackends, EigenIncSurvivesScheduleJitter) {
  OracleConfig cfg;
  cfg.threads = 4;
  cfg.loops = 16;
  cfg.seed = 3;
  cfg.jitter_window = 128;
  cfg.quantum_ops = 4;
  tsx::check::WorkloadResult r =
      tsx::check::run_workload("eigen-inc", GetParam(), cfg);
  EXPECT_TRUE(r.ok) << r.error;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, OracleBackends,
                         ::testing::Values(Backend::kRtm, Backend::kHle,
                                           Backend::kTinyStm, Backend::kTl2,
                                           Backend::kLock, Backend::kCas),
                         [](const auto& inf) {
                           return std::string(
                               tsx::core::backend_name(inf.param));
                         });

TEST(Oracle, DigestsAgreeAcrossBackends) {
  OracleConfig cfg;
  cfg.threads = 2;
  cfg.loops = 24;
  cfg.seed = 5;
  tsx::check::OracleResult r = tsx::check::run_oracle(
      {"eigen-inc", "rbtree"}, tsx::check::default_backends(), cfg);
  EXPECT_TRUE(r.ok) << r.workload << "/" << r.backend << ": " << r.error;
}

TEST(Oracle, RunsAreDeterministic) {
  OracleConfig cfg;
  cfg.threads = 2;
  cfg.loops = 24;
  cfg.seed = 9;
  auto a = tsx::check::run_workload("rbtree", Backend::kRtm, cfg);
  auto b = tsx::check::run_workload("rbtree", Backend::kRtm, cfg);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.digest, b.digest);
}

// ---- recorder and obs sink on the machine's one hook slot ----

// An eigen-inc-style kernel (per-thread schedules of word increments on a
// small shared array, drawn outside the bodies, as in the oracle), run with
// any mix of the obs sink and the history recorder attached.
struct KernelRun {
  std::optional<tsx::obs::Capture> capture;
  std::optional<History> history;
  bool history_ok = true;
  std::string history_error;
};

KernelRun run_eigen_kernel(Backend backend, bool obs, bool record) {
  constexpr uint32_t kThreads = 4, kLoops = 24, kWords = 16, kTxWords = 4;
  tsx::core::RunConfig cfg;
  cfg.backend = backend;
  cfg.threads = kThreads;
  cfg.seed = 17;
  cfg.obs.enabled = obs;
  cfg.obs.sample_interval = 2000;
  cfg.obs.metrics.window_cycles = 500;
  tsx::core::TxRuntime rt(cfg);
  Addr base = rt.heap().host_alloc(kWords * 8, 64);
  std::vector<std::vector<uint32_t>> sched(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    tsx::sim::Rng rng(1000 + t);
    for (uint32_t j = 0; j < kLoops * kTxWords; ++j) {
      sched[t].push_back(static_cast<uint32_t>(rng.below(kWords)));
    }
  }
  std::optional<tsx::check::Recorder> rec;
  if (record) rec.emplace(rt);
  rt.run([&](tsx::core::TxCtx& ctx) {
    const std::vector<uint32_t>& mine = sched[ctx.id()];
    for (uint32_t j = 0; j < kLoops; ++j) {
      ctx.transaction(
          [&] {
            for (uint32_t k = 0; k < kTxWords; ++k) {
              Addr a = base + mine[j * kTxWords + k] * 8;
              ctx.store(a, ctx.load(a) + 1);
              ctx.compute(20);
            }
          },
          1 + ctx.id() % 2);
    }
  });
  KernelRun out;
  if (rec) {
    CheckResult cr = tsx::check::check_history(rec->history(), rt);
    out.history_ok = cr.ok;
    out.history_error = cr.error;
    out.history = rec->history();
  }
  if (obs) {
    out.capture = tsx::obs::make_capture(*rt.trace_sink(), "kernel", 3.3,
                                         kThreads, rt.pmu_data(),
                                         rt.metrics_data());
  }
  return out;
}

bool same_history(const History& a, const History& b) {
  if (a.initial != b.initial || a.units.size() != b.units.size()) {
    return false;
  }
  for (size_t i = 0; i < a.units.size(); ++i) {
    const Unit& x = a.units[i];
    const Unit& y = b.units[i];
    if (x.ctx != y.ctx || x.site != y.site || x.stm != y.stm ||
        x.accesses.size() != y.accesses.size()) {
      return false;
    }
    for (size_t k = 0; k < x.accesses.size(); ++k) {
      const Access& p = x.accesses[k];
      const Access& q = y.accesses[k];
      if (p.addr != q.addr || p.value != q.value || p.is_write != q.is_write) {
        return false;
      }
    }
  }
  return true;
}

class RecorderWithSink : public ::testing::TestWithParam<Backend> {};

// Both observers share the machine's one hook slot: attaching the recorder
// must not change a single obs counter, and the sink must not change a
// single recorded access.
TEST_P(RecorderWithSink, BothObserversSeeWhatEachSeesAlone) {
  KernelRun both = run_eigen_kernel(GetParam(), true, true);
  KernelRun obs_only = run_eigen_kernel(GetParam(), true, false);
  KernelRun rec_only = run_eigen_kernel(GetParam(), false, true);
  ASSERT_TRUE(both.history_ok) << both.history_error;
  ASSERT_TRUE(both.capture && obs_only.capture);
  ASSERT_TRUE(both.history && rec_only.history);
  EXPECT_FALSE(both.history->units.empty());

  tsx::obs::Registry with_rec, without_rec;
  with_rec.add(*both.capture);
  without_rec.add(*obs_only.capture);
  EXPECT_EQ(with_rec.counter_digest(), without_rec.counter_digest());
  ASSERT_TRUE(with_rec.metrics_digest().has_value());
  EXPECT_EQ(with_rec.metrics_digest(), without_rec.metrics_digest());
  const auto& s1 = both.capture->sites;
  const auto& s2 = obs_only.capture->sites;
  ASSERT_EQ(s1.size(), s2.size());
  for (const auto& [site, agg] : s1) {
    ASSERT_EQ(s2.count(site), 1u) << site;
    EXPECT_EQ(agg.attempts, s2.at(site).attempts);
    EXPECT_EQ(agg.commits, s2.at(site).commits);
    EXPECT_EQ(agg.fallbacks, s2.at(site).fallbacks);
    EXPECT_EQ(agg.aborts_by_reason, s2.at(site).aborts_by_reason);
    EXPECT_EQ(agg.conflict_lines, s2.at(site).conflict_lines);
    EXPECT_EQ(agg.attacker_sites, s2.at(site).attacker_sites);
  }
  EXPECT_GT(s1.at(1).aborts(), 0u);  // the abort path is exercised

  EXPECT_TRUE(same_history(*both.history, *rec_only.history));
}

INSTANTIATE_TEST_SUITE_P(HookSlot, RecorderWithSink,
                         ::testing::Values(Backend::kRtm, Backend::kHybrid,
                                           Backend::kTinyStm, Backend::kHle),
                         [](const auto& inf) {
                           return std::string(
                               tsx::core::backend_name(inf.param));
                         });

// ---- fault injection: the oracle must catch a broken conflict policy ----

TEST(Explorer, CatchesIgnoredReadSetConflicts) {
  ExplorerConfig cfg;
  cfg.workloads = {"eigen-inc"};
  cfg.backends = {Backend::kRtm};
  cfg.seeds = 16;
  cfg.threads = 2;
  cfg.loops = 32;
  cfg.break_read_set_conflicts = true;
  tsx::check::ExploreResult res = tsx::check::explore(cfg);
  ASSERT_TRUE(res.failed)
      << "a conflict policy that ignores read sets must lose updates";
  EXPECT_FALSE(res.repro.error.empty());
  EXPECT_NE(res.repro_command().find("--break-read-conflicts"),
            std::string::npos);

  // The shrunk reproducer must still fail when replayed directly.
  tsx::check::WorkloadResult replay = tsx::check::run_workload(
      res.repro.workload, res.repro.backend, res.repro.cfg);
  EXPECT_FALSE(replay.ok);
}

TEST(Explorer, CleanPolicyPassesSameSweep) {
  ExplorerConfig cfg;
  cfg.workloads = {"eigen-inc"};
  cfg.backends = {Backend::kRtm};
  cfg.seeds = 16;
  cfg.threads = 2;
  cfg.loops = 32;
  tsx::check::ExploreResult res = tsx::check::explore(cfg);
  EXPECT_FALSE(res.failed) << res.repro.error;
}

}  // namespace
