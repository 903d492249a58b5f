#include <gtest/gtest.h>

#include <array>

#include "core/runtime.h"

namespace {

using namespace tsx::core;
using tsx::sim::Addr;
using tsx::sim::Word;

RunConfig make_cfg(Backend b, uint32_t threads, bool interrupts = false) {
  RunConfig cfg;
  cfg.backend = b;
  cfg.threads = threads;
  cfg.machine.interrupts_enabled = interrupts;
  cfg.stm.lock_table_entries = 1u << 14;  // fast init in tests
  return cfg;
}

// The canonical atomicity workload: every backend must produce an exact
// shared counter.
class BackendCounter : public ::testing::TestWithParam<std::tuple<Backend, uint32_t>> {};

TEST_P(BackendCounter, SharedCounterIsExact) {
  auto [backend, threads] = GetParam();
  RunConfig cfg = make_cfg(backend, threads);
  TxRuntime rt(cfg);
  Addr counter = rt.heap().host_alloc(8, 64);
  const int iters = 200;
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < iters; ++i) {
      ctx.transaction([&] {
        Word v = ctx.load(counter);
        ctx.compute(7);
        ctx.store(counter, v + 1);
      });
    }
  });
  EXPECT_EQ(rt.machine().peek(counter), static_cast<Word>(threads) * iters);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendCounter,
    ::testing::Combine(::testing::Values(Backend::kLock, Backend::kRtm,
                                         Backend::kTinyStm, Backend::kTl2,
                                         Backend::kHybrid),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto& info) {
      return std::string(backend_name(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "t";
    });

TEST(TxRuntime, SeqBackendRunsWithoutSynchronization) {
  RunConfig cfg = make_cfg(Backend::kSeq, 1);
  TxRuntime rt(cfg);
  Addr counter = rt.heap().host_alloc(8);
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.transaction([&] { ctx.store(counter, ctx.load(counter) + 1); });
    }
  });
  EXPECT_EQ(rt.machine().peek(counter), 100u);
}

TEST(TxRuntime, ReportMeasuresWindowOnly) {
  RunConfig cfg = make_cfg(Backend::kLock, 2);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(4096, 64);
  rt.run([&](TxCtx& ctx) {
    // Expensive setup phase.
    for (int i = 0; i < 100; ++i) ctx.compute(1000);
    ctx.barrier();
    if (ctx.id() == 0) ctx.runtime().mark_measurement_start();
    ctx.barrier();
    for (int i = 0; i < 10; ++i) {
      ctx.transaction([&] { ctx.store(data, ctx.load(data) + 1); });
    }
  });
  RunReport r = rt.report();
  // The measured window excludes the 100k-cycle setup.
  EXPECT_LT(r.wall_cycles, 60'000u);
  EXPECT_GT(r.wall_cycles, 0u);
  EXPECT_GT(r.joules(), 0.0);
}

TEST(TxRuntime, RtmReportCountsTransactions) {
  RunConfig cfg = make_cfg(Backend::kRtm, 2);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < 50; ++i) {
      ctx.transaction([&] { ctx.store(data, ctx.load(data) + 1); });
    }
  });
  RunReport r = rt.report();
  EXPECT_EQ(r.rtm.transactions, 100u);
  EXPECT_EQ(r.rtm.commits + r.rtm.fallbacks, 100u);
}

TEST(TxRuntime, StmReportCountsTransactions) {
  RunConfig cfg = make_cfg(Backend::kTinyStm, 2);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < 50; ++i) {
      ctx.transaction([&] { ctx.store(data, ctx.load(data) + 1); });
    }
  });
  RunReport r = rt.report();
  EXPECT_EQ(r.stm.transactions, 100u);
  EXPECT_EQ(r.stm.commits, 100u);
}

TEST(TxRuntime, NestedTransactionsFlatten) {
  RunConfig cfg = make_cfg(Backend::kRtm, 1);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  rt.run([&](TxCtx& ctx) {
    ctx.transaction([&] {
      ctx.store(data, 1);
      ctx.transaction([&] { ctx.store(data + 8, 2); });
    });
  });
  EXPECT_EQ(rt.machine().peek(data), 1u);
  EXPECT_EQ(rt.machine().peek(data + 8), 2u);
  EXPECT_EQ(rt.report().rtm.transactions, 1u);
}

TEST(TxRuntime, MallocInsideAbortedRtmTxIsReclaimed) {
  RunConfig cfg = make_cfg(Backend::kRtm, 1);
  cfg.retry.max_attempts = 1;
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  uint64_t allocs_live_before = 0;
  rt.run([&](TxCtx& ctx) {
    allocs_live_before = ctx.runtime().heap().stats().bytes_live;
    ctx.transaction([&] {
      Addr p = ctx.malloc(64);
      ctx.store(data, p);
      if (!ctx.in_rtm_fallback()) {
        // Force an abort on the speculative path only.
        ctx.runtime().machine().tx_abort(0x1);
      }
    });
  });
  // Exactly one allocation (from the fallback execution) survives.
  EXPECT_EQ(rt.heap().stats().bytes_live, allocs_live_before + 64);
}

// The heap-scope half of the attempt bracket. A speculative attempt's
// allocations are undone when it aborts; lock and sequential sections take
// no scope, so a free inside them takes effect at once.
class AttemptBracket : public ::testing::TestWithParam<Backend> {};
using HardwareBracket = AttemptBracket;
using SoftwareBracket = AttemptBracket;
using SectionBracket = AttemptBracket;

std::string backend_param_name(const ::testing::TestParamInfo<Backend>& p) {
  return backend_name(p.param);
}

TEST_P(HardwareBracket, AbortedAttemptAllocationIsReclaimed) {
  TxRuntime rt(make_cfg(GetParam(), 1));
  Addr data = rt.heap().host_alloc(8, 64);
  uint64_t live_before = 0;
  int aborted = 0;
  rt.run([&](TxCtx& ctx) {
    live_before = rt.heap().stats().bytes_live;
    ctx.transaction([&] {
      Addr p = ctx.malloc(64);
      ctx.store(data, p);
      if (rt.machine().in_tx()) {  // every speculative attempt aborts
        ++aborted;
        rt.machine().tx_abort(0x1);
      }
    });
  });
  EXPECT_GT(aborted, 0);
  // Exactly one allocation (from the non-speculative execution) survives.
  EXPECT_EQ(rt.heap().stats().bytes_live, live_before + 64);
}

INSTANTIATE_TEST_SUITE_P(Speculative, HardwareBracket,
                         ::testing::Values(Backend::kRtm, Backend::kHle,
                                           Backend::kHybrid),
                         backend_param_name);

TEST_P(SoftwareBracket, ConflictAbortsConserveBytesLive) {
  constexpr int kIters = 100;
  TxRuntime rt(make_cfg(GetParam(), 2));
  Addr counter = rt.heap().host_alloc(8, 64);
  uint64_t live_before = rt.heap().stats().bytes_live;
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < kIters; ++i) {
      ctx.transaction([&] {
        ctx.malloc(64);
        Word v = ctx.load(counter);
        ctx.compute(50);
        ctx.store(counter, v + 1);
      });
    }
  });
  ASSERT_GT(rt.report().stm.aborts(), 0u);  // the conflict path ran
  EXPECT_EQ(rt.machine().peek(counter), Word{2 * kIters});
  // Only committed attempts keep their allocation.
  EXPECT_EQ(rt.heap().stats().bytes_live, live_before + 64 * 2 * kIters);
}

INSTANTIATE_TEST_SUITE_P(Speculative, SoftwareBracket,
                         ::testing::Values(Backend::kTinyStm, Backend::kTl2),
                         backend_param_name);

TEST_P(SectionBracket, FreeInsideSectionIsImmediate) {
  TxRuntime rt(make_cfg(GetParam(), 1));
  bool dropped = false, reused = false;
  rt.run([&](TxCtx& ctx) {
    Addr p = ctx.malloc(64);
    ctx.transaction([&] {
      uint64_t live = rt.heap().stats().bytes_live;
      ctx.free(p);
      dropped = rt.heap().stats().bytes_live < live;
      reused = ctx.malloc(64) == p;  // LIFO reuse of the freed block
    });
  });
  EXPECT_TRUE(dropped);
  EXPECT_TRUE(reused);
}

INSTANTIATE_TEST_SUITE_P(Unscoped, SectionBracket,
                         ::testing::Values(Backend::kLock, Backend::kSeq),
                         backend_param_name);

// The STM half of the bracket: TinySTM and TL2 report their serialization
// point through the runtime's observer slot from inside tx_commit, while
// the software transaction is still active (before write-back), so the
// recorder never seals a unit after its writes became visible.
class SealProbe final : public TxObserver {
 public:
  explicit SealProbe(TxRuntime& rt) : rt_(rt) {}
  void on_unit_begin(tsx::sim::CtxId c, uint32_t) override { open_[c] = true; }
  void on_unit_commit(tsx::sim::CtxId c) override {
    if (!open_[c]) return;  // the bracket's later commit is a no-op
    open_[c] = false;
    ++(rt_.executor().stm_active(c) ? inside_tx : after_tx);
  }
  void on_unit_abort(tsx::sim::CtxId) override {}
  void on_stm_read(tsx::sim::CtxId, Addr, Word) override {}
  void on_stm_write(tsx::sim::CtxId, Addr, Word, Word) override {}
  void on_access(tsx::sim::CtxId, Addr, Word, Word, bool) override {}
  void on_hw_begin(tsx::sim::CtxId) override {}
  void on_hw_abort(tsx::sim::CtxId) override {}

  int inside_tx = 0;
  int after_tx = 0;

 private:
  TxRuntime& rt_;
  std::array<bool, tsx::sim::kMaxCtxs> open_{};
};

TEST_P(SoftwareBracket, UnitsSealAtTheSerializationPoint) {
  TxRuntime rt(make_cfg(GetParam(), 2));
  SealProbe probe(rt);
  rt.set_observer(&probe);
  Addr counter = rt.heap().host_alloc(8, 64);
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < 20; ++i) {
      ctx.transaction([&] { ctx.store(counter, ctx.load(counter) + 1); });
      ctx.transaction([&] { ctx.load(counter); });  // read-only commit path
    }
  });
  rt.set_observer(nullptr);
  EXPECT_EQ(probe.inside_tx, 80);
  EXPECT_EQ(probe.after_tx, 0);
}

// HybridExecutor keeps its per-site stats in htm's RtmSiteStats, like
// RtmExecutor: the sites sum to the aggregate and keep first-execution
// order (perfbench's digest hashes RunReport::rtm_sites in order).
class RtmSiteTable : public ::testing::TestWithParam<Backend> {};

TEST_P(RtmSiteTable, SitesSumToTotalInFirstExecutionOrder) {
  TxRuntime rt(make_cfg(GetParam(), 2));
  Addr data = rt.heap().host_alloc(8, 64);
  rt.run([&](TxCtx& ctx) {
    for (int i = 0; i < 30; ++i) {
      ctx.transaction(
          [&] {
            ctx.store(data, ctx.load(data) + 1);
            ctx.compute(20);
            if (i % 3 == 0 && rt.machine().in_tx()) rt.machine().tx_abort(0x1);
          },
          i % 2 ? 4 : 9);  // site 9 runs first
    }
  });
  RunReport r = rt.report();
  ASSERT_EQ(r.rtm_sites.size(), 2u);
  EXPECT_EQ(r.rtm_sites[0].first, 9u);
  EXPECT_EQ(r.rtm_sites[1].first, 4u);
  EXPECT_GT(r.rtm.aborts(), 0u);
  EXPECT_GT(r.rtm.fallbacks, 0u);

  tsx::htm::RtmStats sum;
  for (const auto& [site, st] : r.rtm_sites) sum.merge(st);
  EXPECT_EQ(sum.transactions, r.rtm.transactions);
  EXPECT_EQ(sum.attempts, r.rtm.attempts);
  EXPECT_EQ(sum.commits, r.rtm.commits);
  EXPECT_EQ(sum.fallbacks, r.rtm.fallbacks);
  EXPECT_EQ(sum.aborts_by_class, r.rtm.aborts_by_class);
  EXPECT_EQ(sum.aborts_by_reason, r.rtm.aborts_by_reason);
  EXPECT_EQ(sum.cycles_committed, r.rtm.cycles_committed);
  EXPECT_EQ(sum.cycles_aborted, r.rtm.cycles_aborted);
  EXPECT_EQ(sum.cycles_fallback, r.rtm.cycles_fallback);
}

INSTANTIATE_TEST_SUITE_P(PerSite, RtmSiteTable,
                         ::testing::Values(Backend::kRtm, Backend::kHybrid),
                         backend_param_name);

TEST(TxRuntime, HeterogeneousWorkers) {
  RunConfig cfg = make_cfg(Backend::kLock, 2);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(16, 64);
  std::vector<std::function<void(TxCtx&)>> workers;
  workers.push_back([&](TxCtx& ctx) { ctx.store(data, 11); });
  workers.push_back([&](TxCtx& ctx) { ctx.store(data + 8, 22); });
  rt.run(std::move(workers));
  EXPECT_EQ(rt.machine().peek(data), 11u);
  EXPECT_EQ(rt.machine().peek(data + 8), 22u);
}

TEST(TxRuntime, WorkerCountMismatchThrows) {
  RunConfig cfg = make_cfg(Backend::kLock, 2);
  TxRuntime rt(cfg);
  std::vector<std::function<void(TxCtx&)>> workers(1, [](TxCtx&) {});
  EXPECT_THROW(rt.run(std::move(workers)), std::invalid_argument);
}

TEST(TxRuntime, CasInsideStmTxRejected) {
  RunConfig cfg = make_cfg(Backend::kTinyStm, 1);
  TxRuntime rt(cfg);
  Addr data = rt.heap().host_alloc(8, 64);
  EXPECT_THROW(
      rt.run([&](TxCtx& ctx) {
        ctx.transaction([&] {
          ctx.store(data, 1);  // makes the STM tx active
          ctx.cas(data, 1, 2);
        });
      }),
      std::logic_error);
}

TEST(TxRuntime, EnergySequentialVsParallel) {
  // A perfectly parallel workload: 4 threads must be faster and, with the
  // race-to-idle static-power term, spend less total energy than 1 thread
  // doing 4x the work.
  auto run_with = [](uint32_t threads, int iters_per_thread) {
    RunConfig cfg = make_cfg(Backend::kSeq, threads);
    TxRuntime rt(cfg);
    std::vector<Addr> regions;
    for (uint32_t t = 0; t < threads; ++t) {
      regions.push_back(rt.heap().host_alloc(64 * 1024, 64));
    }
    rt.run([&](TxCtx& ctx) {
      Addr base = regions[ctx.id()];
      for (int i = 0; i < iters_per_thread; ++i) {
        Addr a = base + (i % 8192) * 8;
        ctx.store(a, ctx.load(a) + 1);
        ctx.compute(20);
      }
    });
    return rt.report();
  };
  RunReport seq = run_with(1, 4000);
  RunReport par = run_with(4, 1000);
  EXPECT_LT(par.wall_cycles, seq.wall_cycles);
  EXPECT_LT(par.joules(), seq.joules());
}

}  // namespace
