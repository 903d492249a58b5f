// Extension: transactional lock elision (src/elide) vs the raw lock and raw
// transactions on a counting kernel.
//
// Three modes run the identical critical section:
//
//   elided    elide::mutex::critical_section — speculate with the lock word
//             subscribed, fall back to the real lock on budget exhaustion
//   raw-lock  the same mutex with elision disabled: every section takes the
//             real lock (the glibc "elision compiled out" baseline)
//   raw-tx    ctx.transaction — the executor's transaction path, no lock at
//             all (the ceiling: what speculation could achieve if the lock
//             vanished)
//
// Elision should track raw-tx while contention stays low enough for
// speculation to commit, and degrade toward raw-lock — via fallbacks — as
// conflicts rise; the per-lock statistics table shows exactly where the
// budget goes. Run with --perf-stat to see the same counters through the
// PMU's "lock elision (per lock)" block, and --manifest to get them as the
// machine-readable `elide_locks` array.

#include <memory>

#include "bench/bench_common.h"
#include "elide/elide.h"

using namespace tsx;

namespace {

enum class Mode : uint32_t { kElided, kRawLock, kRawTx };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kElided: return "elided";
    case Mode::kRawLock: return "raw-lock";
    case Mode::kRawTx: return "raw-tx";
  }
  return "?";
}

constexpr uint32_t kArrayWords = 64;
constexpr uint32_t kSectionWords = 2;

struct CellOut {
  double wall_cycles = 0;
  uint64_t sections = 0;
  elide::ElideStats stats;  // zero-valued for raw-tx
};

CellOut run_cell(Mode mode, uint32_t threads, uint32_t loops, int rep,
                 const std::string& obs_label) {
  core::RunConfig cfg;
  cfg.backend = core::Backend::kRtm;
  cfg.threads = threads;
  cfg.machine.seed = 9100 + static_cast<uint64_t>(rep);
  cfg.seed = 77 + static_cast<uint64_t>(rep);
  bench::apply_obs(cfg, obs_label);
  core::TxRuntime rt(cfg);

  // Precomputed per-(thread, section) address schedule, so every mode and
  // every retry performs the identical work.
  std::vector<std::vector<uint32_t>> sched(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    sim::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + t);
    for (uint32_t j = 0; j < loops * kSectionWords; ++j) {
      sched[t].push_back(static_cast<uint32_t>(rng.below(kArrayWords)));
    }
  }

  sim::Addr arr =
      rt.heap().host_alloc(kArrayWords * sim::kWordBytes, sim::kLineBytes);
  for (uint32_t i = 0; i < kArrayWords; ++i) {
    rt.machine().poke(arr + i * sim::kWordBytes, 0);
  }

  elide::ElideConfig ec;
  ec.elision_enabled = mode != Mode::kRawLock;
  auto mu = std::make_unique<elide::mutex>(rt, "bench-mutex", ec);

  rt.run([&](core::TxCtx& ctx) {
    const std::vector<uint32_t>& s = sched[ctx.id()];
    for (uint32_t j = 0; j < loops; ++j) {
      auto body = [&] {
        for (uint32_t k = 0; k < kSectionWords; ++k) {
          sim::Addr a = arr + s[j * kSectionWords + k] * sim::kWordBytes;
          ctx.store(a, ctx.load(a) + 1);
        }
        ctx.compute(80);  // section work besides the shared accesses
      };
      if (mode == Mode::kRawTx) {
        ctx.transaction(body, /*site=*/1);
      } else {
        mu->critical_section(ctx, body);
      }
    }
  });

  CellOut out;
  out.wall_cycles = static_cast<double>(rt.report().wall_cycles);
  out.sections = static_cast<uint64_t>(threads) * loops;
  out.stats = mu->stats();
  return out;
}

std::string pct_of(uint64_t part, uint64_t whole) {
  if (whole == 0) return "-";
  return util::Table::fmt(100.0 * static_cast<double>(part) /
                              static_cast<double>(whole),
                          1) +
         "%";
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::print_header(
      "Extension", "transactional lock elision: elided vs raw-lock vs raw-tx",
      "elision tracks raw transactions while speculation commits, and decays "
      "toward the raw lock as fallbacks take over");

  const uint32_t loops = args.fast ? 300 : 1000;
  std::vector<uint32_t> thread_counts = {1, 2, 4, 8};
  if (args.fast) thread_counts = {1, 4};
  const std::vector<Mode> modes = {Mode::kElided, Mode::kRawLock,
                                   Mode::kRawTx};

  struct Cell {
    Mode mode;
    uint32_t threads;
    int rep;
  };
  std::vector<Cell> grid;
  for (uint32_t t : thread_counts) {
    for (Mode m : modes) {
      for (int rep = 0; rep < args.reps; ++rep) grid.push_back({m, t, rep});
    }
  }

  harness::Digest dig;
  dig.add(static_cast<uint64_t>(loops));
  dig.add(static_cast<uint64_t>(args.reps));
  for (const Cell& c : grid) {
    dig.add(static_cast<uint64_t>(c.mode));
    dig.add(c.threads);
  }
  auto label_of = [&](size_t i) {
    const Cell& c = grid[i];
    return std::string("elide:") + mode_name(c.mode) + ":t" +
           std::to_string(c.threads) + ":rep" + std::to_string(c.rep);
  };

  harness::Runner runner(
      bench::runner_options(args, "extension_elision", dig.value()));
  std::vector<CellOut> cells = runner.map<CellOut>(
      grid.size(),
      [&](size_t i) {
        const Cell& c = grid[i];
        return run_cell(c.mode, c.threads, loops, c.rep, label_of(i));
      },
      [&](size_t i) {
        const Cell& c = grid[i];
        harness::Job j;
        j.seed = 9100 + static_cast<uint64_t>(c.rep);
        j.label = label_of(i);
        return j;
      });

  // Throughput table, aggregated in grid order (deterministic across
  // --jobs): sections per kilocycle, normalized per mode to its own
  // 1-thread run so the scaling trend is directly readable.
  util::Table t({"threads", "mode", "sections/kcyc", "vs 1-thread",
                 "elided", "fallback"});
  std::map<std::pair<Mode, uint32_t>, CellOut> agg;
  {
    size_t i = 0;
    for (uint32_t th : thread_counts) {
      for (Mode m : modes) {
        CellOut sum;
        for (int rep = 0; rep < args.reps; ++rep, ++i) {
          const CellOut& c = cells[i];
          sum.wall_cycles += c.wall_cycles;
          sum.sections += c.sections;
          sum.stats.merge(c.stats);
        }
        agg[{m, th}] = sum;
      }
    }
  }
  auto thpt = [](const CellOut& c) {
    return 1000.0 * static_cast<double>(c.sections) / c.wall_cycles;
  };
  for (uint32_t th : thread_counts) {
    for (Mode m : modes) {
      const CellOut& c = agg[{m, th}];
      const CellOut& base = agg[{m, thread_counts.front()}];
      t.add_row({std::to_string(th), mode_name(m),
                 util::Table::fmt(thpt(c), 3),
                 util::Table::fmt(thpt(c) / thpt(base), 2),
                 pct_of(c.stats.elided, c.stats.acquisitions),
                 pct_of(c.stats.fallbacks, c.stats.acquisitions)});
    }
  }
  bench::emit(t, args);

  // Per-lock statistics for the elided mode — the host-side view of the
  // counters the PMU reports per lock (EXPERIMENTS.md "Lock elision").
  util::Table t2({"threads", "acq", "attempts", "elided", "busy", "aborts",
                  "fallbacks", "self-stops", "wasted-cyc%"});
  for (uint32_t th : thread_counts) {
    const elide::ElideStats& s = agg[{Mode::kElided, th}].stats;
    sim::Cycles spec = s.cycles_elided + s.cycles_wasted;
    t2.add_row({std::to_string(th), std::to_string(s.acquisitions),
                std::to_string(s.attempts), std::to_string(s.elided),
                std::to_string(s.busy_waits), std::to_string(s.aborts),
                std::to_string(s.fallbacks), std::to_string(s.self_stops),
                spec ? util::Table::fmt(100.0 *
                                            static_cast<double>(s.cycles_wasted) /
                                            static_cast<double>(spec),
                                        1)
                     : "-"});
  }
  bench::emit(t2, args);
  std::cout << "Shape check: elided throughput sits between raw-lock and "
               "raw-tx, converging on raw-tx when speculation commits.\n";
  return 0;
}
