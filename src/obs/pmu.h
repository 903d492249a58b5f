#pragma once
// Simulated PMU: the paper's measurement vocabulary on top of the
// simulator's raw counters.
//
// The paper reads Haswell TSX through libpfm4 perf events
// (RTM_RETIRED.START/COMMIT/ABORTED, the ABORTED_MISC1-5 buckets,
// TX_MEM.ABORT_*) plus RAPL energy windows. The Pmu gives tsxlab the same
// surface: it folds the attempt lifecycle (hardware transactions via the
// machine's TraceHooks, software transactions via the STM executor — both
// arrive as TraceSink events already paired into attempt windows),
// attributes every per-hardware-thread cycle into committed-tx / wasted-tx /
// non-tx / idle with an enforced identity (the four buckets tile [0, wall]
// exactly), and derives the committed-vs-wasted energy split the paper's
// "energy thrown away in aborted work" analysis needs.
//
// Like TraceSink's SiteAgg, all aggregation is incremental at emission time
// and never replays the (lossy) event ring, so the counters are exact
// regardless of ring capacity. All inputs are simulated cycles and
// deterministic counters, so every derived report is byte-identical across
// harness --jobs values.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/histogram.h"
#include "sim/energy_model.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace tsx::obs {

struct Capture;  // registry.h (which includes this header)

// Per-hardware-thread cycle attribution. The identity
//   committed + wasted + non_tx + idle == wall
// holds exactly for every context: committed/wasted sum attempt windows
// (begin..commit / begin..abort timestamps on the context's own clock),
// non_tx is the remainder of the context's finish time, idle is the tail
// until the run's wall clock. Attribution is per hardware thread (not per
// core): two hyperthreads of one core each get their own identity, so the
// buckets are well-defined even when SMT overlaps their execution.
struct PmuCtxSplit {
  sim::Cycles committed = 0;  // inside attempts that committed
  sim::Cycles wasted = 0;     // inside attempts that aborted (discarded work)
  sim::Cycles non_tx = 0;     // executing outside any attempt window
  sim::Cycles idle = 0;       // finished, waiting for the run's last context
  sim::Cycles finish = 0;     // the context's own finish time
  sim::Cycles busy = 0;       // scheduler busy cycles (perf's unhalted clock)
};

// Whole-run sums of the per-context buckets.
struct TxCycleSplit {
  sim::Cycles committed = 0;
  sim::Cycles wasted = 0;
  sim::Cycles non_tx = 0;
  sim::Cycles idle = 0;

  sim::Cycles total() const { return committed + wasted + non_tx + idle; }
};

// EnergyBreakdown split along the committed-vs-wasted axis. The dynamic +
// core-active energy is apportioned by cycle share, with non_tx_j computed
// as the remainder so the four terms sum to total_j() exactly; the
// package-idle term is static and unattributable.
struct EnergySplit {
  double committed_j = 0;
  double wasted_j = 0;  // the paper's "energy spent in aborted work"
  double non_tx_j = 0;
  double static_j = 0;  // package idle / uncore

  double total_j() const { return committed_j + wasted_j + non_tx_j + static_j; }
};

// One named counter of the perf-stat report: the simulator counter's value
// under the Haswell perf event name the paper measured (DESIGN.md carries
// the full mapping table).
struct PerfCounter {
  std::string name;     // perf-style short name, e.g. "tx-abort-misc2"
  std::string haswell;  // real event, e.g. "RTM_RETIRED.ABORTED_MISC2"
  uint64_t value = 0;
};

// Per-lock elision counters, the txlock-style stats table. `attempts`
// counts speculative tries including lock-busy bails; `cycles_wasted` sums
// attempt windows that did not commit (the self-stop heuristic's input).
struct ElideLockCounters {
  uint32_t lock = 0;
  std::string name;
  uint64_t acquisitions = 0;
  uint64_t attempts = 0;
  uint64_t elided = 0;
  uint64_t fallbacks = 0;
  uint64_t lock_acquires = 0;
  uint64_t self_stops = 0;
  sim::Cycles cycles_elided = 0;
  sim::Cycles cycles_wasted = 0;
};

// Simulated-heap counters for the perf-stat "heap" block: the allocator's
// whole-run stats under the placement policy that produced them (mem::
// PlacementPolicy — the malloc-placement axis). Filled by TxRuntime when
// the capture is built; not an event-derived aggregate.
struct HeapPmuCounters {
  bool present = false;
  std::string policy;  // placement_policy_name() of the run's heap
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t refills = 0;
  uint64_t bytes_live = 0;
  uint64_t bytes_peak = 0;
  uint64_t bytes_padding = 0;
  std::vector<uint64_t> set_allocs;  // placements per L1 set index
};

// One row of the counter time series (--sample-interval): cumulative values
// at a simulated-time window boundary.
struct PmuSample {
  sim::Cycles t = 0;
  uint64_t ops = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l3_hits = 0;
  uint64_t mem_accesses = 0;
  uint64_t tx_starts = 0;
  uint64_t tx_commits = 0;
  uint64_t tx_aborts = 0;
  // Per-MISC-bucket abort counts (cumulative, hardware aborts), so the
  // phase detector's abort-mix inputs are reconstructable from the CSV.
  std::array<uint64_t, static_cast<size_t>(sim::MiscBucket::kCount)>
      aborts_misc{};
  uint64_t fallbacks = 0;  // retry-policy fallback decisions, cumulative
  sim::Cycles committed_cycles = 0;  // PMU-attributed, cumulative
  sim::Cycles wasted_cycles = 0;
};

// Immutable PMU result for one run, carried inside a registry Capture.
struct PmuData {
  uint32_t threads = 0;
  double freq_ghz = 0;
  sim::Cycles wall = 0;
  sim::MachineStats machine;  // final whole-run counters

  // Software-transaction attempt counters (STM backends and the hybrid's
  // fallback; hardware attempts are machine.tx).
  uint64_t stm_starts = 0;
  uint64_t stm_commits = 0;
  uint64_t stm_aborts = 0;
  uint64_t fallbacks = 0;  // retry-policy fallback decisions

  std::vector<PmuCtxSplit> ctx;  // one per hardware thread
  TxCycleSplit split;
  sim::EnergyBreakdown energy;  // whole-run (not measured-region) energy
  EnergySplit energy_split;

  Log2Histogram tx_duration;    // committed attempt durations, cycles
  Log2Histogram abort_latency;  // aborted attempt durations, cycles
  Log2Histogram retries;        // aborted attempts preceding each commit

  std::vector<PmuSample> samples;
  std::vector<PerfCounter> counters;  // the perf-stat event list

  // Per-lock elision statistics, sorted by lock id; empty when the run used
  // no elide locks. Names come from the sink (filled by make_capture).
  std::vector<ElideLockCounters> elide;

  // Simulated-heap placement counters (present for every traced TxRuntime).
  HeapPmuCounters heap;

  // false if attempt events were mispaired or an attempt window exceeded
  // its context's clock (would make non_tx negative). Never expected; the
  // tier-1 identity tests assert it.
  bool identity_ok = true;
  // Unpaired attempt events (kFlagUnpaired) plus attempts never closed.
  uint64_t mismatched = 0;
};

// Incremental accumulator, fed by TraceSink (one per traced TxRuntime).
class Pmu {
 public:
  explicit Pmu(uint32_t threads);

  // Folds one completed event (TraceSink::emit calls this).
  void on(const Event& e);

  // Closes the books: per-context identity, energy split, the perf-stat
  // counter list. `ctx_finish`/`ctx_busy` are per-hardware-thread clocks
  // from the machine; `core_busy` is the energy model's per-core busy sum.
  PmuData finalize(const sim::MachineStats& machine, sim::Cycles wall,
                   const std::vector<sim::Cycles>& ctx_finish,
                   const std::vector<sim::Cycles>& ctx_busy, double core_busy,
                   const sim::EnergyParams& energy, double freq_ghz) const;

 private:
  struct CtxTotals {
    sim::Cycles committed = 0;
    sim::Cycles wasted = 0;
    uint64_t abort_streak = 0;  // aborts since the last commit/fallback
  };

  void sample(sim::Cycles t, const sim::MachineStats& stats);

  uint32_t threads_;
  std::vector<CtxTotals> ctx_;
  uint64_t open_attempts_ = 0;  // begun, not yet committed/aborted
  uint64_t stm_starts_ = 0;
  uint64_t stm_commits_ = 0;
  uint64_t stm_aborts_ = 0;
  uint64_t fallbacks_ = 0;
  uint64_t mismatched_ = 0;
  Log2Histogram tx_duration_;
  Log2Histogram abort_latency_;
  Log2Histogram retries_;
  std::vector<PmuSample> samples_;
  std::map<uint32_t, ElideLockCounters> elide_;  // keyed (and sorted) by id
};

// perf-stat-style report, one block per capture (captures arrive sorted by
// label from Registry::drain, so output is byte-identical across --jobs).
// Captures without PMU data are skipped.
void write_perf_stat(std::ostream& os, const std::vector<Capture>& captures);

}  // namespace tsx::obs
