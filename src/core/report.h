#pragma once
// Per-run measurement report: time, energy, abort statistics. Benches
// compare reports across backends/thread counts to build the paper's
// figures (speedup and energy efficiency are ratios of reports).

#include <algorithm>

#include "htm/rtm.h"
#include "mem/sim_heap.h"
#include "sim/energy_model.h"
#include "sim/stats.h"
#include "stm/common.h"

namespace tsx::core {

// Energy of the measured region split along the committed-vs-wasted axis,
// derived from executor attempt-cycle counters (works without obs tracing;
// the simulated PMU computes an event-derived twin for whole runs). The
// dynamic + core-active energy is apportioned by attempt-cycle share with
// non-tx as the exact remainder, so the four terms always sum to the
// report's total energy; package-idle is static/unattributable.
struct TxEnergySplit {
  double committed_j = 0;
  double wasted_j = 0;  // the paper's "energy spent in aborted work"
  double non_tx_j = 0;
  double static_j = 0;

  double total_j() const { return committed_j + wasted_j + non_tx_j + static_j; }
  // Share of attributable (non-static) energy thrown away in aborted work.
  double wasted_share() const {
    double active = committed_j + wasted_j + non_tx_j;
    return active > 0 ? wasted_j / active : 0.0;
  }
};

struct RunReport {
  sim::Cycles wall_cycles = 0;
  double seconds = 0;
  sim::EnergyBreakdown energy;
  sim::MachineStats machine;  // deltas over the measured region
  htm::RtmStats rtm;          // zero unless backend == kRtm
  stm::StmStats stm;          // zero unless an STM backend
  // Simulated-heap counters (whole run, not window-diffed: allocator state
  // is cumulative) and the placement policy that produced them.
  mem::HeapStats heap;
  mem::PlacementPolicy heap_policy = mem::PlacementPolicy::kSizeClass;
  // Per-transaction-site RTM statistics (whole run, not window-diffed);
  // used for the paper's TID-level tables (IV, V).
  std::vector<std::pair<uint32_t, htm::RtmStats>> rtm_sites;

  htm::RtmStats site_stats(uint32_t site) const {
    for (const auto& [id, st] : rtm_sites) {
      if (id == site) return st;
    }
    return htm::RtmStats{};
  }

  double joules() const { return energy.total_j(); }

  // Committed-vs-wasted energy attribution over the measured region.
  // Committed work includes the RTM serial fallback (it performs useful,
  // retained work, just non-speculatively); wasted is cycles inside
  // attempts that aborted, hardware or software.
  TxEnergySplit energy_split() const {
    TxEnergySplit s;
    s.static_j = energy.package_idle_j;
    double active_j = energy.total_j() - energy.package_idle_j;
    double committed = static_cast<double>(rtm.cycles_committed) +
                       static_cast<double>(rtm.cycles_fallback) +
                       static_cast<double>(stm.cycles_committed);
    double wasted = static_cast<double>(rtm.cycles_aborted) +
                    static_cast<double>(stm.cycles_aborted);
    double denom = std::max(machine.core_busy_cycles, committed + wasted);
    if (denom > 0 && active_j > 0) {
      s.committed_j = active_j * (committed / denom);
      s.wasted_j = active_j * (wasted / denom);
      s.non_tx_j = active_j - s.committed_j - s.wasted_j;
    } else {
      s.non_tx_j = active_j;
    }
    return s;
  }

  // Abort rate of whichever TM system ran (0 for SEQ/Lock).
  double abort_rate(bool is_rtm) const {
    return is_rtm ? rtm.abort_rate() : stm.abort_rate();
  }
};

}  // namespace tsx::core
