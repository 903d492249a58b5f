#pragma once
// TxRuntime: the public façade of the library. It assembles a simulated
// machine, a heap, and the selected concurrency-control backend, runs worker
// functions on simulated hardware threads, and produces a RunReport for the
// measured region.
//
// Typical use (see examples/quickstart.cpp):
//
//   core::RunConfig cfg;
//   cfg.backend = core::Backend::kRtm;
//   cfg.threads = 4;
//   core::TxRuntime rt(cfg);
//   rt.run([&](core::TxCtx& ctx) {
//     ctx.transaction([&] {
//       Word v = ctx.load(counter);
//       ctx.store(counter, v + 1);
//     });
//   });
//   core::RunReport r = rt.report();

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/executor.h"
#include "core/report.h"
#include "core/retry_policy.h"
#include "core/trace.h"
#include "mem/sim_heap.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "stm/common.h"
#include "util/fn_ref.h"

namespace tsx::obs {
class TraceSink;
}  // namespace tsx::obs

namespace tsx::core {

using sim::Addr;
using sim::CtxId;
using sim::Cycles;
using sim::Word;

// Structured-event tracing (src/obs). When `enabled`, the runtime owns a
// bounded obs::TraceSink, wires it into the machine and the executor, and —
// if `label` is non-empty — registers the capture with obs::Registry::global()
// at destruction so exporters can drain it after the run.
struct ObsConfig {
  bool enabled = false;
  // Ring capacity in events; 0 keeps no ring (only the Chrome trace export
  // reads it — counters, sites and metrics are folded without it).
  size_t capacity = size_t{1} << 16;
  // Counter-sampling interval in simulated cycles; 0 = no samples. Drives
  // both the kEnergy trace events and the PMU time series (one sampling
  // path).
  Cycles sample_interval = 0;
  std::string label;  // registry key; sorted at drain time
  // Windowed live-metrics plane (obs::MetricsHub): metrics.window_cycles > 0
  // folds the event stream into fixed windows with online phase detection;
  // 0 (default) leaves the hub off. The other MetricsConfig fields tune the
  // phase detector.
  obs::MetricsConfig metrics{};
};

struct RunConfig {
  Backend backend = Backend::kSeq;
  uint32_t threads = 1;
  sim::MachineConfig machine{};
  // Retry/backoff/fallback knobs for the HTM-first backends (kRtm, kHybrid).
  RetryPolicy retry{};
  stm::StmConfig stm{};
  mem::HeapConfig heap{};
  uint64_t seed = 42;  // workload-level seed (distinct from machine.seed)
  // kHle backend: elision attempts before the real acquisition (hardware
  // re-elides after some abort kinds; 1 models stock HLE).
  uint32_t hle_elision_attempts = 1;
  ObsConfig obs{};
};

class TxRuntime;

// Per-thread handle passed to worker functions. All simulated work of a
// worker must go through its TxCtx.
class TxCtx {
 public:
  // Shared-memory access: inside transaction() these are transactional
  // (routed to RTM tracking or the STM algorithm); outside they are plain.
  Word load(Addr a);
  void store(Addr a, Word v);

  // Non-transactional atomics (Table I's CAS variant and workload plumbing).
  // Calling them inside an STM transaction is a programming error.
  bool cas(Addr a, Word expected, Word desired);
  Word fetch_add(Addr a, Word delta);

  void compute(Cycles c);
  void pause();

  // Runs `body` atomically under the configured backend. `site` labels the
  // static transaction site for per-site RTM statistics. The body is passed
  // by non-owning reference (util::FnRef — two words, never allocates) and
  // only runs synchronously within this call.
  void transaction(util::FnRef<void()> body, uint32_t site = 0);

  // Lock-elision access for src/elide (guard-shaped scopes). elide() runs
  // one speculative attempt with `lock_word` subscribed; elide_fallback()
  // runs the body while the caller holds its fallback lock. Both bracket
  // the body like transaction() (heap scoping, recorder units, executor
  // load/store routing) and throw std::logic_error when nested inside an
  // atomic block — elided sections are top-level by contract.
  ElideOutcome elide(util::FnRef<void()> body, Addr lock_word,
                     uint32_t site = 0);
  void elide_fallback(util::FnRef<void()> body, uint32_t site = 0);

  // Lock-word RMWs for the elision layer's fallback path. Plain machine
  // atomics on hardware/lock backends; small software transactions on
  // STM-backed ones (see TxExecutor::lock_cas).
  bool lock_cas(Addr a, Word expected, Word desired);
  Word lock_fetch_add(Addr a, Word delta);

  // Simulated heap (transaction-scope aware).
  Addr malloc(uint64_t bytes, uint64_t align = 8);
  void free(Addr a);

  void barrier();
  Cycles now() const;

  CtxId id() const { return id_; }
  uint32_t threads() const;
  sim::Rng& rng() { return rng_; }
  TxRuntime& runtime() { return rt_; }

  // True while executing a transaction() body.
  bool in_atomic() const { return in_atomic_; }
  // True if the current atomic block runs under the RTM serial fallback
  // (i.e. non-speculatively).
  bool in_rtm_fallback() const;

 private:
  friend class TxRuntime;
  TxCtx(TxRuntime& rt, CtxId id, uint64_t seed) : rt_(rt), id_(id), rng_(seed) {}

  TxRuntime& rt_;
  CtxId id_;
  sim::Rng rng_;
  bool in_atomic_ = false;
};

class TxRuntime {
 public:
  explicit TxRuntime(RunConfig cfg);
  ~TxRuntime();

  TxRuntime(const TxRuntime&) = delete;
  TxRuntime& operator=(const TxRuntime&) = delete;

  const RunConfig& config() const { return cfg_; }

  // Runs `worker` on every simulated thread to completion.
  void run(const std::function<void(TxCtx&)>& worker);
  // Heterogeneous variant: one function per thread (size must equal the
  // thread count).
  void run(std::vector<std::function<void(TxCtx&)>> workers);

  // Called from worker code (typically thread 0 after a setup barrier):
  // starts the measured region. If never called, the region is the whole
  // run.
  void mark_measurement_start();

  RunReport report() const;

  sim::Machine& machine() { return *machine_; }
  mem::SimHeap& heap() { return *heap_; }
  // Null unless cfg.obs.enabled.
  obs::TraceSink* trace_sink() { return sink_.get(); }
  // Finalized PMU data — counters, cycle attribution, energy split,
  // histograms, samples. Empty unless cfg.obs.enabled; valid after run().
  // Elide-lock rows are unnamed here; obs::make_capture names them.
  std::optional<obs::PmuData> pmu_data() const;
  // The windowed metrics hub (null unless cfg.obs.enabled and
  // cfg.obs.metrics.window_cycles > 0). Subscribe before run() for live
  // sealed-window callbacks — the AdaptivePolicy seam.
  obs::MetricsHub* metrics_hub() { return hub_.get(); }
  // Finalized window series, phase boundaries and flame profile. Empty
  // unless the hub is on; valid after run(). Non-const: finalizing seals
  // the hub's remaining windows (idempotent, repeatable).
  std::optional<obs::MetricsData> metrics_data();
  // The one concurrency-control executor this runtime dispatches through.
  TxExecutor& executor() { return *exec_; }
  const TxExecutor& executor() const { return *exec_; }

  // Monotonic per-runtime id for elide locks (stable across --jobs because
  // each sweep cell owns its runtime and constructs locks in program order).
  uint32_t alloc_elide_lock_id() { return next_elide_lock_id_++; }

  // Hands out `nlines` fresh cache lines in the elide region (mem/layout.h)
  // for lock words, prefaulted host-side. Line-granular so independent lock
  // words never share a line (a subscribed word must not see false
  // conflicts from a neighbour's traffic).
  Addr alloc_elide_lines(uint32_t nlines);

  // Installs (or clears, with nullptr) the atomic-block observer used by
  // src/check's history recorder. Call before run(). Executors and the STM
  // read the observer slot at call time; the machine's hooks are rebuilt
  // here, so the observer also receives the machine-level events.
  void set_observer(TxObserver* obs);

 private:
  friend class TxCtx;

  // Builds the machine's one hook slot from the sink and the observer. The
  // only code that installs machine hooks.
  void install_machine_hooks();

  void execute_atomic(TxCtx& ctx, util::FnRef<void()> body, uint32_t site);

  RunConfig cfg_;
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<mem::SimHeap> heap_;
  std::unique_ptr<obs::Pmu> pmu_;         // before sink_: the sink borrows it
  std::unique_ptr<obs::MetricsHub> hub_;  // before sink_: the sink borrows it
  std::unique_ptr<obs::TraceSink> sink_;  // before exec_: executors borrow it
  std::unique_ptr<TxExecutor> exec_;
  std::vector<std::unique_ptr<TxCtx>> ctxs_;
  TxObserver* observer_ = nullptr;
  bool ran_ = false;
  uint32_t next_elide_lock_id_ = 0;
  uint64_t next_elide_line_ = 0;

  // Measurement window.
  std::optional<sim::MachineStats> mark_stats_;
  sim::Cycles mark_wall_ = 0;
  double mark_core_busy_ = 0;
  htm::RtmStats mark_rtm_;
  stm::StmStats mark_stm_;
};

}  // namespace tsx::core
