#include "core/runtime.h"

#include <stdexcept>

#include "mem/layout.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"

namespace tsx::core {

namespace {

sim::MemStats diff(const sim::MemStats& a, const sim::MemStats& b) {
  sim::MemStats d;
  d.loads = a.loads - b.loads;
  d.stores = a.stores - b.stores;
  d.l1_hits = a.l1_hits - b.l1_hits;
  d.l2_hits = a.l2_hits - b.l2_hits;
  d.l3_hits = a.l3_hits - b.l3_hits;
  d.mem_accesses = a.mem_accesses - b.mem_accesses;
  d.c2c_transfers = a.c2c_transfers - b.c2c_transfers;
  d.invalidations = a.invalidations - b.invalidations;
  d.writebacks = a.writebacks - b.writebacks;
  d.page_faults = a.page_faults - b.page_faults;
  return d;
}

sim::TxStats diff(const sim::TxStats& a, const sim::TxStats& b) {
  sim::TxStats d;
  d.started = a.started - b.started;
  d.committed = a.committed - b.committed;
  for (size_t i = 0; i < d.aborts_by_reason.size(); ++i) {
    d.aborts_by_reason[i] = a.aborts_by_reason[i] - b.aborts_by_reason[i];
  }
  for (size_t i = 0; i < d.aborts_by_misc.size(); ++i) {
    d.aborts_by_misc[i] = a.aborts_by_misc[i] - b.aborts_by_misc[i];
  }
  return d;
}

sim::MachineStats diff(const sim::MachineStats& a, const sim::MachineStats& b) {
  sim::MachineStats d;
  d.mem = diff(a.mem, b.mem);
  d.tx = diff(a.tx, b.tx);
  d.ops = a.ops - b.ops;
  d.interrupts = a.interrupts - b.interrupts;
  d.core_busy_cycles = a.core_busy_cycles - b.core_busy_cycles;
  return d;
}

htm::RtmStats diff(const htm::RtmStats& a, const htm::RtmStats& b) {
  htm::RtmStats d;
  d.transactions = a.transactions - b.transactions;
  d.attempts = a.attempts - b.attempts;
  d.commits = a.commits - b.commits;
  d.fallbacks = a.fallbacks - b.fallbacks;
  for (size_t i = 0; i < d.aborts_by_class.size(); ++i) {
    d.aborts_by_class[i] = a.aborts_by_class[i] - b.aborts_by_class[i];
  }
  for (size_t i = 0; i < d.aborts_by_reason.size(); ++i) {
    d.aborts_by_reason[i] = a.aborts_by_reason[i] - b.aborts_by_reason[i];
  }
  d.cycles_committed = a.cycles_committed - b.cycles_committed;
  d.cycles_aborted = a.cycles_aborted - b.cycles_aborted;
  d.cycles_fallback = a.cycles_fallback - b.cycles_fallback;
  return d;
}

stm::StmStats diff(const stm::StmStats& a, const stm::StmStats& b) {
  stm::StmStats d;
  d.transactions = a.transactions - b.transactions;
  d.starts = a.starts - b.starts;
  d.commits = a.commits - b.commits;
  for (size_t i = 0; i < d.aborts_by_cause.size(); ++i) {
    d.aborts_by_cause[i] = a.aborts_by_cause[i] - b.aborts_by_cause[i];
  }
  d.extensions = a.extensions - b.extensions;
  d.cycles_committed = a.cycles_committed - b.cycles_committed;
  d.cycles_aborted = a.cycles_aborted - b.cycles_aborted;
  return d;
}

}  // namespace

TxRuntime::TxRuntime(RunConfig cfg) : cfg_(std::move(cfg)) {
  machine_ = std::make_unique<sim::Machine>(cfg_.machine, cfg_.threads);
  heap_ = std::make_unique<mem::SimHeap>(*machine_, cfg_.heap);

  if (cfg_.obs.enabled) {
    pmu_ = std::make_unique<obs::Pmu>(cfg_.threads);
    sink_ = std::make_unique<obs::TraceSink>(cfg_.obs.capacity);
    sink_->set_pmu(pmu_.get());
    if (cfg_.obs.metrics.window_cycles > 0) {
      hub_ = std::make_unique<obs::MetricsHub>(cfg_.obs.metrics);
      sink_->set_hub(hub_.get());
    }
  }
  install_machine_hooks();

  // Runtime region: the backends' synchronization objects, one line each
  // (assigned in executors.cpp). All initialization is host-side pokes.
  machine_->prefault(mem::kRuntimeRegionBase, sim::kPageBytes);
  exec_ = make_executor(cfg_, ExecutorEnv{machine_.get(), heap_.get(),
                                          &observer_, sink_.get()});

  for (CtxId i = 0; i < cfg_.threads; ++i) {
    // Distinct, deterministic per-thread workload seeds.
    ctxs_.emplace_back(new TxCtx(*this, i, cfg_.seed * 1000003ull + i));
  }
}

void TxRuntime::set_observer(TxObserver* obs) {
  observer_ = obs;
  install_machine_hooks();
}

// The machine's one hook slot, built from the sink and the observer. The
// sample window is passed unchanged on every reinstall, so the machine
// keeps its sampling position.
void TxRuntime::install_machine_hooks() {
  using obs::EventKind;
  obs::TraceSink* s = sink_.get();
  TxObserver* o = observer_;
  sim::TraceHooks hooks;
  if (o) {
    // Set only while an observer is attached: an on_access hook takes every
    // data op off the machine's fast path.
    hooks.on_access = [o](CtxId c, Addr a, Word old_v, Word v, bool w,
                          bool /*in_tx*/) { o->on_access(c, a, old_v, v, w); };
  }
  if (s || o) {
    hooks.on_tx_begin = [s, o](CtxId c, Cycles t) {
      if (o) o->on_hw_begin(c);
      if (s) s->emit({.kind = EventKind::kTxBegin, .ctx = c, .t = t});
    };
    hooks.on_tx_commit = [s, o](CtxId c, Cycles t) {
      if (o) o->on_unit_commit(c);
      if (s) s->emit({.kind = EventKind::kTxCommit, .ctx = c, .t = t});
    };
    hooks.on_tx_abort = [s, o](CtxId c, Cycles t, sim::AbortReason r,
                               uint64_t line, CtxId attacker) {
      if (o) o->on_hw_abort(c);
      if (s) {
        s->emit({.kind = EventKind::kTxAbort,
                 .reason = r,
                 .ctx = c,
                 .attacker = attacker,
                 .t = t,
                 .line = line});
      }
    };
  }
  if (s) {
    hooks.on_tx_evict = [s](CtxId c, Cycles t, int level, uint64_t line) {
      s->emit({.kind = EventKind::kEvict,
               .level = static_cast<uint8_t>(level),
               .ctx = c,
               .t = t,
               .line = line});
    };
    if (cfg_.obs.sample_interval) {
      hooks.on_sample_window = [s](Cycles t, const sim::MachineStats& st) {
        s->emit(
            {.kind = EventKind::kEnergy, .t = t, .payload = {.stats = &st}});
      };
    }
  }
  machine_->set_trace_hooks(std::move(hooks), cfg_.obs.sample_interval);
}

TxRuntime::~TxRuntime() {
  if (sink_ && !cfg_.obs.label.empty()) {
    obs::Registry::global().add(obs::make_capture(
        *sink_, cfg_.obs.label, cfg_.machine.freq_ghz, cfg_.threads,
        pmu_data(), metrics_data()));
  }
}

std::optional<obs::MetricsData> TxRuntime::metrics_data() {
  if (!hub_) return std::nullopt;
  return hub_->finalize(ran_ ? machine_->wall() : 0);
}

std::optional<obs::PmuData> TxRuntime::pmu_data() const {
  if (!pmu_) return std::nullopt;
  std::vector<Cycles> finish(cfg_.threads, 0);
  std::vector<Cycles> busy(cfg_.threads, 0);
  if (ran_) {
    for (CtxId i = 0; i < cfg_.threads; ++i) {
      finish[i] = machine_->ctx_finish(i);
      busy[i] = machine_->ctx_busy(i);
    }
  }
  obs::PmuData d = pmu_->finalize(
      machine_->snapshot(), ran_ ? machine_->wall() : 0, finish, busy,
      ran_ ? machine_->core_busy_cycles() : 0.0, cfg_.machine.energy,
      cfg_.machine.freq_ghz);
  // Heap placement counters ride along with the PMU data (perf-stat "heap"
  // block, counter digest, manifest) but come straight from the allocator.
  const mem::HeapStats& hs = heap_->stats();
  d.heap.present = true;
  d.heap.policy = mem::placement_policy_name(cfg_.heap.policy);
  d.heap.allocs = hs.allocs;
  d.heap.frees = hs.frees;
  d.heap.refills = hs.refills;
  d.heap.bytes_live = hs.bytes_live;
  d.heap.bytes_peak = hs.bytes_peak;
  d.heap.bytes_padding = hs.bytes_padding;
  d.heap.set_allocs = hs.set_allocs;
  return d;
}

void TxRuntime::run(const std::function<void(TxCtx&)>& worker) {
  std::vector<std::function<void(TxCtx&)>> workers(cfg_.threads, worker);
  run(std::move(workers));
}

void TxRuntime::run(std::vector<std::function<void(TxCtx&)>> workers) {
  if (ran_) throw std::logic_error("TxRuntime::run called twice");
  if (workers.size() != cfg_.threads) {
    throw std::invalid_argument("worker count != thread count");
  }
  ran_ = true;
  for (CtxId i = 0; i < cfg_.threads; ++i) {
    TxCtx* ctx = ctxs_[i].get();
    auto fn = std::move(workers[i]);
    machine_->set_thread(i, [ctx, fn = std::move(fn)] { fn(*ctx); });
  }
  machine_->run();
}

Addr TxRuntime::alloc_elide_lines(uint32_t nlines) {
  Addr a = mem::kElideRegionBase + next_elide_line_ * sim::kLineBytes;
  next_elide_line_ += nlines;
  machine_->prefault(a, uint64_t{nlines} * sim::kLineBytes);
  return a;
}

void TxRuntime::mark_measurement_start() {
  mark_stats_ = machine_->snapshot();
  mark_wall_ = machine_->wall();
  mark_core_busy_ = machine_->core_busy_cycles();
  mark_rtm_ = exec_->rtm_stats();
  mark_stm_ = exec_->stm_stats();
}

RunReport TxRuntime::report() const {
  RunReport r;
  sim::MachineStats end = machine_->snapshot();
  end.core_busy_cycles = machine_->core_busy_cycles();
  sim::Cycles end_wall = machine_->wall();

  if (mark_stats_) {
    sim::MachineStats m0 = *mark_stats_;
    m0.core_busy_cycles = mark_core_busy_;
    r.machine = diff(end, m0);
    r.wall_cycles = end_wall - mark_wall_;
    r.rtm = diff(exec_->rtm_stats(), mark_rtm_);
    r.stm = diff(exec_->stm_stats(), mark_stm_);
  } else {
    r.machine = end;
    r.wall_cycles = end_wall;
    r.rtm = exec_->rtm_stats();
    r.stm = exec_->stm_stats();
  }

  r.rtm_sites = exec_->rtm_site_stats();
  r.heap = heap_->stats();
  r.heap_policy = cfg_.heap.policy;

  sim::EnergyModel em(cfg_.machine.energy, cfg_.machine.freq_ghz);
  r.seconds = em.seconds(r.wall_cycles);
  const sim::MemStats& ms = r.machine.mem;
  r.energy = em.compute(r.machine.ops, ms.l1_accesses(), ms.l2_accesses(),
                        ms.l3_accesses(), ms.mem_accesses,
                        ms.invalidations + ms.c2c_transfers, ms.writebacks,
                        r.machine.core_busy_cycles, r.wall_cycles);
  return r;
}

void TxRuntime::execute_atomic(TxCtx& ctx, util::FnRef<void()> body,
                               uint32_t site) {
  if (ctx.in_atomic_) {  // flat nesting
    body();
    return;
  }
  struct Guard {
    bool* flag;
    ~Guard() { *flag = false; }
  } guard{&ctx.in_atomic_};
  ctx.in_atomic_ = true;

  // Attempt/retry/fallback structure, heap scoping and observer bracketing
  // all live behind the executor interface.
  exec_->execute(body, site);
}

// ---- TxCtx ----

Word TxCtx::load(Addr a) {
  if (in_atomic_) return rt_.exec_->load(id_, a);
  return rt_.machine_->load(a);
}

void TxCtx::store(Addr a, Word v) {
  if (in_atomic_) {
    rt_.exec_->store(id_, a, v);
    return;
  }
  rt_.machine_->store(a, v);
}

bool TxCtx::cas(Addr a, Word expected, Word desired) {
  if (in_atomic_ && rt_.exec_->stm_active(id_)) {
    throw std::logic_error("raw CAS inside an STM transaction");
  }
  return rt_.machine_->cas(a, expected, desired);
}

Word TxCtx::fetch_add(Addr a, Word delta) {
  if (in_atomic_ && rt_.exec_->stm_active(id_)) {
    throw std::logic_error("raw fetch_add inside an STM transaction");
  }
  return rt_.machine_->fetch_add(a, delta);
}

void TxCtx::compute(Cycles c) { rt_.machine_->compute(c); }
void TxCtx::pause() { rt_.machine_->pause(); }

void TxCtx::transaction(util::FnRef<void()> body, uint32_t site) {
  rt_.execute_atomic(*this, body, site);
}

ElideOutcome TxCtx::elide(util::FnRef<void()> body, Addr lock_word,
                          uint32_t site) {
  if (in_atomic_) {
    throw std::logic_error("elide attempt inside an atomic section");
  }
  struct Guard {
    bool* flag;
    ~Guard() { *flag = false; }
  } guard{&in_atomic_};
  in_atomic_ = true;
  return rt_.exec_->elide(body, lock_word, site);
}

void TxCtx::elide_fallback(util::FnRef<void()> body, uint32_t site) {
  if (in_atomic_) {
    throw std::logic_error("elide fallback inside an atomic section");
  }
  struct Guard {
    bool* flag;
    ~Guard() { *flag = false; }
  } guard{&in_atomic_};
  in_atomic_ = true;
  rt_.exec_->elide_fallback(body, site);
}

bool TxCtx::lock_cas(Addr a, Word expected, Word desired) {
  return rt_.exec_->lock_cas(a, expected, desired);
}

Word TxCtx::lock_fetch_add(Addr a, Word delta) {
  return rt_.exec_->lock_fetch_add(a, delta);
}

Addr TxCtx::malloc(uint64_t bytes, uint64_t align) {
  return rt_.heap_->alloc(bytes, align);
}

void TxCtx::free(Addr a) { rt_.heap_->free(a); }

void TxCtx::barrier() { rt_.machine_->barrier(); }

Cycles TxCtx::now() const { return rt_.machine_->now(); }

uint32_t TxCtx::threads() const { return rt_.cfg_.threads; }

bool TxCtx::in_rtm_fallback() const { return rt_.exec_->in_serial_fallback(); }

}  // namespace tsx::core
