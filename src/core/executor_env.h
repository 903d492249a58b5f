#pragma once
// core::ExecutorEnv: what the runtime lends every TM engine — the machine,
// the heap, the observer slot and the trace sink — and the one attempt
// bracket through which every engine opens and closes its attempts.
//
// Each bracket call fans out to the three parties that watch an attempt:
// the heap's transaction scope (allocations of an aborted attempt are
// undone), the observer (src/check's history recorder) and the sink
// (src/obs). Hardware attempts reach the sink's lifecycle events through
// the machine's TraceHooks, so their bracket only declares the call site;
// software attempts report begin/commit/abort here.
//
// Leaf header, like core/retry_policy.h: htm/ and stm/ take an env without
// linking tsx_core. Engines built bare (unit tests, drivers that call an
// engine directly) get a null env pointer and keep an env with the machine
// alone, so the bracket only backs off.

#include "core/trace.h"
#include "mem/sim_heap.h"
#include "obs/trace_sink.h"
#include "sim/machine.h"

namespace tsx::core {

struct ExecutorEnv {
  sim::Machine* machine = nullptr;
  mem::SimHeap* heap = nullptr;
  // The runtime's observer slot, not the observer: read at call time, so
  // TxRuntime::set_observer needs no re-wiring.
  TxObserver* const* observer = nullptr;
  obs::TraceSink* sink = nullptr;  // null when obs is off

  // The env an engine keeps from the pointer it was handed.
  static ExecutorEnv of(const ExecutorEnv* env, sim::Machine& m) {
    return env ? *env : ExecutorEnv{.machine = &m};
  }

  TxObserver* obs() const { return observer ? *observer : nullptr; }

  // ---- The attempt bracket ----

  // Opens a heap-scoped unit at `site`: a fallback execution, or (via the
  // variants below) a speculative attempt. Lock and sequential sections
  // take no heap scope, so a free inside them is immediate.
  void begin(sim::CtxId c, uint32_t site) const {
    if (heap) heap->tx_scope_begin(c);
    if (TxObserver* o = obs()) o->on_unit_begin(c, site);
  }
  void commit(sim::CtxId c) const {
    if (heap) heap->tx_scope_commit(c);
    if (TxObserver* o = obs()) o->on_unit_commit(c);
  }
  void abort(sim::CtxId c) const {
    if (heap) heap->tx_scope_abort(c);
    if (TxObserver* o = obs()) o->on_unit_abort(c);
  }

  // A hardware attempt: declares `site` as the context's call site, which
  // labels the machine's begin/commit/abort events for the attempt.
  void begin_hw(sim::CtxId c, uint32_t site) const {
    if (sink) sink->set_site(c, site);
    begin(c, site);
  }

  // A software attempt, after tx_start (so the recorder sees an active STM
  // transaction). STM aborts are data conflicts by construction (lock-word
  // or validation failures): `addr` and `owner` name the contended word and
  // its holder where the abort site knows them.
  void begin_stm(sim::CtxId c, uint32_t site) const {
    if (sink) sink->emit(stm_event(obs::EventKind::kTxBegin, c, site));
    begin(c, site);
  }
  void commit_stm(sim::CtxId c) const {
    if (sink) sink->emit(stm_event(obs::EventKind::kTxCommit, c));
    commit(c);
  }
  void abort_stm(sim::CtxId c, sim::Addr addr, sim::CtxId owner) const {
    if (sink) {
      obs::Event e = stm_event(obs::EventKind::kTxAbort, c);
      e.reason = sim::AbortReason::kConflict;
      e.attacker = owner == sim::kNoCtx ? c : owner;
      e.line = addr == ~sim::Addr{0} ? ~0ull : sim::line_of(addr);
      sink->emit(e);
    }
    abort(c);
  }

  // The STM serialization point: validation succeeded, write-back not yet
  // visible. The recorder seals the unit here; the later commit() is then
  // an idempotent no-op for it.
  void serialized(sim::CtxId c) const {
    if (TxObserver* o = obs()) o->on_unit_commit(c);
  }

  // Retry-policy decisions after a failed attempt: another attempt after
  // `wait` cycles of backoff (0 adds no scheduling point, so deterministic
  // schedules stay put), or the fallback path.
  void retry(sim::CtxId c, sim::Cycles wait = 0) const {
    if (sink) sink->emit(obs::retry_event(c, machine->now(), false, wait));
    if (wait) machine->compute(wait);
  }
  void fallback(sim::CtxId c) const {
    if (sink) sink->emit(obs::retry_event(c, machine->now(), true));
  }

 private:
  obs::Event stm_event(obs::EventKind kind, sim::CtxId c,
                       uint32_t site = obs::kNoSite) const {
    return {.kind = kind,
            .flags = obs::kFlagStm,
            .ctx = c,
            .site = site,
            .t = machine->now()};
  }
};

}  // namespace tsx::core
