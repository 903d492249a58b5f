#include "stm/common.h"

#include "obs/trace_sink.h"

namespace tsx::stm {

namespace {

using obs::EventKind;

// A software attempt's lifecycle event (the sink fills in what is left).
obs::Event stm_event(EventKind kind, CtxId ctx, Cycles t,
                     uint32_t site = obs::kNoSite) {
  return {.kind = kind,
          .flags = obs::kFlagStm,
          .ctx = ctx,
          .site = site,
          .t = t};
}

// STM aborts are data conflicts by construction (lock-word or validation
// failures); the precise software cause is reported by StmStats.
obs::Event stm_abort_event(CtxId ctx, Cycles t, const StmAborted& a) {
  obs::Event e = stm_event(EventKind::kTxAbort, ctx, t);
  e.reason = sim::AbortReason::kConflict;
  e.attacker = a.owner == sim::kNoCtx ? ctx : a.owner;
  e.line = a.addr == ~sim::Addr{0} ? ~0ull : sim::line_of(a.addr);
  return e;
}

}  // namespace

const char* stm_abort_cause_name(StmAbortCause c) {
  switch (c) {
    case StmAbortCause::kReadLocked: return "read-locked";
    case StmAbortCause::kReadVersion: return "read-version";
    case StmAbortCause::kWriteLocked: return "write-locked";
    case StmAbortCause::kValidation: return "validation";
    case StmAbortCause::kCount: break;
  }
  return "?";
}

void LockTable::init() {
  // The lock table is allocated and touched at library startup, before any
  // measured region, so its pages are simply made present.
  m_.prefault(base_, bytes());
  for (uint64_t i = 0; i < entries_; ++i) {
    m_.poke(base_ + i * sim::kWordBytes, 0);
  }
}

void StmExecutor::execute(util::FnRef<void()> body, uint32_t site) {
  ++stm_.stats().transactions;
  uint32_t attempt_no = 0;
  CtxId ctx = m_.current_ctx();
  for (;;) {
    ++attempt_no;
    ++stm_.stats().starts;
    // Attempt window opens before tx_start: clock-read/snapshot work done
    // there is discarded on abort, so it belongs to the attempt.
    Cycles t0 = m_.now();
    stm_.tx_start(ctx);
    if (sink_) sink_->emit(stm_event(EventKind::kTxBegin, ctx, m_.now(), site));
    hooks_.on_begin();
    try {
      body();
      stm_.tx_commit(ctx);
      stm_.stats().cycles_committed += m_.now() - t0;
      if (sink_) sink_->emit(stm_event(EventKind::kTxCommit, ctx, m_.now()));
      hooks_.on_commit();
      return;
    } catch (StmAborted a) {
      // By value: the handler yields to other fibers, which share this host
      // thread's caught-exception stack and may free the thrown object.
      stm_.tx_abort_cleanup(ctx);
      stm_.stats().cycles_aborted += m_.now() - t0;
      if (sink_) sink_->emit(stm_abort_event(ctx, m_.now(), a));
      hooks_.on_abort();
      // Suicide + policy-shaped backoff (randomized exponential by default;
      // same rng-draw sequence as the historical inline formula).
      Cycles wait = policy_.backoff_cycles(attempt_no, m_.setup_rng());
      if (sink_) sink_->emit(obs::retry_event(ctx, m_.now(), false, wait));
      if (wait) m_.compute(wait);
    }
  }
}

bool StmExecutor::execute_once(util::FnRef<void()> body, uint32_t site) {
  ++stm_.stats().transactions;
  ++stm_.stats().starts;
  CtxId ctx = m_.current_ctx();
  Cycles t0 = m_.now();
  stm_.tx_start(ctx);
  if (sink_) sink_->emit(stm_event(EventKind::kTxBegin, ctx, m_.now(), site));
  hooks_.on_begin();
  try {
    body();
    stm_.tx_commit(ctx);
    stm_.stats().cycles_committed += m_.now() - t0;
    if (sink_) sink_->emit(stm_event(EventKind::kTxCommit, ctx, m_.now()));
    hooks_.on_commit();
    return true;
  } catch (StmAborted a) {  // by value, as in execute()
    stm_.tx_abort_cleanup(ctx);
    stm_.stats().cycles_aborted += m_.now() - t0;
    if (sink_) sink_->emit(stm_abort_event(ctx, m_.now(), a));
    hooks_.on_abort();
    return false;
  }
}

}  // namespace tsx::stm
