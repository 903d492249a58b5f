#include "stm/common.h"

namespace tsx::stm {

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

bool StmExecutor::attempt(util::FnRef<void()> body, uint32_t site) {
  ++stm_.stats().starts;
  CtxId ctx = m_.current_ctx();
  // Attempt window opens before tx_start: clock-read/snapshot work done
  // there is discarded on abort, so it belongs to the attempt.
  Cycles t0 = m_.now();
  stm_.tx_start(ctx);
  env_.begin_stm(ctx, site);
  try {
    body();
    stm_.tx_commit(ctx);
    stm_.stats().cycles_committed += m_.now() - t0;
    env_.commit_stm(ctx);
    return true;
  } catch (StmAborted a) {
    // By value: the handler yields to other fibers (cleanup runs simulated
    // ops), which share this host thread's caught-exception stack and may
    // free the thrown object.
    stm_.tx_abort_cleanup(ctx);
    stm_.stats().cycles_aborted += m_.now() - t0;
    env_.abort_stm(ctx, a.addr, a.owner);
    return false;
  }
}

void StmExecutor::execute(util::FnRef<void()> body, uint32_t site) {
  ++stm_.stats().transactions;
  // Suicide + policy-shaped backoff (randomized exponential by default;
  // same rng-draw sequence as the historical inline formula).
  for (uint32_t n = 1; !attempt(body, site); ++n) {
    env_.retry(m_.current_ctx(), policy_.backoff_cycles(n, m_.setup_rng()));
  }
}

bool StmExecutor::execute_once(util::FnRef<void()> body, uint32_t site) {
  ++stm_.stats().transactions;
  return attempt(body, site);
}

}  // namespace tsx::stm
