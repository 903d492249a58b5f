#pragma once
// Observation interface between the runtime and src/check's history
// recorder — the recorder's only input. The runtime reports atomic-block
// boundaries for every backend, the *logical* read/write stream of STM
// transactions (whose physical machine accesses — lock-table probes, log
// traffic, commit-time write-back — are implementation detail, not workload
// semantics), and, forwarded from the machine's TraceHooks, every physical
// data access plus the hardware-transaction lifecycle. See
// src/check/history.h for how the streams combine.
//
// All callbacks run on the simulation's single host thread, at well-defined
// points (documented per method); implementations must not call back into
// the runtime's simulated ops.

#include "sim/types.h"

namespace tsx::core {

class TxObserver {
 public:
  virtual ~TxObserver() = default;

  // An atomic block (one TxCtx::transaction body execution scope) opened
  // for `ctx`. Re-invoked on every retry attempt; a fresh begin discards
  // any speculative events buffered for the context.
  virtual void on_unit_begin(sim::CtxId ctx, uint32_t site) = 0;
  // The current atomic block serialized. Called at the precise
  // serialization point where one exists — the machine's outermost
  // tx_commit for hardware transactions, inside StmSystem::tx_commit for
  // software ones — and again by the executor after the body as the
  // backstop that seals lock-based and sequential blocks. Idempotent.
  virtual void on_unit_commit(sim::CtxId ctx) = 0;
  // The current attempt aborted; buffered speculative events are invalid.
  virtual void on_unit_abort(sim::CtxId ctx) = 0;

  // Logical STM accesses (value as seen/written by the transaction).
  // `pre_commit_value` is the word's committed value in the backing store
  // at the time of the call, used to latch initial values lazily.
  virtual void on_stm_read(sim::CtxId ctx, sim::Addr addr, sim::Word value) = 0;
  virtual void on_stm_write(sim::CtxId ctx, sim::Addr addr, sim::Word value,
                            sim::Word pre_commit_value) = 0;

  // Machine-level events (sim::TraceHooks), fired at the op's
  // linearization point. One physical data access: `old_value` is the
  // word's pre-op value (equal to `value` for reads); RMW ops report a read
  // followed by a write.
  virtual void on_access(sim::CtxId ctx, sim::Addr addr, sim::Word old_value,
                         sim::Word value, bool is_write) = 0;
  // Outermost hardware tx_begin, and a hardware abort after rollback.
  virtual void on_hw_begin(sim::CtxId ctx) = 0;
  virtual void on_hw_abort(sim::CtxId ctx) = 0;
};

}  // namespace tsx::core
