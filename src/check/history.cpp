#include "check/history.h"

#include "mem/layout.h"

namespace tsx::check {

Recorder::Recorder(core::TxRuntime& rt) : rt_(rt) {
  open_.resize(rt_.config().threads);
  rt_.set_observer(this);
}

Recorder::~Recorder() { rt_.set_observer(nullptr); }

bool Recorder::in_heap(Addr a) {
  return a >= mem::kHeapBase && a < mem::kHeapBase + mem::kHeapBytes;
}

void Recorder::latch_initial(Addr a, Word v) {
  // First global touch wins: any earlier committed write to this word would
  // itself have latched it, so the first latch always sees the pre-history
  // value.
  h_.initial.emplace(a, v);
}

void Recorder::on_access(CtxId ctx, Addr a, Word old_v, Word v,
                         bool is_write) {
  if (!in_heap(a)) return;
  // Machine traffic inside a live software transaction is metadata/
  // speculation (logging, validation, commit write-back); the logical
  // stream arrives through on_stm_read/on_stm_write instead.
  if (rt_.executor().stm_active(ctx)) return;
  latch_initial(a, is_write ? old_v : v);
  OpenUnit& u = open_[ctx];
  if (u.active) {
    u.buf.push_back({a, v, is_write});
    return;
  }
  // Plain access outside any atomic block: a singleton unit, sealed now
  // (single machine ops are atomic with respect to fiber scheduling).
  Unit s;
  s.ctx = ctx;
  s.accesses.push_back({a, v, is_write});
  h_.units.push_back(std::move(s));
}

void Recorder::on_hw_begin(CtxId ctx) {
  OpenUnit& u = open_[ctx];
  if (u.active) return;  // runtime-opened unit (RTM attempt, HLE elision)
  u.active = true;
  u.implicit = true;
  u.site = 0;
  u.stm = false;
  u.buf.clear();
}

void Recorder::on_hw_abort(CtxId ctx) {
  OpenUnit& u = open_[ctx];
  if (!u.active) return;
  u.buf.clear();  // speculative effects were rolled back
  if (u.implicit) u.active = false;  // a retry re-opens via tx_begin
}

void Recorder::on_unit_commit(CtxId ctx) {
  OpenUnit& u = open_[ctx];
  if (!u.active) return;  // idempotent: later backstop calls are no-ops
  Unit done;
  done.ctx = ctx;
  done.site = u.site;
  done.stm = u.stm;
  done.accesses = std::move(u.buf);
  h_.units.push_back(std::move(done));
  u.active = false;
  u.buf.clear();
}

void Recorder::on_unit_begin(CtxId ctx, uint32_t site) {
  OpenUnit& u = open_[ctx];
  u.active = true;
  u.implicit = false;
  u.site = site;
  // Units that run as software transactions get snapshot-consistency
  // checking; everything else replays strictly. Queried per unit (not per
  // backend) because the Hybrid executor mixes hardware units with STM
  // fallback units: STM executors call tx_start before this hook fires, so
  // stm_active() is exactly "this unit is a software transaction".
  u.stm = rt_.executor().stm_active(ctx);
  u.buf.clear();  // a fresh begin discards any stale speculative buffer
}

void Recorder::on_unit_abort(CtxId ctx) {
  OpenUnit& u = open_[ctx];
  // Keep the unit open: the runtime re-begins on retry, and the HLE lock
  // path reuses the unit opened before the failed elision attempts.
  u.buf.clear();
}

void Recorder::on_stm_read(CtxId ctx, Addr a, Word v) {
  if (!in_heap(a)) return;
  latch_initial(a, v);
  OpenUnit& u = open_[ctx];
  if (u.active) u.buf.push_back({a, v, false});
}

void Recorder::on_stm_write(CtxId ctx, Addr a, Word v, Word pre) {
  if (!in_heap(a)) return;
  latch_initial(a, pre);
  OpenUnit& u = open_[ctx];
  if (u.active) u.buf.push_back({a, v, true});
}

}  // namespace tsx::check
