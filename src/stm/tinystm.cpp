#include "stm/tinystm.h"

namespace tsx::stm {

namespace {
constexpr uint64_t kLogRingBytes = 256 * 1024;
}

TinyStm::TinyStm(Machine& m, Addr region_base, StmConfig cfg,
                 const core::ExecutorEnv* env)
    : StmSystem(m, env),
      clock_addr_(region_base),
      locks_(m, region_base + sim::kLineBytes, cfg),
      cfg_(cfg) {
  Addr log_base = region_base + sim::kLineBytes + locks_.bytes();
  for (CtxId c = 0; c < sim::kMaxCtxs; ++c) {
    tx_[c].log = LogRing(&m_, log_base + c * kLogRingBytes, kLogRingBytes);
  }
}

uint64_t TinyStm::region_bytes(const StmConfig& cfg) {
  return sim::kLineBytes +
         static_cast<uint64_t>(cfg.lock_table_entries) * sim::kWordBytes +
         sim::kMaxCtxs * kLogRingBytes;
}

void TinyStm::init() {
  m_.prefault(clock_addr_, sim::kLineBytes);
  m_.poke(clock_addr_, 0);
  locks_.init();
  m_.prefault(clock_addr_ + sim::kLineBytes + locks_.bytes(),
              sim::kMaxCtxs * kLogRingBytes);
}

void TinyStm::tx_start(CtxId ctx) {
  TxDesc& tx = tx_[ctx];
  if (tx.active) throw std::logic_error("TinySTM: nested tx_start");
  tx.active = true;
  tx.log.reset_tx();
  tx.rv = m_.load(clock_addr_);
  tx.read_set.clear();
  tx.locks.clear();
  tx.write_list.clear();
  tx.write_index.clear();
}

bool TinyStm::validate(TxDesc& tx, CtxId ctx) {
  for (const ReadEntry& e : tx.read_set) {
    Word lw = m_.load(e.lock_addr);
    if (LockTable::is_locked(lw)) {
      if (LockTable::owner_of(lw) != ctx) return false;
      continue;  // we own it: consistent by construction
    }
    if (LockTable::version_of(lw) != e.version) return false;
  }
  return true;
}

void TinyStm::extend(TxDesc& tx, Word now_version) {
  if (!validate(tx, static_cast<CtxId>(m_.current_ctx()))) {
    abort_tx(StmAbortCause::kReadVersion);
  }
  tx.rv = now_version;
  ++stats_.extensions;
}

Word TinyStm::tx_read(CtxId ctx, Addr addr) {
  TxDesc& tx = tx_[ctx];
  Addr la = locks_.lock_addr(addr);
  Word lw = m_.load(la);
  if (LockTable::is_locked(lw)) {
    if (LockTable::owner_of(lw) == ctx) {
      // Read-after-write: serve from the write log.
      m_.compute(cfg_.log_maintain_cycles);
      if (uint32_t* p = tx.write_index.find(addr)) {
        return tx.write_list[*p].second;
      }
      // We own the stripe but never wrote this word (stripe aliasing):
      // memory still holds the committed value.
      return m_.load(addr);
    }
    abort_tx(StmAbortCause::kReadLocked, addr, LockTable::owner_of(lw));
  }
  Word value = m_.load(addr);
  // Recheck that the stripe didn't change underneath the value read. The
  // second lock load hits the line fetched a moment ago and retires in the
  // shadow of the data load, so it is modeled as a zero-latency probe at
  // the data load's linearization point (peek reads the current simulated
  // state, which is exactly the state at that instant).
  Word lw2 = m_.peek(la);
  if (lw2 != lw) {
    abort_tx(StmAbortCause::kReadLocked, addr,
             LockTable::is_locked(lw2) ? LockTable::owner_of(lw2)
                                       : sim::kNoCtx);
  }
  Word version = LockTable::version_of(lw);
  if (version > tx.rv) {
    // Too new for our snapshot: try a timestamp extension.
    Word now_version = m_.load(clock_addr_);
    extend(tx, now_version);
  }
  tx.read_set.push_back({la, version});
  tx.log.append(1);  // read-log entry traffic
  return value;
}

void TinyStm::tx_write(CtxId ctx, Addr addr, Word value) {
  TxDesc& tx = tx_[ctx];
  Addr la = locks_.lock_addr(addr);
  Word lw = m_.load(la);
  if (LockTable::is_locked(lw)) {
    if (LockTable::owner_of(lw) != ctx) {
      abort_tx(StmAbortCause::kWriteLocked, addr, LockTable::owner_of(lw));
    }
  } else {
    // A version newer than our snapshot means the stripe changed since we
    // (may have) read it; validate() treats owned stripes as consistent, so
    // this must be rejected here (or the snapshot extended) to stay sound.
    if (LockTable::version_of(lw) > tx.rv) {
      Word now_version = m_.load(clock_addr_);
      extend(tx, now_version);
    }
    // Encounter-time acquisition.
    if (!m_.cas(la, lw, LockTable::make_locked(ctx))) {
      abort_tx(StmAbortCause::kWriteLocked, addr);
    }
    tx.locks.push_back({la, lw});
  }
  m_.compute(cfg_.log_maintain_cycles);
  if (uint32_t* p = tx.write_index.find(addr)) {
    tx.write_list[*p].second = value;
  } else {
    tx.write_index.insert(addr, static_cast<uint32_t>(tx.write_list.size()));
    tx.write_list.emplace_back(addr, value);
    tx.log.append(2);  // address + value in the write log
  }
}

void TinyStm::release_locks(TxDesc& tx, Word new_version, bool restore_prev) {
  for (const OwnedLock& ol : tx.locks) {
    Word v = restore_prev ? ol.prev_version : LockTable::make_version(new_version);
    m_.store(ol.lock_addr, v);
  }
  tx.locks.clear();
}

void TinyStm::tx_commit(CtxId ctx) {
  TxDesc& tx = tx_[ctx];
  if (!tx.active) throw std::logic_error("TinySTM: commit outside tx");
  if (tx.write_list.empty()) {
    // Read-only: the snapshot is consistent by LSA invariants.
    env_.serialized(ctx);
    tx.active = false;
    ++stats_.commits;
    return;
  }
  Word wv = m_.fetch_add(clock_addr_, 1) + 1;
  if (wv != tx.rv + 1) {
    if (!validate(tx, ctx)) {
      // Careful: locks are still held; the executor will call
      // tx_abort_cleanup which releases them with their old versions.
      abort_tx(StmAbortCause::kValidation);
    }
  }
  // Serialization point: validation succeeded and every written stripe is
  // still locked, so the commit can no longer fail or be observed early.
  env_.serialized(ctx);
  // Write back, then release the stripes at the new version.
  for (const auto& [addr, value] : tx.write_list) {
    m_.store(addr, value);
  }
  release_locks(tx, wv, /*restore_prev=*/false);
  tx.active = false;
  ++stats_.commits;
}

void TinyStm::tx_abort_cleanup(CtxId ctx) {
  TxDesc& tx = tx_[ctx];
  release_locks(tx, 0, /*restore_prev=*/true);
  tx.read_set.clear();
  tx.write_list.clear();
  tx.write_index.clear();
  tx.active = false;
}

}  // namespace tsx::stm
