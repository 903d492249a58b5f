#include "stm/tl2.h"

namespace tsx::stm {

namespace {
constexpr uint64_t kLogRingBytes = 256 * 1024;
}

Tl2::Tl2(Machine& m, Addr region_base, StmConfig cfg,
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

uint64_t Tl2::region_bytes(const StmConfig& cfg) {
  return sim::kLineBytes +
         static_cast<uint64_t>(cfg.lock_table_entries) * sim::kWordBytes +
         sim::kMaxCtxs * kLogRingBytes;
}

void Tl2::init() {
  m_.prefault(clock_addr_, sim::kLineBytes);
  m_.poke(clock_addr_, 0);
  locks_.init();
  m_.prefault(clock_addr_ + sim::kLineBytes + locks_.bytes(),
              sim::kMaxCtxs * kLogRingBytes);
}

void Tl2::tx_start(CtxId ctx) {
  TxDesc& tx = tx_[ctx];
  if (tx.active) throw std::logic_error("TL2: nested tx_start");
  tx.active = true;
  tx.log.reset_tx();
  tx.rv = m_.load(clock_addr_);
  tx.read_set.clear();
  tx.write_list.clear();
  tx.write_index.clear();
  tx.held.clear();
}

Word Tl2::tx_read(CtxId ctx, Addr addr) {
  TxDesc& tx = tx_[ctx];
  // Read-after-write served from the redo log.
  m_.compute(cfg_.log_maintain_cycles);
  if (uint32_t* p = tx.write_index.find(addr)) {
    return tx.write_list[*p].second;
  }

  Addr la = locks_.lock_addr(addr);
  Word lw = m_.load(la);
  if (LockTable::is_locked(lw)) {
    abort_tx(StmAbortCause::kReadLocked, addr, LockTable::owner_of(lw));
  }
  if (LockTable::version_of(lw) > tx.rv) {
    abort_tx(StmAbortCause::kReadVersion, addr);
  }
  Word value = m_.load(addr);
  // Zero-latency recheck at the data load's linearization point (see
  // TinyStm::tx_read for the rationale).
  Word lw2 = m_.peek(la);
  if (lw2 != lw) {
    abort_tx(StmAbortCause::kReadLocked, addr,
             LockTable::is_locked(lw2) ? LockTable::owner_of(lw2)
                                       : sim::kNoCtx);
  }
  tx.read_set.push_back({la, LockTable::version_of(lw)});
  tx.log.append(1);
  return value;
}

void Tl2::tx_write(CtxId ctx, Addr addr, Word value) {
  TxDesc& tx = tx_[ctx];
  m_.compute(cfg_.log_maintain_cycles);
  if (uint32_t* p = tx.write_index.find(addr)) {
    tx.write_list[*p].second = value;
  } else {
    tx.write_index.insert(addr, static_cast<uint32_t>(tx.write_list.size()));
    tx.write_list.emplace_back(addr, value);
    tx.log.append(2);
  }
}

void Tl2::release_held(TxDesc& tx, Word new_version, bool restore_prev) {
  for (const auto& [la, prev] : tx.held) {
    m_.store(la, restore_prev ? prev : LockTable::make_version(new_version));
  }
  tx.held.clear();
}

void Tl2::tx_commit(CtxId ctx) {
  TxDesc& tx = tx_[ctx];
  if (!tx.active) throw std::logic_error("TL2: commit outside tx");
  if (tx.write_list.empty()) {
    env_.serialized(ctx);
    tx.active = false;
    ++stats_.commits;
    return;
  }
  // Commit-time lock acquisition over the distinct stripes of the write set.
  // (Stripes are deduplicated; acquisition order is write order, with abort
  // on any contention — classic TL2 trylock behaviour.) The dedup scratch
  // lives on the descriptor and is epoch-cleared: no per-commit allocation.
  util::FlatSet& acquired = tx.acquired_scratch;
  acquired.clear();
  for (const auto& [addr, value] : tx.write_list) {
    (void)value;
    Addr la = locks_.lock_addr(addr);
    if (!acquired.insert(la)) continue;
    Word lw = m_.load(la);
    if (LockTable::is_locked(lw)) {
      abort_tx(StmAbortCause::kWriteLocked, addr, LockTable::owner_of(lw));
    }
    if (LockTable::version_of(lw) > tx.rv) abort_tx(StmAbortCause::kValidation);
    if (!m_.cas(la, lw, LockTable::make_locked(ctx))) {
      abort_tx(StmAbortCause::kWriteLocked, addr);
    }
    tx.held.emplace_back(la, lw);
  }
  Word wv = m_.fetch_add(clock_addr_, 1) + 1;
  if (wv != tx.rv + 1) {
    for (const ReadEntry& e : tx.read_set) {
      Word lw = m_.load(e.lock_addr);
      if (LockTable::is_locked(lw)) {
        if (LockTable::owner_of(lw) != ctx) abort_tx(StmAbortCause::kValidation);
        continue;
      }
      if (LockTable::version_of(lw) > tx.rv) {
        abort_tx(StmAbortCause::kValidation);
      }
    }
  }
  // Serialization point: read-set validated, all written stripes locked.
  env_.serialized(ctx);
  for (const auto& [addr, value] : tx.write_list) {
    m_.store(addr, value);
  }
  release_held(tx, wv, /*restore_prev=*/false);
  tx.active = false;
  ++stats_.commits;
}

void Tl2::tx_abort_cleanup(CtxId ctx) {
  TxDesc& tx = tx_[ctx];
  release_held(tx, 0, /*restore_prev=*/true);
  tx.read_set.clear();
  tx.write_list.clear();
  tx.write_index.clear();
  tx.active = false;
}

}  // namespace tsx::stm
