#pragma once
// TinySTM-style word-based, time-based STM (Felber, Fetzer, Marlier, Riegel,
// "Time-based software transactional memory", TPDS 2010): encounter-time
// locking, write-back, lazy snapshot algorithm (LSA) with timestamp
// extension, suicide contention management with exponential backoff.
//
// All metadata traffic — global clock, versioned lock stripes, private log
// rings — flows through the simulated memory hierarchy, so instrumentation
// overhead, clock contention and stripe false sharing cost what they cost on
// the modeled machine.

#include <cstdint>
#include <vector>

#include "stm/common.h"
#include "util/flat_table.h"

namespace tsx::stm {

class TinyStm final : public StmSystem {
 public:
  // Memory layout: [clock line][lock table][per-ctx log rings].
  TinyStm(Machine& m, Addr region_base, StmConfig cfg = {},
          const core::ExecutorEnv* env = nullptr);

  const char* name() const override { return "TinySTM"; }
  void init() override;

  void tx_start(CtxId ctx) override;
  Word tx_read(CtxId ctx, Addr addr) override;
  void tx_write(CtxId ctx, Addr addr, Word value) override;
  void tx_commit(CtxId ctx) override;
  void tx_abort_cleanup(CtxId ctx) override;
  bool tx_active(CtxId ctx) const override { return tx_[ctx].active; }

  static uint64_t region_bytes(const StmConfig& cfg);

  // Metadata addresses, exposed for the Hybrid TM executor: hardware
  // transactions subscribe to the stripe of every accessed word and publish
  // committed writes by bumping the clock and the written stripes' versions,
  // so STM validation sees them.
  Addr clock_addr() const { return clock_addr_; }
  Addr stripe_addr(Addr data_addr) const { return locks_.lock_addr(data_addr); }

 private:
  struct ReadEntry {
    Addr lock_addr;
    Word version;
  };
  struct OwnedLock {
    Addr lock_addr;
    Word prev_version;  // restored on abort
  };
  struct TxDesc {
    bool active = false;
    Word rv = 0;  // read (snapshot) timestamp
    std::vector<ReadEntry> read_set;
    std::vector<OwnedLock> locks;
    std::vector<std::pair<Addr, Word>> write_list;  // ordered write-back
    util::WriteIndex write_index;                   // RAW lookups
    LogRing log;
  };

  // Revalidates the read set; on success bumps rv to `now_version` and
  // counts an extension, otherwise aborts.
  void extend(TxDesc& tx, Word now_version);
  bool validate(TxDesc& tx, CtxId ctx);
  void release_locks(TxDesc& tx, Word new_version, bool restore_prev);

  Addr clock_addr_;
  LockTable locks_;
  StmConfig cfg_;
  std::array<TxDesc, sim::kMaxCtxs> tx_;
};

}  // namespace tsx::stm
