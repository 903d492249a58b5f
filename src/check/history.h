#pragma once
// History recording for the serializability checker (src/check/checker.h).
//
// A Recorder attaches to a TxRuntime and captures, for every atomic unit
// that commits, the ordered list of heap-word reads and writes the unit
// performed, in the global order in which units *serialized*. Its one input
// is core::TxObserver, which carries two event streams:
//
//   * physical machine accesses (on_access, forwarded by the runtime from
//     the machine's TraceHooks). These carry plain (non-transactional)
//     accesses, HTM speculative accesses (the simulator is undo-log based,
//     so speculative values are the values that commit), and
//     lock-protected accesses. Machine events that occur while the context
//     has an *STM* transaction active are suppressed: they are STM metadata
//     traffic (clock, lock table, logs) and commit-time write-back, not
//     workload semantics.
//   * atomic-block boundaries for every backend, the hardware-transaction
//     lifecycle (on_hw_begin/on_hw_abort), and the logical read/write
//     stream of STM transactions.
//
// Seal points (the moment a unit's position in the global order is fixed),
// all reported as on_unit_commit:
//   HTM (RTM speculation, HLE elision): the machine's outermost tx_commit,
//     which fires after effects are final and before any other context can
//     run.
//   STM (TinySTM, TL2): StmSystem::tx_commit at the algorithm's
//     serialization point (validation success, write stripes locked,
//     before write-back).
//   Lock / CAS / HLE-fallback / RTM-fallback / SEQ: on_unit_commit from
//     host code, which the runtime calls after the body but before the
//     protecting lock is released.
//
// Plain accesses outside any atomic block become their own single-access
// units, sealed immediately (a machine op is atomic w.r.t. fiber yields).
//
// Only addresses inside the application heap [mem::kHeapBase,
// kHeapBase + kHeapBytes) are recorded; runtime locks and STM metadata
// live in other regions and are filtered out.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/runtime.h"
#include "core/trace.h"
#include "sim/types.h"

namespace tsx::check {

using sim::Addr;
using sim::CtxId;
using sim::Word;

struct Access {
  Addr addr;
  Word value;     // value read, or value written
  bool is_write;
};

struct Unit {
  CtxId ctx = 0;
  uint32_t site = 0;
  // STM units are checked for snapshot consistency rather than strictly
  // replayed: an STM transaction's reads come from a consistent snapshot
  // that may be slightly older than its serialization point.
  bool stm = false;
  std::vector<Access> accesses;
};

// The committed history: units in seal (serialization) order, plus the
// initial value of every heap word touched (latched at first global touch).
struct History {
  std::vector<Unit> units;
  std::unordered_map<Addr, Word> initial;
};

class Recorder final : public core::TxObserver {
 public:
  // Attaches as the runtime's observer (the recorder's only input). Attach
  // before TxRuntime::run and keep alive until after it returns.
  explicit Recorder(core::TxRuntime& rt);
  ~Recorder() override;

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  const History& history() const { return h_; }

  // ---- core::TxObserver ----
  void on_unit_begin(CtxId ctx, uint32_t site) override;
  void on_unit_commit(CtxId ctx) override;
  void on_unit_abort(CtxId ctx) override;
  void on_stm_read(CtxId ctx, Addr addr, Word value) override;
  void on_stm_write(CtxId ctx, Addr addr, Word value,
                    Word pre_commit_value) override;
  void on_access(CtxId ctx, Addr addr, Word old_value, Word value,
                 bool is_write) override;
  void on_hw_begin(CtxId ctx) override;
  void on_hw_abort(CtxId ctx) override;

 private:
  void latch_initial(Addr addr, Word value);
  static bool in_heap(Addr a);

  struct OpenUnit {
    bool active = false;
    bool implicit = false;  // opened by a bare machine tx, not the runtime
    uint32_t site = 0;
    bool stm = false;
    std::vector<Access> buf;
  };

  core::TxRuntime& rt_;
  std::vector<OpenUnit> open_;  // per context
  History h_;
};

}  // namespace tsx::check
