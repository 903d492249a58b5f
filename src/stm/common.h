#pragma once
// Shared pieces of the software TM implementations: the striped versioned
// lock table (in simulated memory), tx descriptors, statistics, and the
// retry executor.
//
// Both STMs are word-granular (the paper notes TinySTM detects conflicts at
// word granularity, vs RTM's 64 B lines) and time-based, with a global
// version clock in simulated memory whose cache-line ping-pong is part of
// the modeled cost.

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/retry_policy.h"
#include "core/scope_hooks.h"
#include "core/trace.h"
#include "sim/machine.h"
#include "sim/types.h"
#include "util/fn_ref.h"

namespace tsx::obs {
class TraceSink;
}

namespace tsx::stm {

using sim::Addr;
using sim::CtxId;
using sim::Cycles;
using sim::Machine;
using sim::Word;

enum class StmAbortCause : uint8_t {
  kReadLocked = 0,   // read found the stripe locked by another tx
  kReadVersion,      // read saw a too-new version and extension failed
  kWriteLocked,      // write lock acquisition failed
  kValidation,       // commit/extension-time read-set validation failed
  kCount,
};
const char* stm_abort_cause_name(StmAbortCause c);

// Thrown by tx_read/tx_write/tx_commit; caught by StmExecutor's retry loop.
// Never crosses a fiber switch while unwinding. `addr`/`owner` carry the
// contended data address and the owning context where the abort site knows
// them (lock-word conflicts); sentinel values otherwise.
struct StmAborted {
  StmAbortCause cause;
  Addr addr = ~Addr{0};
  CtxId owner = sim::kNoCtx;
};

struct StmStats {
  uint64_t transactions = 0;  // execute() calls
  uint64_t starts = 0;        // attempts (>= transactions)
  uint64_t commits = 0;
  std::array<uint64_t, static_cast<size_t>(StmAbortCause::kCount)> aborts_by_cause{};
  uint64_t extensions = 0;  // successful timestamp extensions (TinySTM)
  // Simulated cycles spent inside attempts that committed / aborted
  // (committed-vs-wasted energy attribution; mirrors RtmStats).
  Cycles cycles_committed = 0;
  Cycles cycles_aborted = 0;

  uint64_t aborts() const {
    uint64_t s = 0;
    for (uint64_t a : aborts_by_cause) s += a;
    return s;
  }
  double abort_rate() const {
    return starts ? static_cast<double>(aborts()) / static_cast<double>(starts)
                  : 0.0;
  }
};

struct StmConfig {
  // 2^20 word-granular stripes cover 8 MB of data without aliasing; beyond
  // that, distinct addresses share stripes and cause false conflicts — the
  // effect behind TinySTM's behaviour at 16 MB working sets in Fig. 3.
  uint32_t lock_table_entries = 1u << 20;
  uint32_t stripe_shift = 3;  // hash (addr >> 3): word granularity
  // Suicide-with-backoff contention management.
  Cycles backoff_base_cycles = 120;
  uint32_t backoff_cap_shift = 10;
  // Per-entry simulated cost of maintaining the private logs (beyond the
  // simulated stores to the log rings themselves).
  Cycles log_maintain_cycles = 1;
};

// Versioned-lock table in simulated memory. Lock word encoding:
//   bit 0      : locked
//   bits 1..63 : version (when unlocked) or owner ctx id (when locked)
class LockTable {
 public:
  LockTable(Machine& m, Addr base, const StmConfig& cfg)
      : m_(m), base_(base), mask_(cfg.lock_table_entries - 1),
        shift_(cfg.stripe_shift), entries_(cfg.lock_table_entries) {}

  // Marks the table's pages present and zeroes them (library startup cost,
  // outside measured regions).
  void init();

  Addr lock_addr(Addr data_addr) const {
    uint64_t stripe = (data_addr >> shift_) & mask_;
    return base_ + stripe * sim::kWordBytes;
  }

  static bool is_locked(Word lw) { return lw & 1; }
  static Word version_of(Word lw) { return lw >> 1; }
  static CtxId owner_of(Word lw) { return static_cast<CtxId>(lw >> 1); }
  static Word make_locked(CtxId owner) {
    return (static_cast<Word>(owner) << 1) | 1;
  }
  static Word make_version(Word version) { return version << 1; }

  uint64_t bytes() const { return entries_ * sim::kWordBytes; }

 private:
  Machine& m_;
  Addr base_;
  uint64_t mask_;
  uint32_t shift_;
  uint64_t entries_;
};

// Per-thread private log ring: models the cache/memory traffic of TinySTM's
// read/write logs. Appends are simulated stores into a per-thread region.
class LogRing {
 public:
  LogRing() = default;
  LogRing(Machine* m, Addr base, uint64_t bytes)
      : m_(m), base_(base), words_(bytes / sim::kWordBytes) {}

  void append(uint64_t n_words) {
    for (uint64_t i = 0; i < n_words; ++i) {
      // Log writes are sequential and absorbed by the store buffer, fully
      // pipelined with the surrounding loads; the cache-pressure effect is
      // modeled by one real store per line, the rest are free.
      if (pos_ % (sim::kLineBytes / sim::kWordBytes) == 0) {
        m_->store(base_ + (pos_ % words_) * sim::kWordBytes, 0x106);
      }
      ++pos_;
    }
  }
  // Logs restart from the beginning at every transaction (TinySTM reuses
  // its log arrays, so the footprint is the largest transaction, not the
  // run history — keeping the log L1-resident).
  void reset_tx() { pos_ = 0; }

 private:
  Machine* m_ = nullptr;
  Addr base_ = 0;
  uint64_t words_ = 1;
  uint64_t pos_ = 0;
};

// Abstract STM algorithm. One instance serves all contexts of a Machine.
class StmSystem {
 public:
  explicit StmSystem(Machine& m) : m_(m) {}
  virtual ~StmSystem() = default;

  virtual const char* name() const = 0;
  virtual void init() = 0;

  virtual void tx_start(CtxId ctx) = 0;
  virtual Word tx_read(CtxId ctx, Addr addr) = 0;
  virtual void tx_write(CtxId ctx, Addr addr, Word value) = 0;
  virtual void tx_commit(CtxId ctx) = 0;
  // Releases locks / discards logs after an abort (no throwing).
  virtual void tx_abort_cleanup(CtxId ctx) = 0;
  virtual bool tx_active(CtxId ctx) const = 0;

  StmStats& stats() { return stats_; }
  const StmStats& stats() const { return stats_; }

  // The runtime's observer slot (src/check's history recorder), read at
  // call time. Implementations report the transaction's serialization point
  // through it from tx_commit — after validation has succeeded (commit is
  // now inevitable) and before the write-back makes the new values readable
  // by other contexts.
  void set_observer(core::TxObserver* const* slot) { observer_ = slot; }

 protected:
  [[noreturn]] void abort_tx(StmAbortCause cause, Addr addr = ~Addr{0},
                             CtxId owner = sim::kNoCtx) {
    ++stats_.aborts_by_cause[static_cast<size_t>(cause)];
    throw StmAborted{cause, addr, owner};
  }

  void notify_serialized(CtxId ctx) {
    if (observer_ && *observer_) (*observer_)->on_unit_commit(ctx);
  }

  Machine& m_;
  StmStats stats_;
  core::TxObserver* const* observer_ = nullptr;
};

// Retry loop with suicide contention management. The wait between attempts
// is delegated to a core::RetryPolicy (randomized exponential backoff by
// default, matching TinySTM); the attempt budget is unbounded because an
// STM has no fallback path — it retries until it commits.
class StmExecutor {
 public:
  StmExecutor(Machine& m, StmSystem& stm, StmConfig cfg = {}) : m_(m), stm_(stm) {
    policy_.max_attempts = 0;  // unbounded: no fallback
    policy_.subscription = core::LockSubscription::kNone;  // no lock to watch
    policy_.backoff = core::BackoffShape::kExponential;
    policy_.backoff_base_cycles = cfg.backoff_base_cycles;
    policy_.backoff_cap_shift = cfg.backoff_cap_shift;
  }

  void set_scope_hooks(core::ScopeHooks hooks) { hooks_ = std::move(hooks); }

  // Optional observability sink (src/obs): attempt lifecycle and
  // contention-manager backoff decisions for software transactions, which
  // never pass through the machine's hardware-tx hooks.
  void set_sink(obs::TraceSink* sink) { sink_ = sink; }

  const core::RetryPolicy& retry_policy() const { return policy_; }

  // Executes `body` as one atomic STM transaction (retrying as needed).
  // The body routes its shared-memory accesses through tx_read/tx_write of
  // the owning runtime layer. `site` labels the static transaction site for
  // trace attribution.
  void execute(util::FnRef<void()> body, uint32_t site = 0);

  // Executes `body` as exactly one STM attempt: true on commit, false on
  // abort (after cleanup), with no backoff and no retry. The lock-elision
  // layer uses this so *its* RetryPolicy meters speculative attempts the
  // same way across hardware and software backends.
  bool execute_once(util::FnRef<void()> body, uint32_t site = 0);

 private:
  Machine& m_;
  StmSystem& stm_;
  core::RetryPolicy policy_;
  core::ScopeHooks hooks_;
  obs::TraceSink* sink_ = nullptr;
};

}  // namespace tsx::stm
