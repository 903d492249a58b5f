#pragma once
// The one record the engines hand to the observability subsystem
// (src/obs).
//
// Every attempt begin/commit/abort (hardware and STM alike), eviction,
// retry decision, counter sample, lock-backend section and elide-lock
// acquisition is one `Event`, emitted through TraceSink::emit and folded
// once by each consumer. Events are flat PODs so the ring buffer in
// TraceSink is a plain array with no per-event allocation. Which fields are
// meaningful depends on `kind`; unused fields keep their zero/sentinel
// defaults. All timestamps are simulated cycles of the acting context, so
// event streams are a pure function of the run configuration and seed —
// byte-identical across harness `--jobs` values.
//
// Fields are ordered for packing (see the static_assert below); designated
// initializers follow this order.

#include <cstdint>

#include "sim/types.h"

namespace tsx::sim {
struct MachineStats;
}

namespace tsx::obs {

enum class EventKind : uint8_t {
  kTxBegin = 0,  // transaction attempt started (hardware xbegin or STM)
  kTxCommit,     // attempt committed
  kTxAbort,      // attempt aborted (reason/line/attacker valid)
  kEvict,        // a capacity-tracked line left its tracking structure
  kRetry,        // retry-policy decision after a failed attempt
  kEnergy,       // sample-window counter snapshot (--sample-interval)
  // Fold-only kinds below never enter the ring, so traces, abort reports
  // and their goldens do not depend on them.
  kLockSection,   // one completed lock-backend critical section (hub only)
  kElideAcquire,  // one completed elide-lock acquisition (PMU and hub)
};

// True for the kinds the ring keeps.
inline bool is_ring_kind(EventKind k) { return k <= EventKind::kEnergy; }

// Site id meaning "no call site registered".
inline constexpr uint32_t kNoSite = ~0u;

// Event::flags bits.
// The attempt ran under an STM algorithm (software transaction; no hardware
// xbegin was involved).
inline constexpr uint8_t kFlagStm = 1u << 0;
// Set by the sink: a commit/abort with no open begin on its context, or a
// begin while an attempt was already open (the open one is dropped).
inline constexpr uint8_t kFlagUnpaired = 1u << 1;

// How one elide-lock acquisition protocol completed (src/elide reports one
// event per completed acquisition, with attempt/cycle deltas).
enum class ElideAcqKind : uint8_t {
  kElided = 0,    // section committed speculatively
  kFallback = 1,  // attempt budget exhausted; section ran under the lock
  kLocked = 2,    // explicit non-speculative hold (lock()/locked_section)
};

// kElideAcquire payload.
struct ElideAcquisition {
  uint32_t lock = 0;
  ElideAcqKind kind = ElideAcqKind::kElided;
  bool self_stopped = false;  // this acquisition tripped the self-stop
  uint64_t attempts = 0;      // speculative attempts it consumed
  sim::Cycles cycles_elided = 0;
  sim::Cycles cycles_wasted = 0;
};

struct Event {
  EventKind kind = EventKind::kTxBegin;
  uint8_t flags = 0;
  sim::AbortReason reason = sim::AbortReason::kNone;  // kTxAbort
  // kEvict: 1 = L1 write-set eviction, 3 = L3 read-set eviction
  uint8_t level = 0;
  // kRetry: 0 = speculative retry (after `cycles` of backoff), 1 = serial
  // fallback taken
  uint8_t decision = 0;
  sim::CtxId ctx = 0;  // acting context (the victim for kTxAbort)
  // Static call-site label of the attempt kinds and kRetry. The sink fills
  // it from the context's current site; a kTxBegin that names its site
  // declares it as that context's current site.
  uint32_t site = kNoSite;
  sim::CtxId attacker = ~sim::CtxId{0};  // kTxAbort
  uint32_t attacker_site = kNoSite;      // kTxAbort, resolved by the sink
  sim::Cycles t = 0;                     // simulated cycles
  uint64_t line = ~0ull;  // kTxAbort: conflicting line; kEvict: evicted line
  // The span the event covers: kRetry the backoff before the next attempt;
  // kTxCommit/kTxAbort the attempt window since its begin (filled by the
  // sink, 0 when unpaired); kLockSection the section's length.
  sim::Cycles cycles = 0;

  // kEnergy: cumulative machine counters at the window boundary (filled by
  // the sink from `payload.stats`)
  uint64_t ops = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;

  // Data that only the folds read: valid while the event is being emitted,
  // null in ring copies.
  union Payload {
    const sim::MachineStats* stats;  // kEnergy
    const ElideAcquisition* elide;   // kElideAcquire
  } payload{};

  // kTxAbort: the attacker is another context whose site is known.
  bool attributed() const {
    return attacker_site != kNoSite && attacker != ctx;
  }
};

// The ring and every capture copy hold up to 64K events each, so a traced
// run's memory scales with this size.
static_assert(sizeof(Event) <= 80, "keep Event packed");

// A retry-policy decision after a failed attempt (every engine emits one).
inline Event retry_event(sim::CtxId ctx, sim::Cycles t, bool fallback,
                         sim::Cycles backoff = 0) {
  return {.kind = EventKind::kRetry,
          .decision = static_cast<uint8_t>(fallback ? 1 : 0),
          .ctx = ctx,
          .t = t,
          .cycles = backoff};
}

}  // namespace tsx::obs
