#pragma once
// Hardware Lock Elision (HLE): TSX's legacy-compatible interface, which the
// paper introduces alongside RTM (§I). An XACQUIRE-prefixed lock acquisition
// elides the lock: the critical section runs as a hardware transaction with
// the lock word in the read-set (still observed as "free"), so
// non-conflicting critical sections of the same lock run concurrently. On
// abort, the hardware re-executes the acquisition for real and the section
// runs classically under the lock.
//
// Differences from RTM that this model preserves:
//   * no abort handler or status code reaches software — the retry policy
//     is fixed in hardware (one elided attempt, then take the lock);
//   * the elided lock word itself is the subscription: a real acquisition
//     by any thread aborts all elided sections;
//   * page faults / capacity / interrupts behave exactly as under RTM.
//
// `bench/extension_hle_vs_rtm` compares this against the RTM executor with
// its software-controlled retry budget — the reason Algorithm-1-style RTM
// runtimes usually beat plain HLE on contended short sections.

#include <array>
#include <cstdint>
#include <functional>

#include "htm/rtm.h"
#include "sim/machine.h"
#include "sync/spinlock.h"

namespace tsx::htm {

struct HleStats {
  uint64_t sections = 0;        // elided_lock() calls
  uint64_t elided_commits = 0;  // sections that committed speculatively
  uint64_t elision_aborts = 0;  // failed elision attempts
  uint64_t lock_acquisitions = 0;

  double elision_rate() const {
    return sections ? static_cast<double>(elided_commits) /
                          static_cast<double>(sections)
                    : 0.0;
  }
};

// An elidable test-and-set lock (the XACQUIRE/XRELEASE pattern).
class HleLock {
 public:
  // `lock_base` must point at one line-aligned simulated word.
  HleLock(sim::Machine& m, sim::Addr lock_base, uint32_t elision_attempts = 1)
      : m_(m), lock_(m, lock_base), attempts_(elision_attempts) {}

  void init() { lock_.init(); }

  // Executes `body` as an elided critical section: speculatively first
  // (`attempts_` tries, as hardware would re-elide after some abort kinds),
  // then under the real lock.
  void critical_section(util::FnRef<void()> body);

  // Per-attempt scope hooks, mirroring RtmExecutor's: `begin` before every
  // elided attempt and after the fallback lock acquisition; `commit` after
  // a successful elision, and on the lock path after the body while the
  // lock is still held (so src/check seals sections in visibility order);
  // `abort` after every failed attempt. Used by the runtime for
  // heap-allocation scoping and history recording.
  void set_scope_hooks(core::ScopeHooks hooks) { hooks_ = std::move(hooks); }

  // Optional observability sink (src/obs): reports re-elision and
  // lock-acquisition decisions. Attempt events flow via the machine's
  // TraceHooks.
  void set_sink(obs::TraceSink* sink) { sink_ = sink; }

  const HleStats& stats() const { return stats_; }

 private:
  bool try_elided(util::FnRef<void()> body);

  sim::Machine& m_;
  sync::TasSpinLock lock_;
  uint32_t attempts_;
  HleStats stats_;
  core::ScopeHooks hooks_;
  obs::TraceSink* sink_ = nullptr;
};

}  // namespace tsx::htm
