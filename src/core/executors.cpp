// Concrete TxExecutor implementations for every Backend, plus the
// make_executor() registry. This file is the only place that knows which
// synchronization object a backend uses, where it lives in the runtime
// region, and how heap scoping / history observation wrap its attempts.
//
// Runtime-region line assignment (one object per line, see mem/layout.h):
//   line 0: global ticket spinlock (kLock)
//   line 1: RTM serial fallback reader/writer lock (kRtm)
//   line 2: HLE elided TAS lock (kHle)
//   line 3: CAS test-and-set lock (kCas)

#include "core/executor.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/runtime.h"
#include "htm/hle.h"
#include "mem/layout.h"
#include "obs/trace_sink.h"
#include "stm/tinystm.h"
#include "stm/tl2.h"
#include "sync/spinlock.h"

namespace tsx::core {

namespace {

using sim::Addr;
using sim::CtxId;
using sim::Cycles;
using sim::Word;

// Heap transaction scoping + recorder unit bracketing around every
// speculative attempt / fallback execution. Hardware and STM attempts seal
// their units earlier, at the true serialization point (the machine's
// tx_commit, StmSystem::tx_commit); the commit call here is then a no-op.
ScopeHooks make_scope_hooks(const ExecutorEnv& env) {
  return ScopeHooks{
      [env] {
        CtxId c = env.machine->current_ctx();
        env.heap->tx_scope_begin(c);
        if (TxObserver* o = *env.observer) o->on_unit_begin(c, 0);
      },
      [env] {
        CtxId c = env.machine->current_ctx();
        env.heap->tx_scope_commit(c);
        if (TxObserver* o = *env.observer) o->on_unit_commit(c);
      },
      [env] {
        CtxId c = env.machine->current_ctx();
        env.heap->tx_scope_abort(c);
        if (TxObserver* o = *env.observer) o->on_unit_abort(c);
      },
  };
}

// One speculative elision attempt on a hardware-transactional backend:
// subscribe the lock word inside the transaction (abort kAbortCodeLockBusy
// when held), run the body, and map the attempt result onto ElideOutcome.
// Mirrors RtmExecutor::execute's hook ordering so the recorder and heap
// scoping see elided sections exactly like executor transactions.
ElideOutcome hw_elide(sim::Machine& m, obs::TraceSink* sink,
                      const ScopeHooks& hooks,
                      util::FnRef<void()> body, Addr lock_word, uint32_t site) {
  if (sink) sink->set_site(m.current_ctx(), site);
  hooks.on_begin();
  htm::AttemptResult r = htm::attempt(m, [&] {
    if (lock_word != 0 && m.load(lock_word) != 0) {
      m.tx_abort(htm::kAbortCodeLockBusy);
    }
    body();
  });
  if (r.committed) {
    hooks.on_commit();
    return ElideOutcome::kCommitted;
  }
  hooks.on_abort();
  if (r.reason == sim::AbortReason::kExplicit &&
      sim::xstatus::unpack_code(r.status) == htm::kAbortCodeLockBusy) {
    return ElideOutcome::kLockBusy;
  }
  return ElideOutcome::kAborted;
}

// ---- kSeq ----

class SeqExecutor final : public TxExecutor {
 public:
  using TxExecutor::TxExecutor;

  const char* name() const override { return "SEQ"; }

  void execute(util::FnRef<void()> body, uint32_t site) override {
    CtxId c = env_.machine->current_ctx();
    if (TxObserver* o = obs()) o->on_unit_begin(c, site);
    body();
    if (TxObserver* o = obs()) o->on_unit_commit(c);
  }
};

// ---- kLock / kCas ----

// One global spinlock around every atomic block. The observer's commit call
// lands while the lock is still held, so the recorder seals sections in the
// order their effects became visible.
template <class Lock>
class SpinLockExecutor final : public TxExecutor {
 public:
  SpinLockExecutor(const ExecutorEnv& env, const char* name, Addr lock_base)
      : TxExecutor(env), name_(name), lock_(*env.machine, lock_base) {
    lock_.init();
  }

  const char* name() const override { return name_; }

  void execute(util::FnRef<void()> body, uint32_t site) override {
    CtxId c = env_.machine->current_ctx();
    if (env_.sink) env_.sink->set_site(c, site);
    lock_.lock();
    // Section timestamps for the metrics hub's lock-activity signal
    // (hub-only: no ring event, no PMU counter, no simulated work).
    Cycles t0 = env_.sink ? env_.machine->now() : 0;
    if (TxObserver* o = obs()) o->on_unit_begin(c, site);
    try {
      body();
    } catch (...) {
      if (TxObserver* o = obs()) o->on_unit_abort(c);
      lock_.unlock();
      throw;
    }
    if (TxObserver* o = obs()) o->on_unit_commit(c);
    if (env_.sink) {
      Cycles t1 = env_.machine->now();
      env_.sink->emit({.kind = obs::EventKind::kLockSection,
                       .ctx = c,
                       .t = t1,
                       .cycles = t1 - t0});
    }
    lock_.unlock();
  }

 private:
  const char* name_;
  Lock lock_;
};

// ---- kHle ----

class HleExecutor final : public TxExecutor {
 public:
  HleExecutor(const ExecutorEnv& env, uint32_t elision_attempts)
      : TxExecutor(env),
        lock_(*env.machine, mem::kRuntimeRegionBase + 2 * sim::kLineBytes,
              elision_attempts),
        hooks_(make_scope_hooks(env)) {
    lock_.init();
    // Heap scoping and observer bracketing fire per elision attempt;
    // lock-path sections seal before the unlock, elided sections seal at
    // the machine's tx_commit (the later scope-commit call is an idempotent
    // backstop).
    lock_.set_scope_hooks(hooks_);
    lock_.set_sink(env.sink);
  }

  const char* name() const override { return "HLE"; }

  void execute(util::FnRef<void()> body, uint32_t site) override {
    if (env_.sink) env_.sink->set_site(env_.machine->current_ctx(), site);
    lock_.critical_section(body);
  }

  ElideOutcome elide(util::FnRef<void()> body, Addr lock_word,
                     uint32_t site) override {
    return hw_elide(*env_.machine, env_.sink, hooks_, body, lock_word,
                    site);
  }

  // Hardware elision needs raw lock-word RMWs (glibc-style): exclusion
  // against elided sections comes from subscription, and the acquiring CAS
  // must conflict with their read sets immediately, not via a nested block.
  bool lock_cas(sim::Addr a, sim::Word expected, sim::Word desired) override {
    return env_.machine->load(a) == expected &&
           env_.machine->cas(a, expected, desired);
  }
  sim::Word lock_fetch_add(sim::Addr a, sim::Word delta) override {
    return env_.machine->fetch_add(a, delta);
  }

 private:
  htm::HleLock lock_;
  ScopeHooks hooks_;
};

// ---- kRtm ----

class RtmSerialExecutor final : public TxExecutor {
 public:
  RtmSerialExecutor(const ExecutorEnv& env, const RetryPolicy& policy)
      : TxExecutor(env),
        rtm_(*env.machine, mem::kRuntimeRegionBase + sim::kLineBytes, policy),
        hooks_(make_scope_hooks(env)) {
    rtm_.init();
    rtm_.set_scope_hooks(hooks_);
    rtm_.set_sink(env.sink);
  }

  const char* name() const override { return "RTM"; }

  void execute(util::FnRef<void()> body, uint32_t site) override {
    rtm_.execute(body, site);
  }

  // Elision attempts bypass rtm_'s serial lock entirely: the elided lock's
  // own word is the subscription target, and src/elide owns retry/fallback.
  // rtm_stats() intentionally keeps counting execute() transactions only;
  // per-lock elision statistics live in the elide layer and the PMU.
  ElideOutcome elide(util::FnRef<void()> body, Addr lock_word,
                     uint32_t site) override {
    return hw_elide(*env_.machine, env_.sink, hooks_, body, lock_word,
                    site);
  }

  // Raw lock-word RMWs, as for HLE: the CAS itself is the conflict source
  // that dooms subscribed elided sections.
  bool lock_cas(sim::Addr a, sim::Word expected, sim::Word desired) override {
    return env_.machine->load(a) == expected &&
           env_.machine->cas(a, expected, desired);
  }
  sim::Word lock_fetch_add(sim::Addr a, sim::Word delta) override {
    return env_.machine->fetch_add(a, delta);
  }

  bool in_serial_fallback() const override { return rtm_.in_fallback(); }
  htm::RtmStats rtm_stats() const override { return rtm_.stats(); }
  std::vector<std::pair<uint32_t, htm::RtmStats>> rtm_site_stats()
      const override {
    return rtm_.all_site_stats();
  }

 private:
  htm::RtmExecutor rtm_;
  ScopeHooks hooks_;
};

// ---- STM-backed executors (kTinyStm, kTl2, and kHybrid's fallback) ----

// Owns an StmSystem + its retry executor and provides the software
// transactional data path: loads/stores inside a live software transaction
// route through tx_read/tx_write, with the logical access stream mirrored
// to the observer (machine-level traffic of an STM transaction is metadata,
// which the recorder suppresses via stm_active()).
class StmBackedExecutor : public TxExecutor {
 public:
  StmBackedExecutor(const ExecutorEnv& env,
                    std::unique_ptr<stm::StmSystem> sys,
                    const stm::StmConfig& cfg)
      : TxExecutor(env),
        stm_(std::move(sys)),
        stm_exec_(*env.machine, *stm_, cfg) {
    stm_->init();
    stm_->set_observer(env.observer);
    stm_exec_.set_scope_hooks(make_scope_hooks(env));
    stm_exec_.set_sink(env.sink);
  }

  Word load(CtxId ctx, Addr a) override {
    if (!stm_->tx_active(ctx)) return env_.machine->load(a);
    Word v = stm_->tx_read(ctx, a);
    if (TxObserver* o = obs()) o->on_stm_read(ctx, a, v);
    return v;
  }

  void store(CtxId ctx, Addr a, Word v) override {
    if (!stm_->tx_active(ctx)) {
      env_.machine->store(a, v);
      return;
    }
    // Latch the committed value before tx_write so the recorder can record
    // the pre-image for the replay's initial state.
    Word pre = obs() ? env_.machine->peek(a) : 0;
    stm_->tx_write(ctx, a, v);
    if (TxObserver* o = obs()) o->on_stm_write(ctx, a, v, pre);
  }

  bool stm_active(CtxId ctx) const override { return stm_->tx_active(ctx); }
  stm::StmStats stm_stats() const override { return stm_->stats(); }

  // Software elision: one single-shot STM transaction with the lock word in
  // its read set (tx_read validates it against the stripe clock). A busy
  // lock *commits* the read-only transaction — the busy observation was
  // atomic — and reports kLockBusy without burning an STM abort.
  ElideOutcome elide(util::FnRef<void()> body, Addr lock_word,
                     uint32_t site) override {
    ElideOutcome out = ElideOutcome::kCommitted;
    bool committed = stm_exec_.execute_once(
        [&] {
          out = ElideOutcome::kCommitted;
          if (lock_word != 0 &&
              this->load(env_.machine->current_ctx(), lock_word) != 0) {
            out = ElideOutcome::kLockBusy;
            return;
          }
          body();
        },
        site);
    return committed ? out : ElideOutcome::kAborted;
  }

  // The fallback body must run as a software transaction even though the
  // caller holds the fallback lock: raw stores would not bump stripe
  // versions, and a concurrently elided reader that started before the lock
  // acquisition could then read a torn snapshot without failing validation
  // (opacity). As a transaction, every write locks + version-bumps its
  // stripe, dooming such readers at read/commit time.
  void elide_fallback(util::FnRef<void()> body, uint32_t site) override {
    stm_exec_.execute(body, site);
  }

  // Lock-word transitions go through small STM transactions for the same
  // reason: elided readers subscribe the word via tx_read, so acquiring or
  // releasing the word must version-bump its stripe to invalidate them.
  bool lock_cas(Addr a, Word expected, Word desired) override {
    bool ok = false;
    stm_exec_.execute([&] {
      CtxId c = env_.machine->current_ctx();
      ok = false;
      if (this->load(c, a) == expected) {
        this->store(c, a, desired);
        ok = true;
      }
    });
    return ok;
  }

  Word lock_fetch_add(Addr a, Word delta) override {
    Word old = 0;
    stm_exec_.execute([&] {
      CtxId c = env_.machine->current_ctx();
      old = this->load(c, a);
      this->store(c, a, old + delta);
    });
    return old;
  }

 protected:
  std::unique_ptr<stm::StmSystem> stm_;
  stm::StmExecutor stm_exec_;
};

class StmExecutorAdapter final : public StmBackedExecutor {
 public:
  using StmBackedExecutor::StmBackedExecutor;

  const char* name() const override { return stm_->name(); }

  void execute(util::FnRef<void()> body, uint32_t site) override {
    stm_exec_.execute(body, site);
  }
};

// ---- kHybrid ----

// Hybrid TM in the HyTM-with-orecs style: hardware transaction attempts,
// then a full TinySTM transaction as the fallback — no serial lock, so an
// overflowing or conflicting transaction degrades to *concurrent* software
// mode instead of stopping the world.
//
// Coupling invariants (see DESIGN.md for the full argument):
//   * Every hardware access first loads the word's stripe lock. If the
//     stripe is locked, the attempt aborts (code kAbortCodeStmLocked) —
//     a software transaction owns the word (encounter-time write lock held
//     until post-write-back release), so reading the data word could see a
//     torn snapshot. The load also puts the stripe line into the hardware
//     read set, so a later STM lock acquisition dooms the attempt via the
//     machine's requester-wins conflict path.
//   * A writing hardware transaction publishes its commit to STM timestamp
//     validation: inside the transaction, after the body, it bumps the
//     global clock and writes the new version into every written stripe.
//     Without this, a software transaction that read a word before the
//     hardware commit would revalidate against a stale stripe version and
//     miss the conflict. The clock write also serializes concurrent
//     hardware writers against each other (write-write conflict on the
//     clock line) — the classic HyTM clock-contention cost, measured by
//     bench/extension_hybrid.
//   * STM commits doom overlapping hardware transactions for free: the
//     stripe CAS, the commit-time clock fetch_add and the write-back all
//     hit lines in hardware read/write sets.
//   * Read-only hardware transactions publish nothing: their snapshot is
//     guaranteed by hardware conflict detection alone, and STM read-only
//     transactions validate per-read against the clock as usual.
class HybridExecutor final : public StmBackedExecutor {
 public:
  // Explicit abort code for "stripe locked by a software transaction";
  // classified as a lock-class abort (the STM lock *is* our fallback lock).
  static constexpr uint8_t kAbortCodeStmLocked = 0xfe;

  HybridExecutor(const ExecutorEnv& env, const RetryPolicy& policy,
                 const stm::StmConfig& cfg)
      : StmBackedExecutor(
            env, std::make_unique<stm::TinyStm>(*env.machine, mem::kStmRegionBase, cfg),
            cfg),
        m_(*env.machine),
        policy_(policy),
        tiny_(static_cast<stm::TinyStm*>(stm_.get())),
        clock_line_(sim::line_of(tiny_->clock_addr())),
        hw_hooks_(make_scope_hooks(env)) {}

  const char* name() const override { return "Hybrid"; }

  void execute(util::FnRef<void()> body, uint32_t site) override {
    // Index, not pointer: body() may yield to a fiber whose execute()
    // appends a new site and reallocates sites_ underneath us.
    size_t site_idx = sites_.size();
    for (size_t i = 0; i < sites_.size(); ++i) {
      if (sites_[i].first == site) {
        site_idx = i;
        break;
      }
    }
    if (site_idx == sites_.size()) sites_.emplace_back(site, htm::RtmStats{});
    ++total_.transactions;
    ++sites_[site_idx].second.transactions;

    CtxId ctx = m_.current_ctx();
    if (env_.sink) env_.sink->set_site(ctx, site);
    PerCtx& pc = per_ctx_[ctx];
    uint32_t attempts = 0;
    while (!policy_.exhausted(attempts)) {
      ++attempts;
      hw_hooks_.on_begin();
      pc.hw = true;
      pc.write_stripes.clear();
      htm::AttemptResult r = htm::attempt(m_, [&] {
        body();
        publish(pc);
      });
      pc.hw = false;
      record(total_, r);
      record(sites_[site_idx].second, r);
      if (r.committed) {
        hw_hooks_.on_commit();
        return;
      }
      hw_hooks_.on_abort();
      // Capacity aborts are deterministic: the transaction cannot fit, so
      // retrying in hardware is futile (real TSX clears the RETRY hint for
      // them). Go straight to the software fallback — it is concurrent, so
      // unlike the serial-lock scheme there is no reason to be reluctant.
      if (r.reason == sim::AbortReason::kWriteCapacity ||
          r.reason == sim::AbortReason::kReadCapacity) {
        break;
      }
      if (policy_.exhausted(attempts)) break;
      Cycles wait = policy_.backoff_cycles(attempts, m_.setup_rng());
      if (env_.sink) {
        env_.sink->emit(obs::retry_event(ctx, m_.now(), false, wait));
      }
      if (wait) m_.compute(wait);
    }

    // Software fallback: a full TinySTM transaction, concurrent with other
    // contexts' hardware attempts (which it dooms on true conflict).
    Cycles t0 = m_.now();
    ++total_.fallbacks;
    ++sites_[site_idx].second.fallbacks;
    if (env_.sink) env_.sink->emit(obs::retry_event(ctx, m_.now(), true));
    stm_exec_.execute(body, site);
    Cycles dt = m_.now() - t0;
    total_.cycles_fallback += dt;
    sites_[site_idx].second.cycles_fallback += dt;
  }

  Word load(CtxId ctx, Addr a) override {
    PerCtx& pc = per_ctx_[ctx];
    if (!pc.hw) return StmBackedExecutor::load(ctx, a);
    subscribe_stripe(a);
    return m_.load(a);
  }

  void store(CtxId ctx, Addr a, Word v) override {
    PerCtx& pc = per_ctx_[ctx];
    if (!pc.hw) {
      StmBackedExecutor::store(ctx, a, v);
      return;
    }
    Addr stripe = subscribe_stripe(a);
    bool seen = false;
    for (Addr s : pc.write_stripes) seen |= (s == stripe);
    if (!seen) pc.write_stripes.push_back(stripe);
    m_.store(a, v);
  }

  // Hardware elision attempt with hybrid coupling: the lock word's *stripe*
  // joins the read set too (and is checked for a software owner), and a
  // writing elided section publishes its commit to STM timestamp validation
  // exactly like execute()'s hardware path. Software-mode work (the caller's
  // fallback and lock-word RMWs) is inherited from StmBackedExecutor.
  ElideOutcome elide(util::FnRef<void()> body, Addr lock_word,
                     uint32_t site) override {
    CtxId ctx = m_.current_ctx();
    if (env_.sink) env_.sink->set_site(ctx, site);
    PerCtx& pc = per_ctx_[ctx];
    hw_hooks_.on_begin();
    pc.hw = true;
    pc.write_stripes.clear();
    htm::AttemptResult r = htm::attempt(m_, [&] {
      if (lock_word != 0) {
        subscribe_stripe(lock_word);
        if (m_.load(lock_word) != 0) m_.tx_abort(htm::kAbortCodeLockBusy);
      }
      body();
      publish(pc);
    });
    pc.hw = false;
    if (r.committed) {
      hw_hooks_.on_commit();
      return ElideOutcome::kCommitted;
    }
    hw_hooks_.on_abort();
    if (r.reason == sim::AbortReason::kExplicit &&
        sim::xstatus::unpack_code(r.status) == htm::kAbortCodeLockBusy) {
      return ElideOutcome::kLockBusy;
    }
    return ElideOutcome::kAborted;
  }

  htm::RtmStats rtm_stats() const override { return total_; }
  std::vector<std::pair<uint32_t, htm::RtmStats>> rtm_site_stats()
      const override {
    return sites_;
  }

 private:
  struct PerCtx {
    bool hw = false;                  // inside a hardware attempt's body
    std::vector<Addr> write_stripes;  // deduped stripes written this attempt
  };

  // Loads the stripe word (joining the hardware read set) and aborts the
  // attempt if a software transaction holds it.
  Addr subscribe_stripe(Addr a) {
    Addr stripe = tiny_->stripe_addr(a);
    Word lw = m_.load(stripe);
    if (stm::LockTable::is_locked(lw)) m_.tx_abort(kAbortCodeStmLocked);
    return stripe;
  }

  // Runs inside the hardware transaction, after the body: make this commit
  // visible to STM timestamp validation. All these stores are speculative
  // and roll back with the attempt.
  void publish(const PerCtx& pc) {
    if (pc.write_stripes.empty()) return;  // read-only: nothing to publish
    Word next = m_.load(tiny_->clock_addr()) + 1;
    m_.store(tiny_->clock_addr(), next);
    for (Addr stripe : pc.write_stripes) {
      m_.store(stripe, stm::LockTable::make_version(next));
    }
  }

  htm::AbortClass classify(const htm::AttemptResult& r) const {
    if (r.reason == sim::AbortReason::kExplicit &&
        sim::xstatus::unpack_code(r.status) == kAbortCodeStmLocked) {
      return htm::AbortClass::kLock;
    }
    // Conflicts on the clock line are commit-serialization conflicts with
    // other writers (hardware or software) — the hybrid's lock-class bucket.
    return htm::RtmExecutor::classify(r, clock_line_);
  }

  void record(htm::RtmStats& s, const htm::AttemptResult& r) const {
    ++s.attempts;
    if (r.committed) {
      ++s.commits;
      s.cycles_committed += r.cycles;
      return;
    }
    s.cycles_aborted += r.cycles;
    ++s.aborts_by_class[static_cast<size_t>(classify(r))];
    ++s.aborts_by_reason[static_cast<size_t>(r.reason)];
  }

  sim::Machine& m_;
  RetryPolicy policy_;
  stm::TinyStm* tiny_;  // the same object stm_ owns, concretely typed
  uint64_t clock_line_;
  ScopeHooks hw_hooks_;
  std::array<PerCtx, sim::kMaxCtxs> per_ctx_{};
  htm::RtmStats total_;
  std::vector<std::pair<uint32_t, htm::RtmStats>> sites_;
};

}  // namespace

// Default elision: run the body through execute() with a pre-check of the
// lock word inside the atomic block. For the global-lock backends the
// executor's own lock provides the exclusion, so this "elides" the caller's
// lock by nesting under the global one — semantically a correct (if
// unexciting) elision. kSeq gets the same shape; src/elide disables elision
// there because SeqExecutor provides no exclusion at all.
ElideOutcome TxExecutor::elide(util::FnRef<void()> body,
                               sim::Addr lock_word, uint32_t site) {
  ElideOutcome out = ElideOutcome::kCommitted;
  execute(
      [&] {
        out = ElideOutcome::kCommitted;  // reset on retry
        if (lock_word != 0 && env_.machine->load(lock_word) != 0) {
          out = ElideOutcome::kLockBusy;
          return;
        }
        body();
      },
      site);
  return out;
}

// Default fallback execution: the caller already holds its lock, so no
// exclusion is needed here — just heap scoping plus recorder bracketing.
// The unit seals before the caller releases the lock word, matching the
// visibility order SpinLockExecutor establishes.
void TxExecutor::elide_fallback(util::FnRef<void()> body,
                                uint32_t site) {
  CtxId c = env_.machine->current_ctx();
  env_.heap->tx_scope_begin(c);
  if (TxObserver* o = obs()) o->on_unit_begin(c, site);
  try {
    body();
  } catch (...) {
    env_.heap->tx_scope_abort(c);
    if (TxObserver* o = obs()) o->on_unit_abort(c);
    throw;
  }
  env_.heap->tx_scope_commit(c);
  if (TxObserver* o = obs()) o->on_unit_commit(c);
}

// Default lock-word RMWs run as (tiny) atomic blocks. This matters for the
// global-lock backends: elide() observes the lock word inside the executor's
// lock, so the word may only *transition* under that same lock — a raw CAS
// from a fallback acquirer could otherwise slip in after an elided section's
// busy check and race its body. Under the global lock, load + store is an
// atomic CAS. The lock words live outside the heap region, so the recorder
// sees these blocks as empty units.
bool TxExecutor::lock_cas(sim::Addr a, sim::Word expected, sim::Word desired) {
  bool ok = false;
  execute(
      [&] {
        ok = false;
        if (env_.machine->load(a) == expected) {
          env_.machine->store(a, desired);
          ok = true;
        }
      },
      0);
  return ok;
}

sim::Word TxExecutor::lock_fetch_add(sim::Addr a, sim::Word delta) {
  sim::Word old = 0;
  execute(
      [&] {
        old = env_.machine->load(a);
        env_.machine->store(a, old + delta);
      },
      0);
  return old;
}

std::unique_ptr<TxExecutor> make_executor(const RunConfig& cfg,
                                          const ExecutorEnv& env) {
  switch (cfg.backend) {
    case Backend::kSeq:
      return std::make_unique<SeqExecutor>(env);
    case Backend::kLock:
      return std::make_unique<SpinLockExecutor<sync::TicketSpinLock>>(
          env, "Lock", mem::kRuntimeRegionBase);
    case Backend::kRtm:
      return std::make_unique<RtmSerialExecutor>(env, cfg.retry);
    case Backend::kTinyStm:
      return std::make_unique<StmExecutorAdapter>(
          env,
          std::make_unique<stm::TinyStm>(*env.machine, mem::kStmRegionBase,
                                         cfg.stm),
          cfg.stm);
    case Backend::kTl2:
      return std::make_unique<StmExecutorAdapter>(
          env,
          std::make_unique<stm::Tl2>(*env.machine, mem::kStmRegionBase,
                                     cfg.stm),
          cfg.stm);
    case Backend::kHle:
      return std::make_unique<HleExecutor>(env, cfg.hle_elision_attempts);
    case Backend::kCas:
      return std::make_unique<SpinLockExecutor<sync::TasSpinLock>>(
          env, "CAS", mem::kRuntimeRegionBase + 3 * sim::kLineBytes);
    case Backend::kHybrid:
      return std::make_unique<HybridExecutor>(env, cfg.retry, cfg.stm);
  }
  throw std::invalid_argument("make_executor: unknown backend");
}

}  // namespace tsx::core
