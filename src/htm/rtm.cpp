#include "htm/rtm.h"

namespace tsx::htm {

void RtmStats::merge(const RtmStats& o) {
  transactions += o.transactions;
  attempts += o.attempts;
  commits += o.commits;
  fallbacks += o.fallbacks;
  for (size_t i = 0; i < aborts_by_class.size(); ++i) {
    aborts_by_class[i] += o.aborts_by_class[i];
  }
  for (size_t i = 0; i < aborts_by_reason.size(); ++i) {
    aborts_by_reason[i] += o.aborts_by_reason[i];
  }
  cycles_committed += o.cycles_committed;
  cycles_aborted += o.cycles_aborted;
  cycles_fallback += o.cycles_fallback;
}

AttemptResult attempt(Machine& m, util::FnRef<void()> body) {
  AttemptResult r;
  Cycles t0 = m.now();
  try {
    m.tx_begin();
    body();
    m.tx_commit();
    r.committed = true;
    r.status = sim::xstatus::kStarted;
  } catch (const sim::TxAborted& a) {
    r.committed = false;
    r.status = a.status;
    r.reason = a.reason;
    r.conflict_line = a.conflict_line;
    r.attacker = a.attacker;
  }
  r.cycles = m.now() - t0;
  return r;
}

RtmExecutor::RtmExecutor(Machine& m, Addr lock_base, core::RetryPolicy policy,
                         const core::ExecutorEnv* env)
    : m_(m), lock_(m, lock_base), policy_(policy),
      env_(core::ExecutorEnv::of(env, m)),
      lock_line_(sim::line_of(lock_base)) {}

void RtmExecutor::init() { lock_.init(); }

bool RtmExecutor::in_fallback() const {
  if (!m_.on_fiber()) return false;
  return per_ctx_[m_.current_ctx()].in_fallback;
}

AbortClass RtmExecutor::classify(const AttemptResult& r, uint64_t lock_line) {
  using sim::AbortReason;
  // Lock aborts: the fallback path's explicit abort, or a conflict on the
  // serial-lock line (another thread's write_lock stomped our subscription).
  if (r.reason == AbortReason::kExplicit &&
      sim::xstatus::unpack_code(r.status) == kAbortCodeLockBusy) {
    return AbortClass::kLock;
  }
  if (r.reason == AbortReason::kConflict && r.conflict_line == lock_line) {
    return AbortClass::kLock;
  }
  switch (r.reason) {
    case AbortReason::kConflict:
    case AbortReason::kReadCapacity:
      return AbortClass::kConflictOrReadCap;
    case AbortReason::kWriteCapacity:
      return AbortClass::kWriteCapacity;
    case AbortReason::kExplicit:
    case AbortReason::kPageFault:
    case AbortReason::kUnsupportedInsn:
      return AbortClass::kMisc3;
    case AbortReason::kInterrupt:
    case AbortReason::kNone:
    case AbortReason::kCount:
      break;
  }
  return AbortClass::kMisc5;
}

size_t RtmSiteStats::enter(uint32_t site) {
  size_t i = 0;
  while (i < sites_.size() && sites_[i].first != site) ++i;
  if (i == sites_.size()) sites_.emplace_back(site, RtmStats{});
  ++total_.transactions;
  ++sites_[i].second.transactions;
  return i;
}

void RtmSiteStats::record(size_t i, const AttemptResult& r, AbortClass cls) {
  for (RtmStats* s : {&total_, &sites_[i].second}) {
    ++s->attempts;
    if (r.committed) {
      ++s->commits;
      s->cycles_committed += r.cycles;
      continue;
    }
    s->cycles_aborted += r.cycles;
    ++s->aborts_by_class[static_cast<size_t>(cls)];
    ++s->aborts_by_reason[static_cast<size_t>(r.reason)];
  }
}

RtmStats RtmSiteStats::site(uint32_t site) const {
  for (const auto& [id, st] : sites_) {
    if (id == site) return st;
  }
  return RtmStats{};
}

void RtmExecutor::execute(util::FnRef<void()> body, uint32_t site) {
  size_t site_idx = stats_.enter(site);
  sim::CtxId ctx = m_.current_ctx();
  uint32_t retries = 0;
  for (;;) {
    ++retries;
    if (policy_.subscription == core::LockSubscription::kWaitThenSubscribe) {
      while (!lock_.read_can_lock()) m_.pause();
    }
    env_.begin_hw(ctx, site);
    AttemptResult r = attempt(m_, [&] {
      if (policy_.subscription != core::LockSubscription::kNone) {
        if (!lock_.read_can_lock()) m_.tx_abort(kAbortCodeLockBusy);
      }
      body();
    });
    AbortClass cls = classify(r, lock_line_);
    if (r.committed) {
      env_.commit(ctx);
    } else {
      env_.abort(ctx);
    }
    stats_.record(site_idx, r, cls);
    if (r.committed) return;

    // The paper: if the abort says the serial lock was (or is being) held,
    // wait for it to be released before retrying.
    if (cls == AbortClass::kLock) {
      while (!lock_.read_can_lock()) m_.pause();
    }
    if (policy_.exhausted(retries)) break;
    env_.retry(ctx, policy_.backoff_cycles(retries, m_.setup_rng()));
  }

  // Serial fallback. With kNoSubscription this is unsafe against running
  // transactions (the ablation measures exactly that); with subscription it
  // aborts all of them via the lock line.
  env_.fallback(ctx);
  Cycles t0 = m_.now();
  stats_.add_fallback(site_idx);
  per_ctx_[ctx].in_fallback = true;
  lock_.write_lock();
  env_.begin(ctx, site);
  try {
    body();
  } catch (...) {
    env_.abort(ctx);
    per_ctx_[ctx].in_fallback = false;
    lock_.write_unlock();
    throw;
  }
  env_.commit(ctx);
  lock_.write_unlock();
  per_ctx_[ctx].in_fallback = false;
  stats_.add_fallback_cycles(site_idx, m_.now() - t0);
}

}  // namespace tsx::htm
