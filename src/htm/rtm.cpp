#include "htm/rtm.h"

#include <algorithm>

#include "obs/trace_sink.h"

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

RtmExecutor::RtmExecutor(Machine& m, Addr lock_base, core::RetryPolicy policy)
    : m_(m), lock_(m, lock_base), policy_(policy),
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

void RtmExecutor::record(RtmStats& s, const AttemptResult& r,
                         uint64_t lock_line) {
  ++s.attempts;
  if (r.committed) {
    ++s.commits;
    s.cycles_committed += r.cycles;
    return;
  }
  s.cycles_aborted += r.cycles;
  ++s.aborts_by_class[static_cast<size_t>(classify(r, lock_line))];
  ++s.aborts_by_reason[static_cast<size_t>(r.reason)];
}

void RtmExecutor::execute(util::FnRef<void()> body, uint32_t site) {
  // Hold an index, not a pointer: body() may yield to another fiber whose
  // execute() appends a new site and reallocates sites_ underneath us.
  size_t site_idx = sites_.size();
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i].first == site) {
      site_idx = i;
      break;
    }
  }
  if (site_idx == sites_.size()) {
    sites_.emplace_back(site, RtmStats{});
  }
  ++total_.transactions;
  ++sites_[site_idx].second.transactions;
  if (sink_) sink_->set_site(m_.current_ctx(), site);

  uint32_t retries = 0;
  for (;;) {
    ++retries;
    if (policy_.subscription == core::LockSubscription::kWaitThenSubscribe) {
      while (!lock_.read_can_lock()) m_.pause();
    }
    hooks_.on_begin();
    AttemptResult r = attempt(m_, [&] {
      if (policy_.subscription != core::LockSubscription::kNone) {
        if (!lock_.read_can_lock()) m_.tx_abort(kAbortCodeLockBusy);
      }
      body();
    });
    if (r.committed) {
      hooks_.on_commit();
    } else {
      hooks_.on_abort();
    }
    record(total_, r, lock_line_);
    record(sites_[site_idx].second, r, lock_line_);
    if (r.committed) return;

    // The paper: if the abort says the serial lock was (or is being) held,
    // wait for it to be released before retrying.
    if (classify(r, lock_line_) == AbortClass::kLock) {
      while (!lock_.read_can_lock()) m_.pause();
    }
    if (policy_.exhausted(retries)) break;
    // With the default kNone shape this is 0 and must not reach compute():
    // an extra scheduling point would perturb deterministic schedules.
    Cycles wait = policy_.backoff_cycles(retries, m_.setup_rng());
    if (sink_) {
      sink_->emit(obs::retry_event(m_.current_ctx(), m_.now(), false, wait));
    }
    if (wait) m_.compute(wait);
  }

  // Serial fallback. With kNoSubscription this is unsafe against running
  // transactions (the ablation measures exactly that); with subscription it
  // aborts all of them via the lock line.
  if (sink_) sink_->emit(obs::retry_event(m_.current_ctx(), m_.now(), true));
  Cycles t0 = m_.now();
  ++total_.fallbacks;
  ++sites_[site_idx].second.fallbacks;
  per_ctx_[m_.current_ctx()].in_fallback = true;
  lock_.write_lock();
  hooks_.on_begin();
  try {
    body();
  } catch (...) {
    hooks_.on_abort();
    per_ctx_[m_.current_ctx()].in_fallback = false;
    lock_.write_unlock();
    throw;
  }
  hooks_.on_commit();
  lock_.write_unlock();
  per_ctx_[m_.current_ctx()].in_fallback = false;
  Cycles dt = m_.now() - t0;
  total_.cycles_fallback += dt;
  sites_[site_idx].second.cycles_fallback += dt;
}

RtmStats RtmExecutor::stats() const { return total_; }

RtmStats RtmExecutor::site_stats(uint32_t site) const {
  for (const auto& [id, st] : sites_) {
    if (id == site) return st;
  }
  return RtmStats{};
}

}  // namespace tsx::htm
