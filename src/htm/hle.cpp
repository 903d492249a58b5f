#include "htm/hle.h"

#include "htm/rtm.h"
#include "obs/trace_sink.h"

namespace tsx::htm {

bool HleLock::try_elided(util::FnRef<void()> body) {
  hooks_.on_begin();
  AttemptResult r = attempt(m_, [&] {
    // The elided acquisition: the lock word joins the read-set and must
    // look free (a held lock means someone is inside non-speculatively).
    if (lock_.is_locked()) m_.tx_abort(kAbortCodeLockBusy);
    body();
    // XRELEASE: the elided release touches nothing (the lock was never
    // written), so the commit ends the section.
  });
  if (r.committed) {
    ++stats_.elided_commits;
    hooks_.on_commit();
    return true;
  }
  ++stats_.elision_aborts;
  hooks_.on_abort();
  return false;
}

void HleLock::critical_section(util::FnRef<void()> body) {
  ++stats_.sections;
  for (uint32_t a = 0; a < attempts_; ++a) {
    if (try_elided(body)) return;
    // Hardware re-elision: no software backoff exists in HLE.
    if (sink_ && a + 1 < attempts_) {
      sink_->emit(obs::retry_event(m_.current_ctx(), m_.now(), false));
    }
  }
  // Hardware falls back to the real acquisition: the lock word write
  // conflicts with every concurrent elided section, aborting them all.
  if (sink_) sink_->emit(obs::retry_event(m_.current_ctx(), m_.now(), true));
  ++stats_.lock_acquisitions;
  lock_.lock();
  hooks_.on_begin();
  try {
    body();
  } catch (...) {
    hooks_.on_abort();
    lock_.unlock();
    throw;
  }
  // Commit while the lock is still held: the section's effects become
  // visible to other contexts only at the unlock.
  hooks_.on_commit();
  lock_.unlock();
}

}  // namespace tsx::htm
