#include "htm/hle.h"

namespace tsx::htm {

bool HleLock::try_elided(util::FnRef<void()> body, uint32_t site) {
  sim::CtxId ctx = m_.current_ctx();
  env_.begin_hw(ctx, site);
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
    env_.commit(ctx);
    return true;
  }
  ++stats_.elision_aborts;
  env_.abort(ctx);
  return false;
}

void HleLock::critical_section(util::FnRef<void()> body, uint32_t site) {
  ++stats_.sections;
  sim::CtxId ctx = m_.current_ctx();
  for (uint32_t a = 0; a < attempts_; ++a) {
    if (try_elided(body, site)) return;
    // Hardware re-elision: no software backoff exists in HLE.
    if (a + 1 < attempts_) env_.retry(ctx);
  }
  // Hardware falls back to the real acquisition: the lock word write
  // conflicts with every concurrent elided section, aborting them all.
  env_.fallback(ctx);
  ++stats_.lock_acquisitions;
  lock_.lock();
  env_.begin(ctx, site);
  try {
    body();
  } catch (...) {
    env_.abort(ctx);
    lock_.unlock();
    throw;
  }
  // Commit while the lock is still held: the section's effects become
  // visible to other contexts only at the unlock.
  env_.commit(ctx);
  lock_.unlock();
}

}  // namespace tsx::htm
