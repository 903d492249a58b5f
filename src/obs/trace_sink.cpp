#include "obs/trace_sink.h"

#include "obs/metrics.h"
#include "obs/pmu.h"
#include "sim/stats.h"

namespace tsx::obs {

TraceSink::TraceSink(size_t capacity)
    : cap_(capacity), arena_(capacity * sizeof(Event)) {
  if (capacity) ring_ = arena_.alloc_array<Event>(capacity);
  cur_site_.fill(kNoSite);
}

void TraceSink::push(const Event& e) {
  Event* slot;
  if (size_ < cap_) {
    slot = &ring_[size_++];
  } else {
    slot = &ring_[head_];  // overwrite the oldest
    head_ = (head_ + 1) % cap_;
    ++dropped_;
  }
  *slot = e;
  slot->payload = {};  // points into the emitter's frame
}

void TraceSink::set_site(sim::CtxId ctx, uint32_t site) {
  if (ctx < cur_site_.size()) cur_site_[ctx] = site;
}

void TraceSink::set_lock_name(uint32_t lock, std::string name) {
  lock_names_[lock] = std::move(name);
}

void TraceSink::emit(Event e) {
  switch (e.kind) {
    case EventKind::kTxBegin:
      if (e.site != kNoSite) {
        set_site(e.ctx, e.site);
      } else {
        e.site = cur_site(e.ctx);
      }
      if (e.ctx < open_.size()) {
        if (open_[e.ctx].open) e.flags |= kFlagUnpaired;
        open_[e.ctx] = OpenAttempt{true, e.t};
      }
      ++sites_[e.site].attempts;
      break;
    case EventKind::kTxCommit:
    case EventKind::kTxAbort: {
      e.site = cur_site(e.ctx);
      e.cycles = 0;
      if (e.ctx < open_.size()) {
        OpenAttempt& a = open_[e.ctx];
        if (a.open) {
          a.open = false;
          e.cycles = e.t >= a.begin_t ? e.t - a.begin_t : 0;
        } else {
          e.flags |= kFlagUnpaired;
        }
      }
      SiteAgg& agg = sites_[e.site];
      if (e.kind == EventKind::kTxCommit) {
        ++agg.commits;
        break;
      }
      e.attacker_site = cur_site(e.attacker);
      ++agg.aborts_by_reason[static_cast<size_t>(e.reason)];
      if (e.line != ~0ull) ++agg.conflict_lines[e.line];
      if (e.attributed()) ++agg.attacker_sites[e.attacker_site];
      break;
    }
    case EventKind::kRetry:
      e.site = cur_site(e.ctx);
      if (e.decision) ++sites_[e.site].fallbacks;
      break;
    case EventKind::kEnergy:
      e.ops = e.payload.stats->ops;
      e.commits = e.payload.stats->tx.committed;
      e.aborts = e.payload.stats->tx.aborted();
      break;
    case EventKind::kEvict:
    case EventKind::kLockSection:
    case EventKind::kElideAcquire:
      break;
  }
  if (cap_ && is_ring_kind(e.kind)) push(e);
  if (pmu_) pmu_->on(e);
  if (hub_) hub_->on(e);
}

std::vector<Event> TraceSink::events() const {
  std::vector<Event> out;
  out.reserve(size_);
  if (size_ < cap_) {
    out.assign(ring_, ring_ + size_);
    return out;
  }
  for (size_t i = 0; i < cap_; ++i) {
    out.push_back(ring_[(head_ + i) % cap_]);
  }
  return out;
}

void TraceSink::set_site_name(uint32_t site, std::string name) {
  site_names_[site] = std::move(name);
}

}  // namespace tsx::obs
