#include "obs/registry.h"

#include <algorithm>

namespace tsx::obs {

Capture make_capture(const TraceSink& sink, std::string label, double freq_ghz,
                     uint32_t threads, std::optional<PmuData> pmu,
                     std::optional<MetricsData> metrics) {
  Capture c;
  c.label = std::move(label);
  c.freq_ghz = freq_ghz;
  c.threads = threads;
  c.events = sink.events();
  c.dropped = sink.dropped();
  c.sites = sink.sites();
  c.site_names = sink.site_names();
  c.pmu = std::move(pmu);
  c.metrics = std::move(metrics);
  if (c.pmu) {
    std::map<uint32_t, ElideLockCounters> rows;
    for (ElideLockCounters& e : c.pmu->elide) rows[e.lock] = std::move(e);
    for (const auto& [id, name] : sink.lock_names()) {
      rows[id].lock = id;
      rows[id].name = name;
    }
    c.pmu->elide.clear();
    for (auto& [id, e] : rows) {
      if (e.name.empty()) e.name = "lock#" + std::to_string(id);
      c.pmu->elide.push_back(std::move(e));
    }
  }
  if (c.metrics) c.metrics->lock_names = sink.lock_names();
  return c;
}

std::string site_name(const Capture& c, uint32_t site) {
  auto it = c.site_names.find(site);
  if (it != c.site_names.end()) return it->second;
  if (site == kNoSite) return "(none)";
  return "site#" + std::to_string(site);
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

void Registry::add(Capture c) {
  std::lock_guard<std::mutex> lock(mu_);
  captures_.push_back(std::move(c));
}

std::vector<Capture> Registry::drain() {
  std::vector<Capture> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(captures_);
  }
  std::sort(out.begin(), out.end(),
            [](const Capture& a, const Capture& b) { return a.label < b.label; });
  return out;
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captures_.size();
}

namespace {

struct Fnv {
  uint64_t h = 14695981039346656037ull;
  void add(uint64_t v) {
    for (size_t i = 0; i < sizeof(v); ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    add(static_cast<uint64_t>(s.size()));
  }
};

}  // namespace

uint64_t Registry::counter_digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Capture*> sorted;
  sorted.reserve(captures_.size());
  for (const Capture& c : captures_) sorted.push_back(&c);
  std::sort(sorted.begin(), sorted.end(),
            [](const Capture* a, const Capture* b) { return a->label < b->label; });
  Fnv f;
  for (const Capture* c : sorted) {
    f.add(c->label);
    if (!c->pmu) continue;
    const PmuData& d = *c->pmu;
    f.add(d.wall);
    for (const PerfCounter& pc : d.counters) f.add(pc.value);
    f.add(d.split.committed);
    f.add(d.split.wasted);
    f.add(d.split.non_tx);
    f.add(d.split.idle);
    f.add(static_cast<uint64_t>(d.samples.size()));
    for (const PmuSample& s : d.samples) {
      f.add(s.t);
      f.add(s.tx_commits);
      f.add(s.tx_aborts);
    }
    f.add(static_cast<uint64_t>(d.elide.size()));
    for (const ElideLockCounters& e : d.elide) {
      f.add(e.name);
      f.add(e.acquisitions);
      f.add(e.attempts);
      f.add(e.elided);
      f.add(e.fallbacks);
      f.add(e.lock_acquires);
      f.add(e.self_stops);
      f.add(e.cycles_elided);
      f.add(e.cycles_wasted);
    }
    if (d.heap.present) {
      f.add(d.heap.policy);
      f.add(d.heap.allocs);
      f.add(d.heap.frees);
      f.add(d.heap.refills);
      f.add(d.heap.bytes_live);
      f.add(d.heap.bytes_peak);
      f.add(d.heap.bytes_padding);
      f.add(static_cast<uint64_t>(d.heap.set_allocs.size()));
      for (uint64_t v : d.heap.set_allocs) f.add(v);
    }
  }
  return f.h;
}

std::optional<uint64_t> Registry::metrics_digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Capture*> sorted;
  sorted.reserve(captures_.size());
  for (const Capture& c : captures_) {
    if (c.metrics) sorted.push_back(&c);
  }
  if (sorted.empty()) return std::nullopt;
  std::sort(sorted.begin(), sorted.end(),
            [](const Capture* a, const Capture* b) { return a->label < b->label; });
  Fnv f;
  for (const Capture* c : sorted) {
    f.add(c->label);
    const MetricsData& m = *c->metrics;
    f.add(m.window_cycles);
    f.add(static_cast<uint64_t>(m.windows.size()));
    for (const MetricsWindow& w : m.windows) {
      f.add(w.start);
      f.add(w.hw_starts);
      f.add(w.hw_commits);
      f.add(w.hw_aborts);
      for (uint64_t v : w.aborts_by_misc) f.add(v);
      for (uint64_t v : w.aborts_by_reason) f.add(v);
      f.add(w.stm_starts);
      f.add(w.stm_commits);
      f.add(w.stm_aborts);
      f.add(w.fallbacks);
      f.add(w.lock_sections);
      f.add(w.lock_section_cycles);
      f.add(w.committed_cycles);
      f.add(w.wasted_cycles);
      f.add(static_cast<uint64_t>(w.elide.size()));
      for (const auto& [id, e] : w.elide) {
        f.add(id);
        f.add(e.acquisitions);
        f.add(e.elided);
        f.add(e.fallbacks);
        f.add(e.cycles_elided);
        f.add(e.cycles_wasted);
      }
    }
    f.add(static_cast<uint64_t>(m.phases.size()));
    for (const PhaseEvent& e : m.phases) {
      f.add(e.window);
      f.add(e.t);
      f.add(static_cast<uint64_t>(e.channel));
      f.add(static_cast<uint64_t>(static_cast<int64_t>(e.direction)));
    }
    f.add(static_cast<uint64_t>(m.flame.size()));
    for (const auto& [victim, edges] : m.flame) {
      f.add(victim);
      f.add(static_cast<uint64_t>(edges.size()));
      for (const auto& [key, cycles] : edges) {
        f.add(key);
        f.add(cycles);
      }
    }
  }
  return f.h;
}

std::vector<ElideLockCounters> Registry::elide_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Keyed by lock name: each sweep cell owns its runtime, so the "same"
  // lock recurs across captures under one name with fresh ids.
  std::map<std::string, ElideLockCounters> by_name;
  for (const Capture& c : captures_) {
    if (!c.pmu) continue;
    for (const ElideLockCounters& e : c.pmu->elide) {
      ElideLockCounters& t = by_name[e.name];
      t.name = e.name;
      t.acquisitions += e.acquisitions;
      t.attempts += e.attempts;
      t.elided += e.elided;
      t.fallbacks += e.fallbacks;
      t.lock_acquires += e.lock_acquires;
      t.self_stops += e.self_stops;
      t.cycles_elided += e.cycles_elided;
      t.cycles_wasted += e.cycles_wasted;
    }
  }
  std::vector<ElideLockCounters> out;
  out.reserve(by_name.size());
  for (auto& [name, e] : by_name) out.push_back(std::move(e));
  return out;
}

HeapPmuCounters Registry::heap_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Iterate label-sorted (like counter_digest) so the "first" policy and
  // the summed counters are --jobs-invariant.
  std::vector<const Capture*> sorted;
  sorted.reserve(captures_.size());
  for (const Capture& c : captures_) sorted.push_back(&c);
  std::sort(sorted.begin(), sorted.end(),
            [](const Capture* a, const Capture* b) { return a->label < b->label; });
  HeapPmuCounters t;
  for (const Capture* c : sorted) {
    if (!c->pmu || !c->pmu->heap.present) continue;
    const HeapPmuCounters& h = c->pmu->heap;
    if (!t.present) t.policy = h.policy;
    t.present = true;
    t.allocs += h.allocs;
    t.frees += h.frees;
    t.refills += h.refills;
    t.bytes_live += h.bytes_live;
    t.bytes_peak += h.bytes_peak;
    t.bytes_padding += h.bytes_padding;
    if (t.set_allocs.size() < h.set_allocs.size()) {
      t.set_allocs.resize(h.set_allocs.size(), 0);
    }
    for (size_t i = 0; i < h.set_allocs.size(); ++i) {
      t.set_allocs[i] += h.set_allocs[i];
    }
  }
  return t;
}

}  // namespace tsx::obs
