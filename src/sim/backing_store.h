#pragma once
// Paged word-granular backing store for the simulated physical address space,
// plus the page-table "present" bits used for the minor-fault model.
//
// Values live here exclusively; caches model timing/presence only. Pages are
// materialized lazily (zero-filled). A page starts *not present*: the first
// access from simulated code raises a minor fault (serviced in non-tx mode,
// aborting any enclosing hardware transaction — the behaviour behind the
// paper's misc3 aborts in vacation).
//
// Hot-path layout (DESIGN.md §10): the page directory is an open-addressed
// util::FlatTable keyed by page number, fronted by a one-entry last-page
// cache. Pages are heap-allocated (unique_ptr slots), so a cached Page* stays
// valid across table growth, and pages are never freed — the cache needs no
// invalidation. peek/poke/present are inline: the common case is a cache hit
// followed by a single indexed load/store.

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "sim/types.h"
#include "util/flat_table.h"

namespace tsx::sim {

class BackingStore {
 public:
  struct Page {
    bool present = false;
    std::array<Word, kWordsPerPage> words{};
  };

  // Host-side value access (no timing, no faults). Used by the machine for
  // the actual data movement and by tests/validators for inspection.
  Word peek(Addr addr) const {
    if (addr % kWordBytes != 0) throw std::invalid_argument("unaligned peek");
    const Page* p = lookup(addr);
    if (!p) return 0;
    return p->words[(addr % kPageBytes) / kWordBytes];
  }

  void poke(Addr addr, Word value) {
    if (addr % kWordBytes != 0) throw std::invalid_argument("unaligned poke");
    page_for(addr).words[(addr % kPageBytes) / kWordBytes] = value;
  }

  bool present(Addr addr) const {
    const Page* p = lookup(addr);
    return p && p->present;
  }

  void make_present(Addr addr);

  // Marks [addr, addr+bytes) present without cost: models memory that was
  // touched before the measured region (or by a pre-faulting allocator).
  void prefault(Addr addr, uint64_t bytes);

  // Hot-path lookup: materialized page holding addr, or null. One compare on
  // the last-page cache; the table probe is the cold continuation.
  Page* lookup(Addr addr) const {
    uint64_t pno = page_of(addr);
    if (pno == cache_no_) return cache_page_;
    return lookup_slow(pno);
  }

  // Hot-path lookup that returns only *present* pages. The last-page cache
  // is filled exclusively with present pages (and presence is permanent), so
  // a cache hit needs no present check — the fast paths' common case is the
  // single compare.
  Page* lookup_present(Addr addr) const {
    uint64_t pno = page_of(addr);
    if (pno == cache_no_) return cache_page_;
    Page* p = lookup_slow(pno);
    return (p && p->present) ? p : nullptr;
  }

 private:
  Page& page_for(Addr addr) {
    if (Page* p = lookup(addr)) return *p;
    return materialize(page_of(addr));
  }

  Page* lookup_slow(uint64_t pno) const;
  Page& materialize(uint64_t pno);

  mutable util::FlatTable<std::unique_ptr<Page>> pages_;
  // Last-page cache, holding only *present* pages; valid whenever
  // cache_no_ != kNoPage (pages are never freed and never lose presence, so
  // a cached pointer cannot dangle and a cached page cannot fault).
  static constexpr uint64_t kNoPage = ~uint64_t{0};
  mutable uint64_t cache_no_ = kNoPage;
  mutable Page* cache_page_ = nullptr;
};

}  // namespace tsx::sim
