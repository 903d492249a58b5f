#include "stamp/apps/genome.h"

#include <vector>

#include "sim/rng.h"
#include "stamp/lib/hashtable.h"
#include "stamp/lib/rbtree.h"

namespace tsx::stamp {

AppResult run_genome(const core::RunConfig& run_cfg, const GenomeConfig& app) {
  core::TxRuntime rt(run_cfg);
  uint32_t n = run_cfg.threads;
  const uint64_t G = app.gene_length;

  // Host setup: a shuffled stream of segment starts, each appearing
  // `duplication_factor` times (every segment is guaranteed present, as in
  // STAMP's generated inputs).
  sim::Rng rng(app.seed);
  std::vector<uint64_t> stream;
  stream.reserve(G * app.duplication_factor);
  for (uint32_t d = 0; d < app.duplication_factor; ++d) {
    for (uint64_t s = 0; s < G; ++s) stream.push_back(s);
  }
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.below(i)]);
  }

  HashTable unique = HashTable::create_host(rt, app.hash_buckets);
  RbTree assembled = RbTree::create_host(rt);

  rt.run([&](core::TxCtx& ctx) {
    uint32_t t = ctx.id();

    measured_region_begin(ctx);

    // ---- Phase 1: de-duplication ----
    uint64_t lo = stream.size() * t / n;
    uint64_t hi = stream.size() * (t + 1) / n;
    for (uint64_t i = lo; i < hi; ++i) {
      uint64_t seg = stream[i];
      ctx.transaction([&] { unique.insert(ctx, seg + 1, seg); }, /*site=*/1);
      ctx.compute(60);  // segment parsing outside the transaction
    }
    ctx.barrier();

    // ---- Phase 2: assembly ----
    // Buckets are read-only now; each thread walks its share of chains
    // non-transactionally and inserts the segments into the shared tree.
    sim::Word nb = unique.bucket_count(ctx);
    for (sim::Word b = t; b < nb; b += n) {
      sim::Addr cur = unique.bucket_head(ctx, b);
      while (cur != 0) {
        sim::Word key = unique.node_key(ctx, cur);
        ctx.transaction([&] { assembled.insert(ctx, key, key - 1); },
                        /*site=*/2);
        cur = unique.node_next(ctx, cur);
      }
    }
  });

  AppResult res;
  res.report = rt.report();
  res.work_items = stream.size();

  // Validation: the assembled tree is exactly 1..G in order.
  if (unique.host_items(rt).size() != G) {
    res.validation_message = "dedup size != gene length";
    return res;
  }
  auto items = assembled.host_items(rt);
  if (items.size() != G) {
    res.validation_message = "assembled " + std::to_string(items.size()) +
                             " segments, expected " + std::to_string(G);
    return res;
  }
  for (uint64_t i = 0; i < G; ++i) {
    if (items[i].first != i + 1 || items[i].second != i) {
      res.validation_message = "gene broken at position " + std::to_string(i);
      return res;
    }
  }
  std::string why;
  if (!assembled.host_validate(rt, &why)) {
    res.validation_message = "tree invariant: " + why;
    return res;
  }
  res.valid = true;
  res.validation_message = "ok";
  return res;
}

}  // namespace tsx::stamp
