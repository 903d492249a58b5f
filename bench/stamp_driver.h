#pragma once
// Shared driver for the STAMP figure/table reproductions (Figs. 10-12,
// Tables IV-V): standard scaled-down inputs per app, and a runner that
// executes an app under a backend/thread-count with fixed *total* work so
// thread counts are comparable.

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "stamp/apps/bayes.h"
#include "stamp/apps/genome.h"
#include "stamp/apps/intruder.h"
#include "stamp/apps/kmeans.h"
#include "stamp/apps/labyrinth.h"
#include "stamp/apps/ssca2.h"
#include "stamp/apps/vacation.h"
#include "stamp/apps/yada.h"

namespace tsx::bench {

// The STAMP inputs are scaled ~10-100x below the paper's "recommended
// large" sets to fit simulator throughput, so the cache hierarchy is scaled
// by 1/8 to preserve the working-set : cache-capacity ratios that drive the
// paper's results (read-capacity aborts for big-working-set apps, write-set
// pressure when hyper-threads halve the effective L1). EXPERIMENTS.md
// discusses this substitution.
inline void scale_machine_for_stamp(sim::MachineConfig& m) {
  m.l1 = sim::CacheGeometry{4 * 1024, 8};     // 64-line write-set bound
  m.l2 = sim::CacheGeometry{32 * 1024, 8};
  m.l3 = sim::CacheGeometry{1024 * 1024, 16}; // 16K-line read-set bound
}

inline core::RunConfig stamp_run_cfg(core::Backend b, uint32_t threads,
                                     uint64_t seed, bool fast) {
  core::RunConfig cfg;
  cfg.backend = b;
  cfg.threads = threads;
  cfg.machine.seed = seed;
  cfg.seed = seed;
  scale_machine_for_stamp(cfg.machine);
  if (fast) cfg.stm.lock_table_entries = 1u << 16;
  // Traced when an ObsLabelScope is active (the app lambdas build their
  // RunConfig here, out of reach of the sweep's per-job label).
  apply_obs(cfg, tls_obs_label());
  // Placement policy: per-cell HeapPolicyScope, else --malloc-policy.
  apply_heap(cfg);
  return cfg;
}

struct StampApp {
  std::string name;
  // Runs the app; total work must be independent of the thread count.
  std::function<stamp::AppResult(core::Backend, uint32_t threads,
                                 uint64_t seed, bool fast)>
      run;
};

// The bench-scale inputs (paper runs the "recommended large" inputs on
// hardware; these are scaled to simulator speed — EXPERIMENTS.md records
// the scaling).
inline std::vector<StampApp> stamp_apps() {
  using core::Backend;
  std::vector<StampApp> apps;

  apps.push_back({"bayes", [](Backend b, uint32_t t, uint64_t seed, bool fast) {
                    stamp::BayesConfig a;
                    a.variables = 24;
                    // Long scoring transactions whose combined read sets
                    // overflow the (scaled) L3, like the paper's bayes:
                    // 24 x 96 KB of statistics stream through a 1 MB L3,
                    // evicting concurrent transactions' read sets.
                    a.stats_words = fast ? 2048 : 20480;
                    a.candidates = fast ? 48 : 80;
                    a.seed = seed;
                    return stamp::run_bayes(stamp_run_cfg(b, t, seed, fast), a);
                  }});
  apps.push_back({"genome", [](Backend b, uint32_t t, uint64_t seed, bool fast) {
                    stamp::GenomeConfig a;
                    a.gene_length = fast ? 1024 : 4096;
                    a.duplication_factor = 3;
                    a.hash_buckets = fast ? 256 : 1024;
                    a.seed = seed;
                    return stamp::run_genome(stamp_run_cfg(b, t, seed, fast), a);
                  }});
  apps.push_back(
      {"intruder", [](Backend b, uint32_t t, uint64_t seed, bool fast) {
         stamp::IntruderConfig a;
         a.flows = fast ? 160 : 512;
         a.max_fragments = 10;
         a.seed = seed;
         return stamp::run_intruder(stamp_run_cfg(b, t, seed, fast), a);
       }});
  apps.push_back({"kmeans", [](Backend b, uint32_t t, uint64_t seed, bool fast) {
                    stamp::KmeansConfig a;
                    a.points = fast ? 1024 : 2048;
                    a.dims = 8;
                    a.clusters = 16;
                    a.iterations = fast ? 2 : 3;
                    a.seed = seed;
                    return stamp::run_kmeans(stamp_run_cfg(b, t, seed, fast), a);
                  }});
  apps.push_back(
      {"labyrinth", [](Backend b, uint32_t t, uint64_t seed, bool fast) {
         stamp::LabyrinthConfig a;
         a.width = fast ? 32 : 48;
         a.height = fast ? 32 : 48;
         a.depth = 2;
         a.paths = fast ? 12 : 24;
         a.seed = seed;
         return stamp::run_labyrinth(stamp_run_cfg(b, t, seed, fast), a);
       }});
  apps.push_back({"ssca2", [](Backend b, uint32_t t, uint64_t seed, bool fast) {
                    stamp::Ssca2Config a;
                    a.vertices = fast ? 2048 : 8192;
                    a.edges = fast ? 8192 : 32768;
                    a.seed = seed;
                    return stamp::run_ssca2(stamp_run_cfg(b, t, seed, fast), a);
                  }});
  apps.push_back(
      {"vacation", [](Backend b, uint32_t t, uint64_t seed, bool fast) {
         stamp::VacationConfig a;
         a.relations = fast ? 512 : 1024;
         a.customers = 256;
         a.sessions_per_thread = (fast ? 800u : 2400u) / t;  // fixed total
         a.seed = seed;
         return stamp::run_vacation(stamp_run_cfg(b, t, seed, fast), a);
       }});
  apps.push_back({"yada", [](Backend b, uint32_t t, uint64_t seed, bool fast) {
                    stamp::YadaConfig a;
                    // Mesh footprint ~2x the scaled L3: streaming misses and
                    // in-transaction read evictions, like the paper's yada.
                    a.elements = fast ? 4096 : 12288;
                    a.max_refinements = fast ? 300 : 1000;
                    a.seed = seed;
                    return stamp::run_yada(stamp_run_cfg(b, t, seed, fast), a);
                  }});
  return apps;
}

struct StampCell {
  double norm_time = 0;    // vs sequential (non-TM) 1-thread run
  double norm_energy = 0;  // vs sequential energy
  double wasted_share = 0; // share of active energy spent in aborted work
  stamp::AppResult result;
};

// One rep of one (app, backend, threads) cell: the backend run plus its
// SEQ/1-thread baseline with the same seed. Each call owns two fresh
// TxRuntime instances, so reps can run concurrently on host threads.
struct StampRep {
  double norm_time = 0;
  double norm_energy = 0;
  double wasted_share = 0;
  stamp::AppResult result;
};

inline StampRep stamp_rep(const StampApp& app, core::Backend backend,
                          uint32_t threads, bool fast, uint64_t seed,
                          const std::string& obs_label = "") {
  auto seq = app.run(core::Backend::kSeq, 1, seed, fast);
  ObsLabelScope obs_scope(obs_label);  // SEQ baseline above stays untraced
  auto run = app.run(backend, threads, seed, fast);
  if (!seq.valid) {
    throw std::runtime_error(app.name + " SEQ invalid: " +
                             seq.validation_message);
  }
  if (!run.valid) {
    throw std::runtime_error(app.name + " invalid: " + run.validation_message);
  }
  StampRep r;
  r.norm_time = static_cast<double>(run.report.wall_cycles) /
                static_cast<double>(seq.report.wall_cycles);
  r.norm_energy = run.report.joules() / seq.report.joules();
  r.wasted_share = run.report.energy_split().wasted_share();
  r.result = run;
  return r;
}

// One cell of a STAMP figure's sweep grid.
struct StampTask {
  StampApp app;
  core::Backend backend = core::Backend::kRtm;
  uint32_t threads = 1;
  uint64_t seed0 = 9000;
};

// Computes every task (x reps) through the parallel sweep harness; returns
// one averaged StampCell per task, in task order. Per-task aggregation runs
// in rep order, so output is byte-identical for any --jobs value.
inline std::vector<StampCell> stamp_cells(const std::string& bench_id,
                                          const std::vector<StampTask>& tasks,
                                          const BenchArgs& args) {
  const size_t reps = static_cast<size_t>(args.reps);
  harness::Digest dig;
  dig.add(static_cast<uint64_t>(reps));
  dig.add(static_cast<uint64_t>(args.fast));
  for (const StampTask& t : tasks) {
    dig.add(t.app.name);
    dig.add(static_cast<uint64_t>(t.backend));
    dig.add(t.threads);
    dig.add(t.seed0);
  }

  // One label per job, shared between the manifest and the trace capture
  // (the registry drains sorted by label — exporter output is identical
  // for any --jobs value).
  auto label_of = [&](size_t i) {
    const StampTask& t = tasks[i / reps];
    return bench_id + ":" + t.app.name + ":" +
           core::backend_name(t.backend) + ":" + std::to_string(t.threads) +
           "t:rep" + std::to_string(i % reps);
  };

  harness::Runner runner(runner_options(args, bench_id, dig.value()));
  std::vector<StampRep> samples = runner.map<StampRep>(
      tasks.size() * reps,
      [&](size_t i) {
        const StampTask& t = tasks[i / reps];
        return stamp_rep(t.app, t.backend, t.threads, args.fast,
                         t.seed0 + i % reps, label_of(i));
      },
      [&](size_t i) {
        const StampTask& t = tasks[i / reps];
        harness::Job j;
        j.seed = t.seed0 + i % reps;
        j.label = label_of(i);
        return j;
      });

  std::vector<StampCell> out(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    std::vector<double> nt, ne, ws;
    for (size_t rep = 0; rep < reps; ++rep) {
      const StampRep& r = samples[t * reps + rep];
      nt.push_back(r.norm_time);
      ne.push_back(r.norm_energy);
      ws.push_back(r.wasted_share);
      out[t].result = r.result;
    }
    out[t].norm_time = util::mean(nt);
    out[t].norm_energy = util::mean(ne);
    out[t].wasted_share = util::mean(ws);
  }
  return out;
}

}  // namespace tsx::bench
