// tsxlab_perfbench: the benchmark binary behind perfbench/run.py.
//
// Runs one workload (stamp, eigen or server) on one host thread through the
// public entry points the bench drivers use (stamp_apps()[i].run,
// eigenbench::run, and the server services behind server::run_server_rep),
// checks every cell's output, and prints host-side and modelled metrics as
// JSON on the last stdout line.
//
// A pass is the workload's fixed grid of cells, run on one of the run's four
// input sets. The binary repeats passes until --seconds is used up (at least
// one per input set) and reports medians over passes; a pass that repeats an
// input set must reproduce its simulated-counter digest. With --trace 1 it also
// runs the layer probes (timed loops over single public hot functions),
// alternates untraced and traced passes, records spans around every call it
// makes into a layer, writes the spans to --spans FILE at exit, and reports
// the per-layer metrics instead of the end-to-end ones.
//
// Usage: tsxlab_perfbench --workload stamp|eigen|server --seed N
//          --seconds S --trace 0|1 [--setup-only] [--spans FILE]
// --setup-only stops after set-up (run.py times set-up several times).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/eigen_driver.h"
#include "bench/server/server_driver.h"
#include "bench/stamp_driver.h"
#include "elide/elide.h"
#include "htm/rtm.h"
#include "mem/layout.h"
#include "sim/backing_store.h"
#include "sim/fiber.h"
#include "sync/spinlock.h"

namespace {

using namespace tsx;
using core::Backend;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process system CPU seconds so far.
double sys_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between order statistics (numpy's default).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent. Kept in memory, written out at exit.

class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  void enable(bool on) { on_ = on; }

  int open(const std::string& name) {
    if (!on_) return -1;
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_s(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  const std::vector<Span>& all() const { return spans_; }
  size_t size() const { return spans_.size(); }

  // Span duration minus the time its direct children cover (children are
  // strictly nested and sequential: one host thread).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "perfbench: cannot write spans to '" << path << "'\n";
      return;
    }
    double t0 = spans_.empty() ? 0 : spans_.front().start;
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.9f, \"end_s\": %.9f, \"parent\": %d}",
                    s.start - t0, s.end - t0, s.parent);
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_s\": " << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Spans g_spans;

class SpanScope {
 public:
  explicit SpanScope(const std::string& name) : id_(g_spans.open(name)) {}
  ~SpanScope() { g_spans.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Cells

// What one cell hands back: its check outcome, the modelled results, and the
// layer counters (all simulated, hence exactly repeatable for a seed).
struct CellOut {
  bool ok = true;
  std::string error;
  sim::Cycles cycles = 0;  // measured-region simulated cycles
  double joules = 0;
  sim::MachineStats machine;
  uint64_t htm_fallbacks = 0;
  double htm_useful_cycles = 0, htm_wasted_cycles = 0;
  uint64_t stm_starts = 0, stm_commits = 0, stm_extensions = 0;
  double stm_useful_cycles = 0, stm_wasted_cycles = 0;
  uint64_t heap_allocs = 0, heap_refills = 0, heap_bytes_peak = 0;
  uint64_t elide_attempts = 0, elide_elided = 0, elide_fallbacks = 0;
  std::vector<uint64_t> latency;  // server: request cycles from arrival
  uint64_t digest = 0;
};

struct CellSpec {
  std::string name;  // unique within the workload; server cells' obs label
  std::string span;  // layer span, e.g. "stamp.run.bayes"
  Backend backend = Backend::kSeq;
  uint32_t threads = 1;
  std::function<CellOut()> run;
};

void add_machine(harness::Digest& d, const sim::MachineStats& m) {
  const sim::MemStats& s = m.mem;
  for (uint64_t v : {s.loads, s.l1_hits, s.stores, s.l2_hits, s.l3_hits,
                     s.mem_accesses, s.c2c_transfers, s.invalidations,
                     s.writebacks, s.page_faults}) {
    d.add(v);
  }
  d.add(m.tx.started);
  d.add(m.tx.committed);
  for (uint64_t v : m.tx.aborts_by_reason) d.add(v);
  for (uint64_t v : m.tx.aborts_by_misc) d.add(v);
  d.add(m.ops);
  d.add(m.interrupts);
  d.add(m.core_busy_cycles);
}

void add_rtm(harness::Digest& d, const htm::RtmStats& r) {
  for (uint64_t v : {r.transactions, r.attempts, r.commits, r.fallbacks,
                     r.cycles_committed, r.cycles_aborted, r.cycles_fallback}) {
    d.add(v);
  }
  for (uint64_t v : r.aborts_by_class) d.add(v);
  for (uint64_t v : r.aborts_by_reason) d.add(v);
}

void add_heap(harness::Digest& d, const mem::HeapStats& h) {
  for (uint64_t v : {h.allocs, h.frees, h.refills, h.bytes_live, h.bytes_peak,
                     h.bytes_padding}) {
    d.add(v);
  }
  for (uint64_t v : h.set_allocs) d.add(v);
}

// Every simulated counter of a RunReport, in a fixed order.
uint64_t report_digest(const core::RunReport& r) {
  harness::Digest d;
  d.add(r.wall_cycles);
  d.add(r.seconds);
  d.add(r.energy.dynamic_j);
  d.add(r.energy.core_active_j);
  d.add(r.energy.package_idle_j);
  add_machine(d, r.machine);
  add_rtm(d, r.rtm);
  for (uint64_t v : {r.stm.transactions, r.stm.starts, r.stm.commits,
                     r.stm.extensions, r.stm.cycles_committed,
                     r.stm.cycles_aborted}) {
    d.add(v);
  }
  for (uint64_t v : r.stm.aborts_by_cause) d.add(v);
  add_heap(d, r.heap);
  d.add(static_cast<uint64_t>(r.heap_policy));
  for (const auto& [site, st] : r.rtm_sites) {
    d.add(site);
    add_rtm(d, st);
  }
  return d.value();
}

CellOut from_report(const core::RunReport& r) {
  CellOut o;
  o.cycles = r.wall_cycles;
  o.joules = r.joules();
  o.machine = r.machine;
  o.htm_fallbacks = r.rtm.fallbacks;
  o.htm_useful_cycles = static_cast<double>(r.rtm.cycles_committed);
  o.htm_wasted_cycles = static_cast<double>(r.rtm.cycles_aborted);
  o.stm_starts = r.stm.starts;
  o.stm_commits = r.stm.commits;
  o.stm_extensions = r.stm.extensions;
  o.stm_useful_cycles = static_cast<double>(r.stm.cycles_committed);
  o.stm_wasted_cycles = static_cast<double>(r.stm.cycles_aborted);
  o.heap_allocs = r.heap.allocs;
  o.heap_refills = r.heap.refills;
  o.heap_bytes_peak = r.heap.bytes_peak;
  o.digest = report_digest(r);
  return o;
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::vector<CellSpec> cells;
  bool obs = false;  // server: captures drained and exported every pass
  // The runtime config a cell of this backend and thread count runs with.
  std::function<core::RunConfig(Backend, uint32_t)> config;
};

const std::vector<Backend> kLatencyBackends = {Backend::kRtm, Backend::kTinyStm,
                                               Backend::kHybrid, Backend::kLock};

// stamp: the 8 apps at the --fast inputs and the STAMP-scaled caches. Per
// app: the SEQ 1-thread baseline, RTM and TinySTM at 1 and 4 threads, and
// Hybrid and Lock at 4 threads (the four backends of the latency panel).
Workload make_stamp(uint64_t unit) {
  const uint64_t s = 9000 + unit;
  Workload w{"stamp", {}, false, [s](Backend b, uint32_t t) {
               return bench::stamp_run_cfg(b, t, s, /*fast=*/true);
             }};
  for (const bench::StampApp& app : bench::stamp_apps()) {
    struct Shape {
      Backend b;
      uint32_t t;
    };
    const Shape shapes[] = {{Backend::kSeq, 1},     {Backend::kRtm, 1},
                            {Backend::kRtm, 4},     {Backend::kTinyStm, 1},
                            {Backend::kTinyStm, 4}, {Backend::kHybrid, 4},
                            {Backend::kLock, 4}};
    for (const Shape& sh : shapes) {
      CellSpec c;
      c.name = app.name + ":" + core::backend_name(sh.b) + ":" +
               std::to_string(sh.t) + "t";
      c.span = "stamp.run." + app.name;
      c.backend = sh.b;
      c.threads = sh.t;
      c.run = [app, sh, s] {
        stamp::AppResult r = app.run(sh.b, sh.t, s, /*fast=*/true);
        SpanScope check("check.validate");
        CellOut o = from_report(r.report);
        o.ok = r.valid;
        o.error = r.validation_message;
        return o;
      };
      w.cells.push_back(std::move(c));
    }
  }
  return w;
}

// eigen: Eigenbench points along transaction length/working set and along
// contention, at the default (unscaled) caches. Per point: the SEQ 1-thread
// baseline, RTM and TinySTM at 1 and 4 threads, Hybrid and Lock at 4
// threads. Every cell runs with verify_increments, so each write bumps its
// word and the arrays must sum to the number of writes performed.
Workload make_eigen(uint64_t unit) {
  const uint64_t s = 7000 + unit;
  Workload w{"eigen", {}, false, [s](Backend b, uint32_t t) {
               return bench::eigen_run_cfg(b, t, s);
             }};
  struct Point {
    const char* name;
    uint32_t reads_mild, writes_mild;
    uint64_t ws_bytes;
    uint32_t reads_hot, writes_hot;
    uint64_t hot_bytes;
    uint64_t loops;
  };
  const Point points[] = {
      {"short", 9, 1, 16 * 1024, 0, 0, 64 * 1024, 1600},
      {"paper", 90, 10, 16 * 1024, 0, 0, 64 * 1024, 240},
      {"long", 360, 40, 16 * 1024, 0, 0, 64 * 1024, 60},
      {"ws256k", 90, 10, 256 * 1024, 0, 0, 64 * 1024, 240},
      {"hot-low", 45, 5, 16 * 1024, 8, 2, 64 * 1024, 800},
      {"hot-high", 45, 5, 16 * 1024, 8, 2, 2 * 1024, 1200},
  };
  const struct {
    Backend b;
    uint32_t t;
  } shapes[] = {{Backend::kSeq, 1},     {Backend::kRtm, 1},
                {Backend::kRtm, 4},     {Backend::kTinyStm, 1},
                {Backend::kTinyStm, 4}, {Backend::kHybrid, 4},
                {Backend::kLock, 4}};
  for (const Point& p : points) {
    eigenbench::EigenConfig eb;
    eb.loops = p.loops;
    eb.reads_mild = p.reads_mild;
    eb.writes_mild = p.writes_mild;
    eb.ws_bytes = p.ws_bytes;
    eb.reads_hot = p.reads_hot;
    eb.writes_hot = p.writes_hot;
    eb.hot_bytes = p.hot_bytes;
    eb.verify_increments = true;
    for (const auto& sh : shapes) {
      CellSpec c;
      c.name = std::string(p.name) + ":" + core::backend_name(sh.b) + ":" +
               std::to_string(sh.t) + "t";
      c.span = "eigenbench.run";
      c.backend = sh.b;
      c.threads = sh.t;
      const Backend b = sh.b;
      const uint32_t t = sh.t;
      c.run = [eb, b, t, s] {
        eigenbench::EigenResult r =
            eigenbench::run(bench::eigen_run_cfg(b, t, s), eb);
        SpanScope check("check.validate");
        CellOut o = from_report(r.report);
        if (r.increment_sum != r.total_writes) {
          o.ok = false;
          o.error = "increment total " + std::to_string(r.increment_sum) +
                    " != writes " + std::to_string(r.total_writes);
        }
        return o;
      };
      w.cells.push_back(std::move(c));
    }
  }
  return w;
}

// server: kv, orderbook and inventory at the drivers' full scale (3 x 1200
// requests per worker, 4 workers), x {RTM, TinySTM, Hybrid, Lock} x 2 reps,
// with the obs plane on (PMU, metrics hub, abort report; exported every
// pass). Unlike the drivers, each rep draws its own request schedule, so a
// pass samples two independent traffic traces per service.
struct ServerSvc {
  bench::server::ServiceKind kind;
  uint64_t interarrival;
  double write_ratio;
};

const ServerSvc kServices[] = {
    {bench::server::ServiceKind::kKv, 1600, 0.10},
    {bench::server::ServiceKind::kOrderBook, 1400, 0.45},
    {bench::server::ServiceKind::kInventory, 1400, 0.15},
};
constexpr uint64_t kServerRequestsPerPhase = 1200;
constexpr uint64_t kServerReps = 2;

bench::server::TrafficConfig server_traffic(const ServerSvc& svc,
                                            uint64_t unit, uint64_t rep) {
  bench::server::TrafficConfig t;
  t.mean_interarrival = svc.interarrival;
  t.seed = 9100 + 100 * static_cast<uint64_t>(svc.kind) +
           7919 * (unit * kServerReps + rep);
  t.phases = bench::server::default_phases(kServerRequestsPerPhase,
                                           svc.write_ratio);
  return t;
}

using Schedules = std::vector<std::vector<bench::server::Request>>;

// One open-loop server cell: server::run_server_rep's loop (same runtime
// config, service, schedule and arrival discipline), except that it keeps
// every request's latency. run_server_rep folds latencies into a log2
// histogram, whose p99 moves by up to 2x with the seed when the tail sits
// near a bucket edge; exact samples keep the p99 steady across seeds.
CellOut serve(bench::server::ServiceKind kind, Backend backend,
              const bench::server::TrafficConfig& traffic,
              const Schedules& sched, const std::string& label) {
  core::RunConfig cfg =
      bench::server::server_run_cfg(backend, traffic, traffic.seed);
  bench::apply_obs(cfg, label);
  core::TxRuntime rt(cfg);
  std::unique_ptr<bench::server::Service> svc =
      bench::server::make_service(kind, rt, traffic);
  std::vector<std::vector<uint64_t>> lat(traffic.threads);
  rt.run([&](core::TxCtx& ctx) {
    const uint32_t w = ctx.id();
    if (w == 0) svc->init(ctx);
    ctx.barrier();
    if (w == 0) ctx.runtime().mark_measurement_start();
    ctx.barrier();
    const sim::Cycles start = ctx.now();
    lat[w].reserve(sched[w].size());
    for (const bench::server::Request& r : sched[w]) {
      const sim::Cycles due = start + r.arrival;
      const sim::Cycles now = ctx.now();
      if (now < due) ctx.compute(due - now);  // open loop: idle until due
      svc->handle(ctx, w, r);
      lat[w].push_back(ctx.now() - due);
    }
    ctx.barrier();
    if (w == 0) svc->verify(ctx);
  });
  SpanScope check("check.validate");
  CellOut o = from_report(rt.report());
  uint64_t offered = 0;
  for (uint32_t w = 0; w < traffic.threads; ++w) {
    offered += sched[w].size();
    o.latency.insert(o.latency.end(), lat[w].begin(), lat[w].end());
  }
  const elide::ElideStats es = svc->elide_totals();
  o.elide_attempts = es.attempts;
  o.elide_elided = es.elided;
  o.elide_fallbacks = es.fallbacks;
  if (!svc->ok()) {
    o.ok = false;
    o.error = svc->error();
  } else if (o.latency.size() != offered) {
    o.ok = false;
    o.error = "completed " + std::to_string(o.latency.size()) + " of " +
              std::to_string(offered) + " offered";
  }
  harness::Digest d;
  d.add(o.digest);
  for (uint64_t v : o.latency) d.add(v);
  for (uint64_t v : {es.acquisitions, es.attempts, es.elided, es.fallbacks,
                     es.self_stops, svc->misses()}) {
    d.add(v);
  }
  o.digest = d.value();
  return o;
}

Workload make_server(uint64_t unit) {
  Workload w{"server", {}, true, [unit](Backend b, uint32_t) {
               bench::server::TrafficConfig t =
                   server_traffic(kServices[0], unit, 0);
               return bench::server::server_run_cfg(b, t, t.seed);
             }};
  for (const ServerSvc& svc : kServices) {
    const std::string svc_name = bench::server::service_name(svc.kind);
    for (uint64_t rep = 0; rep < kServerReps; ++rep) {
      const bench::server::TrafficConfig traffic =
          server_traffic(svc, unit, rep);
      // Input generation happens at set-up: every worker's schedule.
      auto sched = std::make_shared<Schedules>();
      for (uint32_t wk = 0; wk < traffic.threads; ++wk) {
        sched->push_back(bench::server::make_schedule(traffic, wk));
      }
      for (Backend b : kLatencyBackends) {
        CellSpec c;
        c.name = "perfbench:" + svc_name + ":" + core::backend_name(b) +
                 ":rep" + std::to_string(rep);
        c.span = "server.run." + svc_name;
        c.backend = b;
        c.threads = traffic.threads;
        const bench::server::ServiceKind kind = svc.kind;
        c.run = [kind, b, traffic, sched, label = c.name] {
          return serve(kind, b, traffic, *sched, label);
        };
        w.cells.push_back(std::move(c));
      }
    }
  }
  return w;
}

// Each run measures kSubSeeds distinct input sets of its workload, one per
// pass, so the modelled metrics average over more inputs than one pass can
// hold. unit = seed * kSubSeeds + sub is the input seed of one pass.
constexpr uint32_t kSubSeeds = 4;

uint64_t input_unit(uint64_t seed, uint32_t sub) {
  return seed * kSubSeeds + sub;
}

Workload make_workload(const std::string& name, uint64_t unit) {
  if (name == "stamp") return make_stamp(unit);
  if (name == "eigen") return make_eigen(unit);
  if (name == "server") return make_server(unit);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (stamp, eigen or server)");
}

// ---------------------------------------------------------------------------
// One pass over the workload's cells.

// The exporters' destination: counts the bytes written and drops them, so
// the export costs its formatting but not a buffer that grows with it.
class ByteCounter : public std::streambuf {
 public:
  uint64_t count() const { return n_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++n_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    n_ += static_cast<uint64_t>(n);
    return n;
  }

 private:
  uint64_t n_ = 0;
};

struct PassOut {
  double wall_s = 0;
  double sys_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
  std::vector<CellOut> cells;
  uint64_t export_bytes = 0;
};

PassOut run_pass(const Workload& w) {
  PassOut out;
  const double sys0 = sys_seconds();
  double t0 = now_s();
  {
    SpanScope pass("bench.pass");
    harness::RunnerOptions opt;
    opt.jobs = 1;
    opt.bench_id = "perfbench_" + w.name;
    opt.quiet = true;
    harness::Runner runner(opt);
    {
      SpanScope map("harness.map");
      out.cells = runner.map<CellOut>(
          w.cells.size(),
          [&](size_t i) {
            SpanScope cell(w.cells[i].span);
            try {
              return w.cells[i].run();
            } catch (const std::exception& e) {
              CellOut o;
              o.ok = false;
              o.error = e.what();
              return o;
            }
          },
          [&](size_t i) {
            harness::Job j;
            j.label = w.cells[i].name;
            return j;
          });
    }
    if (w.obs) {
      SpanScope exp("obs.export");
      std::vector<obs::Capture> caps = obs::Registry::global().drain();
      ByteCounter bytes;
      std::ostream os(&bytes);
      obs::write_abort_report(os, caps);
      obs::write_perf_stat(os, caps);
      obs::write_openmetrics(os, caps);
      obs::write_flamegraph(os, caps);
      out.export_bytes = bytes.count();
    }
    SpanScope check("check.validate");
    harness::Digest d;
    for (size_t i = 0; i < out.cells.size(); ++i) {
      const CellOut& c = out.cells[i];
      d.add(c.digest);
      ++out.attempted;
      if (!c.ok) {
        ++out.failed;
        std::cerr << "perfbench: cell " << w.cells[i].name
                  << " FAILED: " << c.error << "\n";
      }
    }
    out.digest = d.value();
  }
  out.wall_s = now_s() - t0;
  out.sys_s = sys_seconds() - sys0;
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: process start to the first timed cell. Builds every pass's cell
// grid (the server's request schedules included) and constructs one runtime
// of each backend and thread count the workload runs, so lazy host set-up
// (allocator arenas, first-touch of runtime tables) is paid before timing.

void warm_runtimes(const Workload& w) {
  std::vector<std::pair<Backend, uint32_t>> shapes;
  for (const CellSpec& c : w.cells) {
    std::pair<Backend, uint32_t> shape{c.backend, c.threads};
    if (std::find(shapes.begin(), shapes.end(), shape) == shapes.end()) {
      shapes.push_back(shape);
    }
  }
  for (const auto& [b, t] : shapes) {
    SpanScope ctor("core.runtime_ctor");
    core::TxRuntime rt(w.config(b, t));
  }
}

// ---------------------------------------------------------------------------
// Layer probes: a timed loop over one public hot function each. Every probe
// reports the median over kProbeReps batches of host nanoseconds per call.

constexpr int kProbeReps = 7;

template <typename Fn>
double probe_ns(const std::string& name, uint64_t ops, Fn batch) {
  SpanScope span("probe." + name);
  std::vector<double> per_op;
  for (int r = 0; r < kProbeReps; ++r) {
    double secs = batch();
    per_op.push_back(1e9 * secs / static_cast<double>(ops));
  }
  return median(per_op);
}

sim::MachineConfig quiet_machine() {
  sim::MachineConfig cfg;
  cfg.interrupts_enabled = false;
  return cfg;
}

// Times machine.run() for a one-thread machine running `body`, with
// construction outside the timed section.
template <typename Setup>
double time_machine(Setup setup) {
  sim::Machine mm(quiet_machine(), 1);
  setup(mm);
  double t0 = now_s();
  mm.run();
  return now_s() - t0;
}

double probe_fiber_switch() {
  constexpr uint64_t kOps = 200000;
  return probe_ns("fiber_switch", kOps, [] {
    sim::Fiber* self = nullptr;
    bool stop = false;
    sim::Fiber f(64 * 1024, [&] {
      while (!stop) self->yield();
    });
    self = &f;
    double t0 = now_s();
    for (uint64_t i = 0; i < kOps; ++i) f.resume();
    double dt = now_s() - t0;
    stop = true;
    f.resume();
    return dt;
  });
}

double probe_load(const std::string& name, bool hooked, uint64_t stride) {
  constexpr uint64_t kOps = 400000;
  uint64_t sink = 0;
  double ns = probe_ns(name, kOps, [&] {
    return time_machine([&](sim::Machine& mm) {
      const uint64_t span = stride ? 2 * 1024 * 1024 : 64;
      mm.prefault(0x100000, span);
      if (hooked) {
        sim::TraceHooks hooks;
        hooks.on_access = [&sink](sim::CtxId, sim::Addr, sim::Word, sim::Word,
                                  bool, bool) { ++sink; };
        mm.set_trace_hooks(std::move(hooks));
      }
      mm.set_thread(0, [&mm, stride, span] {
        sim::Addr off = 0;
        for (uint64_t i = 0; i < kOps; ++i) {
          mm.load(0x100000 + off);
          off = (off + stride) % span;
        }
      });
    });
  });
  if (hooked && sink == 0) throw std::logic_error("hooked probe saw no access");
  return ns;
}

// Alternates a heap page with an STM lock-table page: the access pattern
// that defeats a one-entry last-page cache.
double probe_backing_store() {
  constexpr uint64_t kOps = 2000000;
  return probe_ns("backing_store_lookup", kOps, [] {
    sim::BackingStore bs;
    const sim::Addr heap = mem::kHeapBase;
    const sim::Addr locks = mem::kStmRegionBase + 64 * sim::kPageBytes;
    bs.prefault(heap, sim::kPageBytes);
    bs.prefault(locks, sim::kPageBytes);
    uintptr_t acc = 0;
    double t0 = now_s();
    for (uint64_t i = 0; i < kOps; i += 2) {
      uint64_t off = (i * 8) % sim::kPageBytes;
      acc += reinterpret_cast<uintptr_t>(bs.lookup(heap + off));
      acc += reinterpret_cast<uintptr_t>(bs.lookup(locks + off));
    }
    double dt = now_s() - t0;
    if (acc == 0) throw std::logic_error("backing-store probe found no page");
    return dt;
  });
}

double probe_rtm_attempt() {
  constexpr uint64_t kOps = 20000;
  return probe_ns("rtm_attempt_commit", kOps, [] {
    return time_machine([](sim::Machine& mm) {
      mm.prefault(0x100000, 4096);
      mm.set_thread(0, [&mm] {
        for (uint64_t i = 0; i < kOps; ++i) {
          htm::attempt(mm, [&mm, i] { mm.store(0x100000, i); });
        }
      });
    });
  });
}

core::RunConfig probe_runtime_config(Backend b) {
  core::RunConfig cfg;
  cfg.backend = b;
  cfg.threads = 1;
  cfg.machine.interrupts_enabled = false;
  cfg.stm.lock_table_entries = 1u << 14;
  return cfg;
}

// Times rt.run() of `body` on a fresh one-thread runtime (construction and
// the 4 KB host allocation are outside the timed section).
template <typename Body>
double time_runtime(Backend b, Body body) {
  core::TxRuntime rt(probe_runtime_config(b));
  sim::Addr a = rt.heap().host_alloc(4096, 64);
  double t0 = now_s();
  rt.run([&](core::TxCtx& ctx) { body(ctx, a); });
  return now_s() - t0;
}

double probe_stm(bool writes) {
  constexpr uint64_t kOps = 4000;
  return probe_ns(writes ? "stm_write_tx" : "stm_read_tx", kOps, [writes] {
    return time_runtime(Backend::kTinyStm, [writes](core::TxCtx& ctx,
                                                    sim::Addr a) {
      for (uint64_t i = 0; i < kOps; ++i) {
        ctx.transaction([&] {
          for (uint64_t w = 0; w < 16; ++w) {
            if (writes) {
              ctx.store(a + w * 8, i + w);
            } else {
              ctx.load(a + w * 8);
            }
          }
          if (!writes) ctx.store(a, i);
        });
      }
    });
  });
}

double probe_runtime_ctor(const core::RunConfig& cfg, const std::string& name) {
  double ns = probe_ns(name, 1, [&cfg] {
    double t0 = now_s();
    core::TxRuntime rt(cfg);
    (void)rt;
    return now_s() - t0;
  });
  return ns * 1e-9;
}

double probe_heap() {
  constexpr uint64_t kOps = 100000;
  return probe_ns("heap_alloc_free", kOps, [] {
    sim::Machine mm(quiet_machine(), 1);
    mem::SimHeap heap(mm);
    mm.set_thread(0, [&mm, &heap] {
      for (uint64_t i = 0; i < kOps; ++i) heap.free(heap.alloc(64));
    });
    double t0 = now_s();
    mm.run();
    return now_s() - t0;
  });
}

double probe_elide() {
  constexpr uint64_t kOps = 10000;
  return probe_ns("elide_fast_path", kOps, [] {
    core::TxRuntime rt(probe_runtime_config(Backend::kRtm));
    sim::Addr a = rt.heap().host_alloc(4096, 64);
    elide::mutex mu(rt);
    double t0 = now_s();
    rt.run([&](core::TxCtx& ctx) {
      for (uint64_t i = 0; i < kOps; ++i) {
        mu.critical_section(ctx, [&] { ctx.store(a, i); });
      }
    });
    double dt = now_s() - t0;
    if (mu.stats().elided != kOps) {
      throw std::logic_error("elide probe left the fast path");
    }
    return dt;
  });
}

double probe_spinlock() {
  constexpr uint64_t kOps = 50000;
  return probe_ns("ticket_lock_unlock", kOps, [] {
    return time_machine([](sim::Machine& mm) {
      const sim::Addr base = mem::kRuntimeRegionBase;
      mm.prefault(base, 4096);
      auto lock = std::make_shared<sync::TicketSpinLock>(mm, base);
      lock->init();
      mm.set_thread(0, [lock] {
        for (uint64_t i = 0; i < kOps; ++i) {
          lock->lock();
          lock->unlock();
        }
      });
    });
  });
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
         fmt(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The modelled end-to-end metrics over the run's kSubSeeds distinct
// passes (cell i has the same backend and thread count in every pass).
// Exactly repeatable for a seed.
std::vector<Metric> sim_metrics(const Workload& w,
                                const std::vector<const PassOut*>& passes) {
  const double k = static_cast<double>(passes.size());
  double mc_rtm = 0, mc_stm = 0, joules = 0;
  std::map<Backend, std::vector<double>> requests;
  std::map<Backend, std::vector<double>> cell_cycles;
  for (size_t i = 0; i < w.cells.size(); ++i) {
    const CellSpec& spec = w.cells[i];
    double cycles = 0;
    for (const PassOut* p : passes) {
      const CellOut& c = p->cells[i];
      cycles += static_cast<double>(c.cycles) / k;
      joules += c.joules / k;
      requests[spec.backend].insert(requests[spec.backend].end(),
                                    c.latency.begin(), c.latency.end());
    }
    if (spec.backend == Backend::kRtm) mc_rtm += 1e-6 * cycles;
    if (spec.backend == Backend::kTinyStm) mc_stm += 1e-6 * cycles;
    if (spec.threads == 4) cell_cycles[spec.backend].push_back(cycles);
  }
  std::vector<Metric> ms = {{"sim_mcycles.rtm", mc_rtm, "Mcycles"},
                            {"sim_mcycles.tinystm", mc_stm, "Mcycles"},
                            {"sim_energy_j", joules, "J"}};
  for (double pct : {50.0, 99.0}) {
    for (Backend b : kLatencyBackends) {
      std::string name = pct == 50.0 ? "sim_p50_cycles." : "sim_p99_cycles.";
      std::string bn = core::backend_name(b);
      std::transform(bn.begin(), bn.end(), bn.begin(), ::tolower);
      // server: requests, timed from their scheduled arrival. stamp and
      // eigen have no request stream: there a request is one 4-thread cell
      // and its latency is the cell's measured-region cycles, averaged over
      // the run's input sets.
      double v = w.obs ? percentile(requests[b], pct)
                       : percentile(cell_cycles[b], pct);
      ms.push_back({name + bn, v, "cycles"});
    }
  }
  return ms;
}

struct Counts {
  double ops = 0, accesses = 0, l1_hits = 0, l3_accesses = 0, mem = 0, c2c = 0,
         faults = 0;
  double htm_started = 0, htm_committed = 0, htm_conflict = 0,
         htm_capacity = 0, htm_fallbacks = 0, htm_useful = 0, htm_wasted = 0;
  double stm_starts = 0, stm_commits = 0, stm_ext = 0, stm_useful = 0,
         stm_wasted = 0;
  double allocs = 0, refills = 0, bytes_peak = 0;
  double elide_attempts = 0, elide_elided = 0, elide_fallbacks = 0;
};

// Layer counters per pass, averaged over `passes` (peak bytes: maximum).
Counts count(const std::vector<const PassOut*>& passes) {
  Counts k;
  using R = sim::AbortReason;
  const double n = static_cast<double>(passes.size());
  for (const PassOut* p : passes) {
    for (const CellOut& c : p->cells) {
      const sim::MachineStats& m = c.machine;
      auto reason = [&m](R r) {
        return m.tx.aborts_by_reason[static_cast<size_t>(r)];
      };
      auto add = [n](double& sum, double v) { sum += v / n; };
      add(k.ops, static_cast<double>(m.ops));
      add(k.accesses, static_cast<double>(m.mem.accesses()));
      add(k.l1_hits, static_cast<double>(m.mem.l1_hits));
      add(k.l3_accesses, static_cast<double>(m.mem.l3_accesses()));
      add(k.mem, static_cast<double>(m.mem.mem_accesses));
      add(k.c2c, static_cast<double>(m.mem.c2c_transfers));
      add(k.faults, static_cast<double>(m.mem.page_faults));
      add(k.htm_started, static_cast<double>(m.tx.started));
      add(k.htm_committed, static_cast<double>(m.tx.committed));
      add(k.htm_conflict, static_cast<double>(reason(R::kConflict)));
      add(k.htm_capacity, static_cast<double>(reason(R::kReadCapacity) +
                                              reason(R::kWriteCapacity)));
      add(k.htm_fallbacks, static_cast<double>(c.htm_fallbacks));
      add(k.htm_useful, c.htm_useful_cycles);
      add(k.htm_wasted, c.htm_wasted_cycles);
      add(k.stm_starts, static_cast<double>(c.stm_starts));
      add(k.stm_commits, static_cast<double>(c.stm_commits));
      add(k.stm_ext, static_cast<double>(c.stm_extensions));
      add(k.stm_useful, c.stm_useful_cycles);
      add(k.stm_wasted, c.stm_wasted_cycles);
      add(k.allocs, static_cast<double>(c.heap_allocs));
      add(k.refills, static_cast<double>(c.heap_refills));
      add(k.elide_attempts, static_cast<double>(c.elide_attempts));
      add(k.elide_elided, static_cast<double>(c.elide_elided));
      add(k.elide_fallbacks, static_cast<double>(c.elide_fallbacks));
      k.bytes_peak =
          std::max(k.bytes_peak, static_cast<double>(c.heap_bytes_peak));
    }
  }
  return k;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool setup_only = false;
  std::string spans_file;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
      have_seconds = true;
    } else if (k == "--trace") {
      std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = v == "1";
    } else if (k == "--setup-only") {
      a.setup_only = true;
    } else if (k == "--spans") {
      a.spans_file = value();
    } else {
      throw std::invalid_argument("unknown argument '" + k + "'");
    }
  }
  if (!have_workload || !have_seed || (!have_seconds && !a.setup_only)) {
    throw std::invalid_argument("--workload, --seed and --seconds are required");
  }
  if (!a.setup_only && a.seconds <= 0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return a;
}

int run(const Args& args) {
  g_spans.enable(args.trace);
  // ---- Set-up ----
  std::vector<Workload> grids;  // one per input set
  {
    SpanScope setup("bench.setup");
    for (uint32_t sub = 0; sub < kSubSeeds; ++sub) {
      grids.push_back(
          make_workload(args.workload, input_unit(args.seed, sub)));
    }
    if (grids.front().obs) {
      bench::ObsSettings& s = bench::obs_settings();
      s.abort_report = true;
      s.perf_stat = true;
      s.metrics = true;
      s.metrics_window = 10000;
    }
    warm_runtimes(grids.front());
  }
  const double setup_end = now_s();
  if (args.setup_only) {
    std::printf("{\"setup_end_monotonic_s\": %.9f}\n", setup_end);
    return 0;
  }

  // ---- Probes (traced run only) ----
  std::vector<Metric> probes;
  if (args.trace) {
    SpanScope probe_span("bench.probes");
    double l1_hit = probe_load("l1_hit_load", false, 0);
    double hooked = probe_load("hooked_load", true, 0);
    core::RunConfig def;
    def.backend = Backend::kTinyStm;
    probes = {
        {"sim.fiber.switch_ns", probe_fiber_switch(), "ns"},
        {"sim.machine.l1_hit_load_ns", l1_hit, "ns"},
        {"sim.machine.hooked_load_ns", hooked, "ns"},
        {"sim.memory.l1_miss_load_ns", probe_load("l1_miss_load", false, 64 * 9), "ns"},
        {"sim.backing_store.lookup_ns", probe_backing_store(), "ns"},
        {"htm.attempt_commit_ns", probe_rtm_attempt(), "ns"},
        {"stm.read_tx_ns", probe_stm(false), "ns"},
        {"stm.write_tx_ns", probe_stm(true), "ns"},
        {"core.runtime_ctor_s", probe_runtime_ctor(def, "runtime_ctor_default"), "s"},
        {"core.runtime_ctor_s.stamp",
         probe_runtime_ctor(bench::stamp_run_cfg(Backend::kTinyStm, 4, 1, true),
                            "runtime_ctor_stamp"),
         "s"},
        {"mem.alloc_free_ns", probe_heap(), "ns"},
        {"elide.fast_path_ns", probe_elide(), "ns"},
        {"sync.lock_unlock_ns", probe_spinlock(), "ns"},
        {"obs.event_overhead_ns", hooked - l1_hit, "ns"},
    };
  }

  // ---- Timed passes ----
  // Pass i runs input set i % kSubSeeds; every input set runs at least once.
  // Untraced passes give the end-to-end numbers. A traced run alternates
  // untraced and traced passes; their difference is the tracing overhead.
  const double start = now_s();
  std::vector<PassOut> passes;
  std::vector<bool> pass_traced;
  std::vector<std::pair<size_t, size_t>> pass_spans;  // [begin, end) in g_spans
  bool deterministic = true;
  for (size_t i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    g_spans.enable(trace_this);
    const size_t span_begin = g_spans.size();
    PassOut p = run_pass(grids[i % kSubSeeds]);
    g_spans.enable(args.trace);
    if (i >= kSubSeeds && p.digest != passes[i % kSubSeeds].digest) {
      deterministic = false;
      std::cerr << "perfbench: pass " << i << " digest " << hex(p.digest)
                << " differs from pass " << i % kSubSeeds << "'s "
                << hex(passes[i % kSubSeeds].digest) << "\n";
    }
    passes.push_back(std::move(p));
    pass_traced.push_back(trace_this);
    pass_spans.emplace_back(span_begin, g_spans.size());
    std::vector<double> walls;
    for (const PassOut& q : passes) walls.push_back(q.wall_s);
    if (passes.size() >= kSubSeeds &&
        now_s() - start + median(walls) > args.seconds) {
      break;
    }
  }

  std::vector<const PassOut*> distinct;
  harness::Digest run_digest;
  for (uint32_t sub = 0; sub < kSubSeeds; ++sub) {
    distinct.push_back(&passes[sub]);
    run_digest.add(passes[sub].digest);
  }
  uint64_t attempted = 0, failed = 0;
  std::vector<double> walls, traced_walls, sys, ops_per_s;
  const Counts k = count(distinct);
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassOut& p = passes[i];
    attempted += p.attempted;
    failed += p.failed;
    if (pass_traced[i]) {
      traced_walls.push_back(p.wall_s);
      continue;
    }
    walls.push_back(p.wall_s);
    sys.push_back(p.sys_s);
    const Counts pk = count({&p});
    ops_per_s.push_back(pk.ops / p.wall_s);
  }
  const double wall = median(walls);

  std::vector<Metric> out;
  if (!args.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out = {{"wall_s", wall, "s"},
           {"sim_ops_per_s", median(ops_per_s), "1/s"},
           {"peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"}};
    for (Metric& m : sim_metrics(grids.front(), distinct)) out.push_back(std::move(m));
  } else {
    // Self time of each span name, per traced pass.
    const std::vector<double> self = g_spans.self_times();
    std::vector<std::map<std::string, double>> traced_self;
    for (size_t i = 0; i < passes.size(); ++i) {
      if (!pass_traced[i]) continue;
      std::map<std::string, double>& sum = traced_self.emplace_back();
      for (size_t j = pass_spans[i].first; j < pass_spans[i].second; ++j) {
        sum[g_spans.all()[j].name] += self[j];
      }
    }
    auto span_s = [&traced_self](const std::string& name) {
      std::vector<double> v;
      for (const auto& sum : traced_self) {
        auto it = sum.find(name);
        v.push_back(it == sum.end() ? 0.0 : it->second);
      }
      return median(v);
    };

    out = probes;
    out.push_back({"sim.fiber.sys_s", median(sys), "s"});
    out.push_back({"sim.machine.ops", k.ops, "count"});
    out.push_back({"sim.machine.ns_per_op", 1e9 * wall / k.ops, "ns"});
    out.push_back({"sim.memory.accesses", k.accesses, "count"});
    out.push_back({"sim.memory.l1_hit_ratio", ratio(k.l1_hits, k.accesses), "ratio"});
    out.push_back({"sim.memory.l3_miss_ratio", ratio(k.mem, k.l3_accesses), "ratio"});
    out.push_back({"sim.memory.c2c_transfers", k.c2c, "count"});
    out.push_back({"sim.backing_store.page_faults", k.faults, "count"});
    out.push_back({"htm.attempts", k.htm_started, "count"});
    out.push_back({"htm.commit_ratio", ratio(k.htm_committed, k.htm_started), "ratio"});
    out.push_back({"htm.aborts.conflict", k.htm_conflict, "count"});
    out.push_back({"htm.aborts.capacity", k.htm_capacity, "count"});
    out.push_back({"htm.fallbacks", k.htm_fallbacks, "count"});
    out.push_back({"htm.wasted_share",
                   ratio(k.htm_wasted, k.htm_useful + k.htm_wasted), "ratio"});
    out.push_back({"stm.starts", k.stm_starts, "count"});
    out.push_back({"stm.commit_ratio", ratio(k.stm_commits, k.stm_starts), "ratio"});
    out.push_back({"stm.extensions", k.stm_ext, "count"});
    out.push_back({"stm.wasted_share",
                   ratio(k.stm_wasted, k.stm_useful + k.stm_wasted), "ratio"});
    out.push_back({"mem.allocs", k.allocs, "count"});
    out.push_back({"mem.refills", k.refills, "count"});
    out.push_back({"mem.bytes_peak", k.bytes_peak, "bytes"});
    out.push_back({"elide.attempts", k.elide_attempts, "count"});
    out.push_back({"elide.elided_ratio", ratio(k.elide_elided, k.elide_attempts), "ratio"});
    out.push_back({"elide.fallbacks", k.elide_fallbacks, "count"});
    for (const bench::StampApp& app : bench::stamp_apps()) {
      out.push_back({"stamp.run_s." + app.name, span_s("stamp.run." + app.name), "s"});
    }
    out.push_back({"eigenbench.run_s", span_s("eigenbench.run"), "s"});
    for (const ServerSvc& svc : kServices) {
      std::string n = bench::server::service_name(svc.kind);
      out.push_back({"server.run_s." + n, span_s("server.run." + n), "s"});
    }
    out.push_back({"obs.export_s", span_s("obs.export"), "s"});
    out.push_back({"obs.export_bytes", static_cast<double>(passes.front().export_bytes), "bytes"});
    out.push_back({"harness.overhead_s", span_s("harness.map"), "s"});
    out.push_back({"check.validate_s", span_s("check.validate"), "s"});
    out.push_back({"bench.self_s", span_s("bench.pass"), "s"});
    out.push_back({"trace.overhead_s", median(traced_walls) - wall, "s"});
    if (!args.spans_file.empty()) g_spans.write(args.spans_file);
  }

  const uint64_t digest = run_digest.value();
  std::printf("digest %s %s\n", args.workload.c_str(), hex(digest).c_str());
  std::printf("passes %zu (%zu traced)\n", passes.size(), traced_walls.size());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"setup_end_monotonic_s\": %.9f, \"metrics\": %s}\n",
      deterministic && failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), setup_end,
      metrics_json(out).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "tsxlab_perfbench: " << e.what() << "\n";
    return 2;
  }
}
