#pragma once
// Shared plumbing for the figure/table reproduction drivers in bench/.
// Every driver prints (a) the paper's reference shape, (b) a table of
// simulated measurements, and (c) optionally CSV for post-processing.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "check/history.h"
#include "core/runtime.h"
#include "mem/sim_heap.h"
#include "harness/runner.h"
#include "obs/abort_report.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "util/flags.h"
#include "util/summary.h"
#include "util/table.h"

namespace tsx::bench {

// --trace / --abort-report / --perf-stat / --timeseries / --metrics /
// --flamegraph settings, parsed into a process-global so the drivers'
// run-config helpers (which never see BenchArgs) can consult them.
struct ObsSettings {
  bool trace = false;
  bool abort_report = false;
  bool perf_stat = false;
  bool timeseries = false;
  bool metrics = false;     // --metrics or --flamegraph (hub-backed exports)
  core::Cycles sample_interval = 0;
  core::Cycles metrics_window = 0;  // hub window; 0 = hub off
  bool enabled() const {
    return trace || abort_report || perf_stat || timeseries || metrics;
  }
};

inline ObsSettings& obs_settings() {
  static ObsSettings s;
  return s;
}

// Fills cfg.obs for a traced run registered under `label`. No-op when
// tracing is off or the label is empty (SEQ baselines stay untraced, so the
// exporters only see the measured runs). Only --trace reads the event ring,
// so every other export runs with no ring at all.
inline void apply_obs(core::RunConfig& cfg, const std::string& label) {
  const ObsSettings& s = obs_settings();
  if (!s.enabled() || label.empty()) return;
  cfg.obs.enabled = true;
  if (!s.trace) cfg.obs.capacity = 0;
  cfg.obs.sample_interval = s.sample_interval;
  cfg.obs.metrics.window_cycles = s.metrics_window;
  cfg.obs.label = label;
}

// --malloc-policy / --malloc-pack-sets settings, parsed into a
// process-global (same pattern as ObsSettings) so the drivers' run-config
// helpers can consult them without seeing BenchArgs.
struct HeapSettings {
  bool set = false;  // a --malloc-policy flag was given
  mem::PlacementPolicy policy = mem::PlacementPolicy::kSizeClass;
  uint32_t color_sets = 0;  // kColored only: 0 = spread, N = pack into N sets
};

inline HeapSettings& heap_settings() {
  static HeapSettings s;
  return s;
}

// Per-cell placement override for sweep drivers (extension_malloc_placement
// runs several policies in one process): HeapPolicyScope sets it around a
// cell's run and apply_heap picks it up, beating the process-global flag.
// Thread-local because sweep jobs run concurrently on host threads.
struct TlsHeapPolicy {
  bool set = false;
  mem::PlacementPolicy policy = mem::PlacementPolicy::kSizeClass;
  uint32_t color_sets = 0;
};

inline TlsHeapPolicy& tls_heap_policy() {
  thread_local TlsHeapPolicy p;
  return p;
}

class HeapPolicyScope {
 public:
  HeapPolicyScope(mem::PlacementPolicy policy, uint32_t color_sets) {
    TlsHeapPolicy& p = tls_heap_policy();
    p.set = true;
    p.policy = policy;
    p.color_sets = color_sets;
  }
  ~HeapPolicyScope() { tls_heap_policy() = TlsHeapPolicy{}; }
  HeapPolicyScope(const HeapPolicyScope&) = delete;
  HeapPolicyScope& operator=(const HeapPolicyScope&) = delete;
};

// Fills cfg.heap's placement fields: a thread-local HeapPolicyScope wins,
// then the --malloc-policy flag; with neither, the config is untouched (so
// default runs stay byte-identical to the pre-policy allocator).
inline void apply_heap(core::RunConfig& cfg) {
  const TlsHeapPolicy& tls = tls_heap_policy();
  if (tls.set) {
    cfg.heap.policy = tls.policy;
    cfg.heap.color_sets = tls.color_sets;
    return;
  }
  const HeapSettings& s = heap_settings();
  if (!s.set) return;
  cfg.heap.policy = s.policy;
  cfg.heap.color_sets = s.color_sets;
}

// Parses a --malloc-policy value. "colored-spread" and "colored-pack" both
// map to kColored; pack uses --malloc-pack-sets (default 2) as color_sets.
inline mem::PlacementPolicy parse_malloc_policy(const std::string& name,
                                                bool* pack) {
  *pack = false;
  if (name == "size-class") return mem::PlacementPolicy::kSizeClass;
  if (name == "bump") return mem::PlacementPolicy::kBumpPerThread;
  if (name == "padded") return mem::PlacementPolicy::kPadded;
  if (name == "colored-spread" || name == "colored") {
    return mem::PlacementPolicy::kColored;
  }
  if (name == "colored-pack") {
    *pack = true;
    return mem::PlacementPolicy::kColored;
  }
  throw std::invalid_argument(
      "--malloc-policy must be one of size-class, bump, padded, "
      "colored-spread, colored-pack (got '" +
      name + "')");
}

// Label for runs whose RunConfig is built deep inside an app lambda (the
// STAMP drivers): ObsLabelScope sets it around the traced run and
// stamp_run_cfg picks it up. Thread-local because sweep jobs run
// concurrently on host threads.
inline std::string& tls_obs_label() {
  thread_local std::string label;
  return label;
}

class ObsLabelScope {
 public:
  explicit ObsLabelScope(std::string label) {
    tls_obs_label() = std::move(label);
  }
  ~ObsLabelScope() { tls_obs_label().clear(); }
  ObsLabelScope(const ObsLabelScope&) = delete;
  ObsLabelScope& operator=(const ObsLabelScope&) = delete;
};

// Drains the global capture registry when the last BenchArgs copy dies (end
// of main), so the exporters cover every traced run of the process. All
// outputs avoid stdout: each exporter writes to its file, or to stderr for
// the "-" destination — driver stdout stays byte-identical with
// observability on.
class ObsFlusher {
 public:
  ObsFlusher(std::string trace_file, std::string abort_report_file,
             std::string perf_stat_file, std::string timeseries_file,
             std::string metrics_file, std::string flamegraph_file)
      : trace_file_(std::move(trace_file)),
        abort_report_file_(std::move(abort_report_file)),
        perf_stat_file_(std::move(perf_stat_file)),
        timeseries_file_(std::move(timeseries_file)),
        metrics_file_(std::move(metrics_file)),
        flamegraph_file_(std::move(flamegraph_file)) {}
  ~ObsFlusher() {
    std::vector<obs::Capture> caps = obs::Registry::global().drain();
    // "" = exporter off, "-" = stderr, else a file path.
    auto flush = [&caps](const std::string& dest, const char* what,
                         void (*write)(std::ostream&,
                                       const std::vector<obs::Capture>&)) {
      if (dest.empty()) return;
      if (dest == "-") {
        write(std::cerr, caps);
        return;
      }
      std::ofstream out(dest);
      if (!out) {
        std::cerr << "[obs] cannot write " << what << " to '" << dest << "'\n";
        return;
      }
      write(out, caps);
      std::cerr << "[obs] wrote " << what << " to " << dest << "\n";
    };
    if (!trace_file_.empty()) {
      std::ofstream out(trace_file_);
      if (!out) {
        std::cerr << "[obs] cannot write trace to '" << trace_file_ << "'\n";
      } else {
        obs::write_chrome_trace(out, caps);
        std::cerr << "[obs] wrote " << caps.size() << " capture(s) to "
                  << trace_file_ << "\n";
      }
    }
    flush(abort_report_file_, "abort report", &obs::write_abort_report);
    flush(perf_stat_file_, "perf stat", &obs::write_perf_stat);
    flush(timeseries_file_, "time series", &obs::write_timeseries_csv);
    flush(metrics_file_, "metrics", &obs::write_openmetrics);
    flush(flamegraph_file_, "flame profile", &obs::write_flamegraph);
  }

 private:
  std::string trace_file_;
  std::string abort_report_file_;
  std::string perf_stat_file_;
  std::string timeseries_file_;
  std::string metrics_file_;
  std::string flamegraph_file_;
};

// Standard bench flags: --reps (seeds averaged), --csv, --fast (smaller
// workloads for smoke runs), --verify (record every simulated access and
// check each run for serializability via src/check — slower, opt-in),
// --jobs N (host threads for the sweep harness; 0/default = all cores,
// 1 = the exact serial path; stdout is byte-identical for every N),
// --manifest[=FILE] (JSON run manifest to FILE, or stderr when bare),
// --trace[=FILE] (Chrome trace-event JSON of every measured run, default
// trace.json; load in Perfetto / chrome://tracing), --abort-report[=FILE]
// (per-call-site abort attribution table, to FILE or stderr when bare),
// --perf-stat[=FILE] (perf-stat-style simulated-PMU report per measured run,
// to FILE or stderr when bare), --timeseries[=FILE] (counter time-series
// CSV, default timeseries.csv; needs --sample-interval),
// --metrics[=FILE] (OpenMetrics text exposition of the per-window metric
// series per cell, default metrics.prom), --flamegraph[=FILE]
// (collapsed-stack wasted-cycle flame profile, default flamegraph.folded;
// feed to flamegraph.pl or speedscope), --metrics-window=CYCLES
// (simulated-time window for the metrics hub; defaults to 10000 when
// --metrics/--flamegraph is given),
// --sample-interval=CYCLES (counter-sampling window for the time series and
// the trace's counter tracks),
// --energy-split (extra committed/wasted energy columns in the energy
// drivers' CSV output; default output stays byte-identical),
// --progress[=BOOL] (force sweep progress lines on/off; default: only when
// stderr is a TTY, see harness::RunnerOptions::assume_tty),
// --malloc-policy=NAME (simulated-heap placement policy for every measured
// run: size-class (default), bump, padded, colored-spread, colored-pack;
// see mem::PlacementPolicy), --malloc-pack-sets=N (L1 sets colored-pack
// confines placements to; default 2).
struct BenchArgs {
  int reps = 2;
  bool csv = false;
  bool fast = false;
  bool verify = false;
  int jobs = 0;
  std::string manifest;
  std::string trace;        // resolved trace file; "" = tracing off
  std::string abort_report; // "" = off, "-" = stderr, else file path
  std::string perf_stat;    // "" = off, "-" = stderr, else file path
  std::string timeseries;   // resolved CSV file; "" = off
  std::string metrics;      // OpenMetrics file; "" = off, "-" = stderr
  std::string flamegraph;   // collapsed-stack file; "" = off, "-" = stderr
  core::Cycles sample_interval = 0;
  core::Cycles metrics_window = 0;  // resolved hub window; 0 = hub off
  bool energy_split = false;
  int progress = -1;        // -1 auto (isatty), 0 off, 1 on
  // Keeps the exporters alive until the last BenchArgs copy dies.
  std::shared_ptr<ObsFlusher> obs_flusher;

  // Exits 2 with a message on stderr for any usage error (malformed value,
  // duplicate/unknown flag, stray positional) — drivers never see a throw.
  static BenchArgs parse(int argc, char** argv) {
    try {
      util::Flags flags(argc, argv);
      BenchArgs a;
      a.reps = static_cast<int>(flags.get_int("reps", 2));
      a.csv = flags.get_bool("csv", false);
      a.fast = flags.get_bool("fast", false);
      a.verify = flags.get_bool("verify", false);
      a.jobs = static_cast<int>(flags.get_int("jobs", 0));
      if (a.jobs < 0) throw std::invalid_argument("--jobs must be >= 0");
      a.manifest = flags.get_string("manifest", "");
      a.trace = flags.get_string("trace", "");
      if (a.trace == "true") a.trace = "trace.json";  // bare --trace
      a.abort_report = flags.get_string("abort-report", "");
      if (a.abort_report == "true") a.abort_report = "-";  // bare form
      a.perf_stat = flags.get_string("perf-stat", "");
      if (a.perf_stat == "true") a.perf_stat = "-";  // bare --perf-stat
      a.timeseries = flags.get_string("timeseries", "");
      if (a.timeseries == "true") a.timeseries = "timeseries.csv";
      a.metrics = flags.get_string("metrics", "");
      if (a.metrics == "true") a.metrics = "metrics.prom";
      a.flamegraph = flags.get_string("flamegraph", "");
      if (a.flamegraph == "true") a.flamegraph = "flamegraph.folded";
      int64_t mw = flags.get_int("metrics-window", 0);
      if (mw < 0) throw std::invalid_argument("--metrics-window must be >= 0");
      if (mw == 0 && (!a.metrics.empty() || !a.flamegraph.empty())) {
        mw = 10000;  // hub exports requested: a sane default window
      }
      a.metrics_window = static_cast<core::Cycles>(mw);
      int64_t si = flags.get_int("sample-interval", 0);
      if (si < 0) throw std::invalid_argument("--sample-interval must be >= 0");
      a.sample_interval = static_cast<core::Cycles>(si);
      a.energy_split = flags.get_bool("energy-split", false);
      a.progress = flags.has("progress")
                       ? (flags.get_bool("progress", true) ? 1 : 0)
                       : -1;
      int64_t pack_sets = flags.get_int("malloc-pack-sets", 2);
      if (pack_sets < 1) {
        throw std::invalid_argument("--malloc-pack-sets must be >= 1");
      }
      if (flags.has("malloc-policy")) {
        bool pack = false;
        mem::PlacementPolicy pol =
            parse_malloc_policy(flags.get_string("malloc-policy", ""), &pack);
        HeapSettings& hs = heap_settings();
        hs.set = true;
        hs.policy = pol;
        hs.color_sets = pack ? static_cast<uint32_t>(pack_sets) : 0;
      }
      ObsSettings& s = obs_settings();
      s.trace = !a.trace.empty();
      s.abort_report = !a.abort_report.empty();
      s.perf_stat = !a.perf_stat.empty();
      s.timeseries = !a.timeseries.empty();
      s.metrics = !a.metrics.empty() || !a.flamegraph.empty();
      s.sample_interval = a.sample_interval;
      s.metrics_window = a.metrics_window;
      if (s.enabled()) {
        a.obs_flusher = std::make_shared<ObsFlusher>(
            a.trace, a.abort_report, a.perf_stat, a.timeseries, a.metrics,
            a.flamegraph);
      }
      auto un = flags.unconsumed();
      if (!un.empty()) {
        std::string msg = un.size() == 1 ? "unknown flag " : "unknown flags ";
        for (size_t i = 0; i < un.size(); ++i) {
          if (i) msg += ", ";
          msg += "--" + un[i];
        }
        throw std::invalid_argument(msg);
      }
      auto pos = flags.positional();
      if (!pos.empty()) {
        throw std::invalid_argument("unexpected argument '" + pos[0] +
                                    "' (benches take no positional arguments)");
      }
      return a;
    } catch (const std::invalid_argument& e) {
      std::cerr << argv[0] << ": " << e.what() << "\n";
      std::exit(2);
    }
  }
};

// The obs registry's fingerprints and totals as manifest member lines. Every
// value is label- or name-sorted in the registry and read non-destructively,
// so the members are --jobs-invariant and the flusher can still drain the
// captures afterwards. Absent values omit their member.
inline std::string obs_manifest_members() {
  const obs::Registry& reg = obs::Registry::global();
  std::ostringstream os;
  auto hex_member = [&os](const char* key, uint64_t v) {
    char hex[19];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(v));
    os << "  \"" << key << "\": \"" << hex << "\",\n";
  };
  // PMU-counter fingerprint.
  hex_member("counter_digest", reg.counter_digest());
  // Windowed-metrics fingerprint (hub windows + phase events + flame
  // edges); absent when no capture carries metrics (hub off).
  if (std::optional<uint64_t> d = reg.metrics_digest()) {
    hex_member("metrics_digest", *d);
  }
  // Per-lock elision counters, aggregated by lock name across the sweep's
  // captures; absent for benches without elide locks.
  std::vector<obs::ElideLockCounters> locks = reg.elide_totals();
  if (!locks.empty()) {
    os << "  \"elide_locks\": [";
    for (size_t i = 0; i < locks.size(); ++i) {
      const obs::ElideLockCounters& e = locks[i];
      os << (i ? ", " : "") << "{\"name\": \"" << e.name
         << "\", \"acquisitions\": " << e.acquisitions
         << ", \"attempts\": " << e.attempts << ", \"elided\": " << e.elided
         << ", \"fallbacks\": " << e.fallbacks
         << ", \"lock_acquires\": " << e.lock_acquires
         << ", \"self_stops\": " << e.self_stops << "}";
    }
    os << "],\n";
  }
  // Summed simulated-heap counters.
  obs::HeapPmuCounters h = reg.heap_totals();
  if (h.present) {
    os << "  \"heap\": {\"policy\": \"" << h.policy
       << "\", \"allocs\": " << h.allocs << ", \"frees\": " << h.frees
       << ", \"refills\": " << h.refills
       << ", \"bytes_live\": " << h.bytes_live
       << ", \"bytes_peak\": " << h.bytes_peak
       << ", \"bytes_padding\": " << h.bytes_padding
       << ", \"set_allocs\": [";
    for (size_t i = 0; i < h.set_allocs.size(); ++i) {
      os << (i ? ", " : "") << h.set_allocs[i];
    }
    os << "]},\n";
  }
  return os.str();
}

// Builds the Runner options for a driver's sweep: thread count and manifest
// destination from the flags, bench id and config digest from the driver.
inline harness::RunnerOptions runner_options(const BenchArgs& args,
                                             const std::string& bench_id,
                                             uint64_t config_digest) {
  harness::RunnerOptions opt;
  opt.jobs = static_cast<unsigned>(args.jobs);
  opt.bench_id = bench_id;
  opt.config_digest = config_digest;
  opt.manifest = args.manifest;
  opt.assume_tty = args.progress;
  if (obs_settings().enabled()) opt.manifest_members_fn = obs_manifest_members;
  return opt;
}

// Opt-in history verification for benches that own their TxRuntime:
// construct (with args.verify) before rt.run(), call check() after. On a
// serializability violation the bench exits non-zero with a diagnosis —
// measurements from a non-serializable run would be meaningless.
class HistoryVerifier {
 public:
  HistoryVerifier(core::TxRuntime& rt, bool enabled) : rt_(&rt) {
    if (enabled) rec_ = std::make_unique<check::Recorder>(rt);
  }

  void check(const std::string& what) {
    if (!rec_) return;
    check::CheckResult cr = check::check_history(rec_->history(), *rt_);
    if (!cr.ok) {
      std::cerr << "--verify FAILED (" << what << "): " << cr.error << "\n";
      std::exit(1);
    }
  }

 private:
  core::TxRuntime* rt_;
  std::unique_ptr<check::Recorder> rec_;
};

inline void print_header(const std::string& id, const std::string& title,
                         const std::string& paper_reference) {
  std::cout << "==== " << id << ": " << title << " ====\n";
  std::cout << "Paper reference: " << paper_reference << "\n\n";
}

inline void emit(const util::Table& t, const BenchArgs& args) {
  t.print(std::cout);
  if (args.csv) {
    std::cout << "\nCSV:\n";
    t.print_csv(std::cout);
  }
  std::cout << "\n";
}

}  // namespace tsx::bench
