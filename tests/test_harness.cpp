#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "eigenbench/eigenbench.h"
#include "harness/runner.h"

namespace {

using tsx::harness::Digest;
using tsx::harness::Job;
using tsx::harness::Runner;
using tsx::harness::RunnerOptions;

RunnerOptions quiet(unsigned jobs) {
  RunnerOptions opt;
  opt.jobs = jobs;
  opt.quiet = true;
  return opt;
}

// A synthetic job mix with deliberately skewed durations: under a pool the
// completion order differs from the index order, which is exactly what the
// Runner must hide from the caller.
std::vector<uint64_t> synthetic_sweep(unsigned jobs) {
  Runner r(quiet(jobs));
  return r.map<uint64_t>(
      24,
      [](size_t i) {
        // Later indices finish first; earlier ones sleep.
        std::this_thread::sleep_for(std::chrono::microseconds((24 - i) * 50));
        uint64_t v = 0x9e3779b97f4a7c15ull * (i + 1);
        v ^= v >> 29;
        return v;
      },
      [](size_t i) {
        Job j;
        j.seed = i;
        j.label = "synthetic";
        return j;
      });
}

TEST(Runner, ResultsInIndexOrderRegardlessOfJobCount) {
  auto serial = synthetic_sweep(1);
  auto pooled = synthetic_sweep(8);
  EXPECT_EQ(serial, pooled);
}

TEST(Runner, SerialPathRunsInlineOnCallingThread) {
  Runner r(quiet(1));
  std::thread::id main_id = std::this_thread::get_id();
  std::vector<size_t> order;
  std::vector<Job> jobs;
  for (size_t i = 0; i < 5; ++i) {
    Job j;
    j.fn = [&, i] {
      EXPECT_EQ(std::this_thread::get_id(), main_id);
      order.push_back(i);
    };
    jobs.push_back(std::move(j));
  }
  r.run(std::move(jobs));
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(Runner, RethrowsLowestIndexedFailure) {
  for (unsigned jobs : {1u, 8u}) {
    Runner r(quiet(jobs));
    std::vector<Job> js;
    for (size_t i = 0; i < 16; ++i) {
      Job j;
      j.fn = [i] {
        if (i == 3) throw std::runtime_error("job3 failed");
        if (i == 11) throw std::runtime_error("job11 failed");
      };
      js.push_back(std::move(j));
    }
    try {
      r.run(std::move(js));
      FAIL() << "expected a rethrow (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job3 failed") << "jobs=" << jobs;
    }
  }
}

TEST(Runner, AllJobsCompleteDespiteFailures) {
  Runner r(quiet(4));
  std::atomic<int> completed{0};
  std::vector<Job> js;
  for (size_t i = 0; i < 12; ++i) {
    Job j;
    j.fn = [&completed, i] {
      if (i % 3 == 0) throw std::runtime_error("boom");
      completed.fetch_add(1);
    };
    js.push_back(std::move(j));
  }
  EXPECT_THROW(r.run(std::move(js)), std::runtime_error);
  EXPECT_EQ(completed.load(), 8);  // 12 jobs minus the 4 throwers
}

TEST(Runner, ZeroJobsDefaultsToHardwareConcurrency) {
  Runner r(quiet(0));
  unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(r.jobs(), hw == 0 ? 1u : hw);
}

TEST(Runner, ManifestRecordsJobsAndDigest) {
  std::ostringstream manifest;
  RunnerOptions opt = quiet(2);
  opt.bench_id = "unit_manifest";
  opt.config_digest = 0xabcdef;
  opt.manifest_stream = &manifest;
  Runner r(opt);
  std::vector<Job> js;
  for (size_t i = 0; i < 3; ++i) {
    Job j;
    j.fn = [] {};
    j.seed = 100 + i;
    j.label = "cell" + std::to_string(i);
    js.push_back(std::move(j));
  }
  r.run(std::move(js));
  std::string m = manifest.str();
  EXPECT_NE(m.find("\"bench\": \"unit_manifest\""), std::string::npos) << m;
  EXPECT_NE(m.find("\"config_digest\": \"0x0000000000abcdef\""),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("\"total_jobs\": 3"), std::string::npos) << m;
  EXPECT_NE(m.find("\"seed\": 102"), std::string::npos) << m;
  EXPECT_NE(m.find("\"label\": \"cell1\""), std::string::npos) << m;
  // No manifest_members_fn installed -> run_digest is followed directly by
  // jobs_flag, with no extra member in between.
  size_t run = m.find("\"run_digest\"");
  ASSERT_NE(run, std::string::npos) << m;
  EXPECT_EQ(m.find("\n", run) + 1, m.find("  \"jobs_flag\"")) << m;
}

TEST(Runner, ManifestEmbedsElideLockCounters) {
  std::ostringstream manifest;
  RunnerOptions opt = quiet(1);
  opt.bench_id = "unit_elide_manifest";
  opt.manifest_stream = &manifest;
  opt.manifest_members_fn = [] {
    return std::string(
        "  \"counter_digest\": \"0x0000000000001234\",\n"
        "  \"elide_locks\": [{\"name\": \"m\", \"acquisitions\": 7, "
        "\"attempts\": 9, \"elided\": 5, \"fallbacks\": 2, "
        "\"lock_acquires\": 2, \"self_stops\": 0}],\n");
  };
  Runner r(opt);
  std::vector<Job> js(1);
  js[0].fn = [] {};
  r.run(std::move(js));
  std::string m = manifest.str();
  // The members land between run_digest and jobs_flag, in the order given.
  size_t run = m.find("\"run_digest\"");
  size_t digest = m.find("  \"counter_digest\": \"0x0000000000001234\",\n");
  size_t locks = m.find("  \"elide_locks\": [{\"name\": \"m\"");
  size_t jobs = m.find("  \"jobs_flag\"");
  ASSERT_NE(run, std::string::npos) << m;
  ASSERT_NE(digest, std::string::npos) << m;
  ASSERT_NE(locks, std::string::npos) << m;
  EXPECT_LT(run, digest);
  EXPECT_LT(digest, locks);
  EXPECT_LT(locks, jobs);
  EXPECT_NE(m.find("\"acquisitions\": 7"), std::string::npos) << m;
  EXPECT_NE(m.find("\"self_stops\": 0}],\n"), std::string::npos) << m;
}

TEST(Runner, ManifestOmitsElideLocksWhenFnReturnsEmpty) {
  std::ostringstream manifest;
  RunnerOptions opt = quiet(1);
  opt.bench_id = "unit_elide_manifest_empty";
  opt.manifest_stream = &manifest;
  opt.manifest_members_fn = [] { return std::string(); };
  Runner r(opt);
  std::vector<Job> js(1);
  js[0].fn = [] {};
  r.run(std::move(js));
  // An empty result adds nothing: run_digest is followed directly by
  // jobs_flag, as in a manifest without the fn.
  std::string m = manifest.str();
  size_t run = m.find("\"run_digest\"");
  ASSERT_NE(run, std::string::npos) << m;
  EXPECT_EQ(m.find("\n", run) + 1, m.find("  \"jobs_flag\"")) << m;
}

// Progress-line policy: redirected output (stderr not a TTY) must stay free
// of throttled status lines, with --progress / TSXLAB_PROGRESS overrides.
TEST(Runner, ProgressForcedOffEmitsNothing) {
  std::ostringstream progress;
  RunnerOptions opt;
  opt.jobs = 1;
  opt.progress_stream = &progress;
  opt.assume_tty = 0;  // forced off beats the injected-stream auto-on
  Runner r(opt);
  std::vector<Job> js(3);
  for (Job& j : js) j.fn = [] {};
  r.run(std::move(js));
  EXPECT_EQ(progress.str(), "");
}

TEST(Runner, ProgressForcedOnEmitsFinalSummary) {
  std::ostringstream progress;
  RunnerOptions opt;
  opt.jobs = 1;
  opt.bench_id = "unit_progress";
  opt.progress_stream = &progress;
  opt.assume_tty = 1;
  Runner r(opt);
  std::vector<Job> js(3);
  for (Job& j : js) j.fn = [] {};
  r.run(std::move(js));
  EXPECT_NE(progress.str().find("[unit_progress] 3/3 jobs"),
            std::string::npos)
      << progress.str();
  EXPECT_NE(progress.str().find("(done)"), std::string::npos);
}

TEST(Runner, ProgressEnvOverridesAssumeTty) {
  ASSERT_EQ(setenv("TSXLAB_PROGRESS", "0", 1), 0);
  std::ostringstream progress;
  RunnerOptions opt;
  opt.jobs = 1;
  opt.progress_stream = &progress;
  opt.assume_tty = 1;  // env wins over the forced-on override
  Runner r(opt);
  std::vector<Job> js(2);
  for (Job& j : js) j.fn = [] {};
  r.run(std::move(js));
  unsetenv("TSXLAB_PROGRESS");
  EXPECT_EQ(progress.str(), "");
}

TEST(Digest, OrderAndValueSensitive) {
  Digest a, b, c;
  a.add(uint64_t{1});
  a.add(uint64_t{2});
  b.add(uint64_t{2});
  b.add(uint64_t{1});
  c.add(uint64_t{1});
  c.add(uint64_t{2});
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
  EXPECT_EQ(a.hex().substr(0, 2), "0x");
}

// The load-bearing guarantee behind --jobs: distinct TxRuntime/Machine
// instances share no mutable state, so simulations running concurrently on
// host threads produce bit-identical reports to the same simulations run
// serially. This is the harness-level proof for the full bench drivers'
// byte-identical stdout (also enforced end-to-end in CI).
TEST(Runner, ConcurrentSimulationsMatchSerialBitForBit) {
  using tsx::core::Backend;

  auto simulate = [](size_t i) {
    tsx::core::RunConfig cfg;
    cfg.backend = i % 2 ? Backend::kRtm : Backend::kTinyStm;
    cfg.threads = 2;
    cfg.seed = 7000 + i;
    cfg.machine.seed = 7000 + i;
    tsx::eigenbench::EigenConfig eb;
    eb.loops = 20;
    eb.reads_mild = 18;
    eb.writes_mild = 2;
    eb.ws_bytes = 8 * 1024;
    auto res = tsx::eigenbench::run(cfg, eb);
    // Fingerprint everything the bench drivers derive rows from.
    Digest d;
    d.add(res.report.wall_cycles);
    d.add(res.report.joules());
    d.add(res.report.rtm.abort_rate());
    d.add(res.report.stm.abort_rate());
    d.add(res.read_checksum);
    return d.value();
  };
  auto meta = [](size_t i) {
    Job j;
    j.seed = 7000 + i;
    return j;
  };

  Runner serial(quiet(1));
  Runner pooled(quiet(6));
  auto a = serial.map<uint64_t>(12, simulate, meta);
  auto b = pooled.map<uint64_t>(12, simulate, meta);
  EXPECT_EQ(a, b);
}

}  // namespace
