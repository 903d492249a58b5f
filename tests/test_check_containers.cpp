// Property tests of the STAMP lib containers under concurrent transactional
// mutation, driven through the differential oracle (src/check/oracle.h):
// each workload mutates a container from several simulated threads with
// per-thread disjoint key partitions, then compares the final contents
// against a sequential std:: reference, validates structural invariants
// (red-black shape, element conservation), and replays the recorded history
// through the serializability checker.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "check/oracle.h"

namespace {

using tsx::check::OracleConfig;
using tsx::check::WorkloadResult;
using tsx::core::Backend;

// The workload name is a std::string, not a const char*: gtest prints a
// pointer parameter by address, and ctest registers that printout as part of
// the test name, so a pointer would give the tests a new name on every build.
class ContainerOracle
    : public ::testing::TestWithParam<std::tuple<std::string, Backend>> {};

TEST_P(ContainerOracle, MatchesSequentialReference) {
  const auto& [workload, backend] = GetParam();
  for (uint64_t seed : {1ull, 17ull, 99ull}) {
    OracleConfig cfg;
    cfg.threads = 2;
    cfg.loops = 24;
    cfg.seed = seed;
    cfg.machine_seed = seed * 977 + 13;
    WorkloadResult r = tsx::check::run_workload(workload, backend, cfg);
    EXPECT_TRUE(r.ok) << workload << " seed " << seed << ": " << r.error;
  }
}

TEST_P(ContainerOracle, MatchesReferenceAtFourThreadsWithJitter) {
  const auto& [workload, backend] = GetParam();
  OracleConfig cfg;
  cfg.threads = 4;
  cfg.loops = 16;
  cfg.seed = 23;
  cfg.jitter_window = 64;
  cfg.quantum_ops = 2;
  WorkloadResult r = tsx::check::run_workload(workload, backend, cfg);
  EXPECT_TRUE(r.ok) << workload << ": " << r.error;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ContainerOracle,
    ::testing::Combine(::testing::Values(std::string("rbtree"),
                                         std::string("hashtable"),
                                         std::string("queue")),
                       ::testing::Values(Backend::kRtm, Backend::kHle,
                                         Backend::kTinyStm, Backend::kTl2,
                                         Backend::kLock, Backend::kCas)),
    [](const auto& inf) {
      return std::get<0>(inf.param) + "_" +
             tsx::core::backend_name(std::get<1>(inf.param));
    });

TEST(ContainerOracle, ContainerDigestsAgreeAcrossAllBackends) {
  OracleConfig cfg;
  cfg.threads = 2;
  cfg.loops = 32;
  cfg.seed = 7;
  tsx::check::OracleResult r = tsx::check::run_oracle(
      {"rbtree", "hashtable", "queue"}, tsx::check::default_backends(), cfg);
  EXPECT_TRUE(r.ok) << r.workload << "/" << r.backend << ": " << r.error;
}

}  // namespace
