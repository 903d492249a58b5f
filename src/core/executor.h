#pragma once
// core::TxExecutor: the uniform interface every concurrency-control backend
// implements. TxRuntime holds exactly one executor, built by make_executor()
// from the configured Backend — there is no per-backend dispatch anywhere
// else in the runtime.
//
// Responsibilities of an executor:
//   * execute(): run a body as one atomic block (attempts, retries,
//     fallback — per its core::RetryPolicy where applicable), opening and
//     closing every attempt through the ExecutorEnv bracket (heap scope,
//     recorder units, sink); the engines it wraps take the same env;
//   * load()/store(): the transactional data path used by TxCtx inside
//     atomic blocks (STM-backed executors route these through tx_read/
//     tx_write; everything else goes straight to the machine);
//   * report its statistics for RunReport.
//
// Concrete executors live in executors.cpp; nothing outside it needs their
// types.

#include <memory>
#include <utility>
#include <vector>

#include "core/executor_env.h"
#include "htm/rtm.h"
#include "sim/machine.h"
#include "stm/common.h"
#include "util/fn_ref.h"

namespace tsx::core {

struct RunConfig;  // core/runtime.h

// Result of one *elision* attempt batch (TxExecutor::elide): the body either
// committed speculatively, bailed because the subscribed lock word was held,
// or aborted for a data/capacity/interrupt reason. The caller (src/elide)
// owns the retry loop — the executor runs exactly one speculative attempt so
// the lock layer can meter attempts against its own core::RetryPolicy and
// per-lock statistics.
enum class ElideOutcome : uint8_t {
  kCommitted = 0,
  kLockBusy = 1,
  kAborted = 2,
};

class TxExecutor {
 public:
  explicit TxExecutor(const ExecutorEnv& env) : env_(env) {}
  virtual ~TxExecutor() = default;
  TxExecutor(const TxExecutor&) = delete;
  TxExecutor& operator=(const TxExecutor&) = delete;

  virtual const char* name() const = 0;

  // Runs `body` as one atomic block for the calling context. `site` labels
  // the static transaction site for per-site statistics. The body reference
  // is non-owning (util::FnRef): executors run it synchronously and never
  // store it.
  virtual void execute(util::FnRef<void()> body, uint32_t site) = 0;

  // Transactional data path for TxCtx inside atomic blocks. The default is
  // a plain machine access (hardware or a lock does the bookkeeping).
  virtual sim::Word load(sim::CtxId ctx, sim::Addr a) {
    (void)ctx;
    return env_.machine->load(a);
  }
  virtual void store(sim::CtxId ctx, sim::Addr a, sim::Word v) {
    (void)ctx;
    env_.machine->store(a, v);
  }

  // --- Lock-elision seam (src/elide) -------------------------------------
  //
  // elide(): one speculative attempt at `body` with `lock_word` subscribed
  // (read inside the transaction, aborting with kLockBusy when non-zero).
  // `lock_word == 0` means "do not subscribe" — only the broken-elision
  // canary passes that (the simulated heap starts at 0x4'0000'0000, so 0 is
  // never a real lock). The default runs the body through execute() with a
  // pre-check of the word, which is correct for the global-lock and serial
  // backends; speculative backends override it in executors.cpp.
  virtual ElideOutcome elide(util::FnRef<void()> body, sim::Addr lock_word,
                             uint32_t site);

  // elide_fallback(): run `body` non-speculatively while the *caller*
  // already holds its fallback lock. Brackets the heap transaction scope and
  // the check recorder unit so elided and fallback executions leave the same
  // history shape. STM-backed executors override it to run the body as a
  // software transaction, which keeps stripe versions moving and so doom
  // concurrently elided readers (opacity).
  virtual void elide_fallback(util::FnRef<void()> body, uint32_t site);

  // Lock-word read-modify-writes for the fallback path. Raw machine RMWs by
  // default; STM-backed executors wrap them in small software transactions
  // so lock-word transitions version-bump their stripes.
  virtual bool lock_cas(sim::Addr a, sim::Word expected, sim::Word desired);
  virtual sim::Word lock_fetch_add(sim::Addr a, sim::Word delta);

  // True while `ctx` runs a live software transaction (raw atomics are then
  // a programming error, and machine-level trace events are metadata).
  virtual bool stm_active(sim::CtxId ctx) const {
    (void)ctx;
    return false;
  }

  // True while the calling context executes under a serial fallback lock
  // (i.e. non-speculatively and exclusively).
  virtual bool in_serial_fallback() const { return false; }

  // Statistics views merged into RunReport; zeroed when not applicable.
  virtual htm::RtmStats rtm_stats() const { return {}; }
  virtual stm::StmStats stm_stats() const { return {}; }
  virtual std::vector<std::pair<uint32_t, htm::RtmStats>> rtm_site_stats()
      const {
    return {};
  }

 protected:
  ExecutorEnv env_;
};

// Registry keyed on RunConfig::backend. Throws std::invalid_argument for a
// Backend value outside the X-macro table.
std::unique_ptr<TxExecutor> make_executor(const RunConfig& cfg,
                                          const ExecutorEnv& env);

}  // namespace tsx::core
