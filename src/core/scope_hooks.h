#pragma once
// core::ScopeHooks: callbacks bracketing every speculative attempt and
// fallback execution of the HTM, HLE and STM engines. The runtime installs
// them for heap-allocation scoping (undoing allocations of aborted attempts)
// and history recording.
//
// Leaf header, like core/retry_policy.h: htm/ and stm/ can accept hooks
// without linking against tsx_core.

#include <functional>

namespace tsx::core {

struct ScopeHooks {
  std::function<void()> begin;
  std::function<void()> commit;
  std::function<void()> abort;

  void on_begin() const { if (begin) begin(); }
  void on_commit() const { if (commit) commit(); }
  void on_abort() const { if (abort) abort(); }
};

}  // namespace tsx::core
