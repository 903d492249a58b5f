#pragma once
// Non-owning callable reference (a function_ref) for the simulator's
// dispatch seams (DESIGN.md §10).
//
// std::function on a per-transaction or per-fill path costs a possible heap
// allocation at construction (captures beyond the SBO budget) and an
// indirect call through a type-erased manager. FnRef is two words — a
// context pointer and a trampoline — constructed for free from any callable
// lvalue/rvalue at the call site. It does NOT extend the callable's
// lifetime: only pass it down synchronous call chains (transaction bodies,
// eviction callbacks) where the referent outlives the call. Seams that
// *store* callables (sim::TraceHooks, AbortFn) keep std::function.

#include <memory>
#include <type_traits>
#include <utility>

namespace tsx::util {

template <typename Sig>
class FnRef;

template <typename R, typename... Args>
class FnRef<R(Args...)> {
 public:
  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, FnRef>, int> = 0>
  FnRef(F&& f) noexcept  // NOLINT: implicit by design, mirrors function_ref
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace tsx::util
