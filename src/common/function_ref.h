// A non-owning, non-allocating callable reference (the C++26
// std::function_ref shape, reduced to what the serving layer needs).
//
// std::function type-erases by *owning* a copy of the callable, which
// may heap-allocate (capture lists beyond the SBO) and always costs an
// indirect call through a vtable-ish dispatcher. FunctionRef erases by
// *referencing*: two words (object pointer + trampoline pointer), no
// allocation ever, one indirect call. The referenced callable must
// outlive every invocation — which is exactly the WorkerPool::RunShards
// contract, where the job lives on the caller's stack for the duration
// of the (blocking) parallel region.
//
// Accepts lambdas (with or without captures), function objects, and
// plain function pointers; see tests/function_ref_test.cc.

#ifndef TOPK_COMMON_FUNCTION_REF_H_
#define TOPK_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace topk {

template <typename Signature>
class FunctionRef;  // undefined; only the R(Args...) partial below exists

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  // From any callable lvalue (or materialized temporary — which must
  // then outlive only the current full-expression's invocations).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          // A void signature may wrap a value-returning callee
          // (is_invocable_r allows the discard); branch so the
          // trampoline doesn't return the discarded value.
          if constexpr (std::is_void_v<R>) {
            (*static_cast<std::remove_reference_t<F>*>(obj))(
                std::forward<Args>(args)...);
          } else {
            return (*static_cast<std::remove_reference_t<F>*>(obj))(
                std::forward<Args>(args)...);
          }
        }) {}

  // From a plain function (pointer): erased directly, no object to
  // outlive.
  FunctionRef(R (*fn)(Args...)) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(reinterpret_cast<void*>(fn)),
        call_([](void* obj, Args... args) -> R {
          return reinterpret_cast<R (*)(Args...)>(obj)(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace topk

#endif  // TOPK_COMMON_FUNCTION_REF_H_
