// Composable object futures: the public asynchrony surface of the repo.
//
// A `Ref<T>` is a deterministic, simulator-driven future, usually bound to
// an ObjectID (`id()`): `HopliteClient::{Put,Get,Delete,Reduce}` and the
// baselines return one immediately (§2.1: tasks "return object futures
// immediately"). It is the only completion mechanism above the engine: each
// op settles its promise where its work finishes.
// Continuations attached with `Then` run *inline* at the simulated instant
// the ref settles — attaching a continuation never schedules an event of
// its own — so a ref adds no events and no latency to the op it reports.
// Determinism is inherited from the Simulator: settle order is event order,
// and continuations fire in attach order.
//
// A ref settles exactly once, either with a value or with a `RefError`.
// Errors propagate down `Then` chains and through `WhenAll` without running
// the skipped continuations, so a future observing a killed producer, a
// Delete'd object or a timeout surfaces that fact instead of silently never
// firing (the classic lost-callback bug of raw continuation plumbing).
//
// Combinators:
//   ref.Then(fn)          chain; fn may return a value, void, or another Ref
//                         (which is flattened)
//   ref.OnError(fn)       observe failure; value passes through untouched
//   ref.OnSettled(fn)     observe settlement (success or failure)
//   ref.WithTimeout(d)    mirror that fails with kTimeout after `d` if the
//                         source has not settled (Table 1's Get timeout)
//   WhenAll(refs)         all values, in input order; first error rejects
//   WhenAllSettled(refs)  per-ref outcomes, in input order; never rejects
//                         (the error-tolerant variant the workload backend's
//                         AllOk builds on: a broadcast op settles once every
//                         receiver's Get has, failed or not)
//   After(sim, d)         a ref that becomes ready `d` from now
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/logging.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace hoplite {

/// Value type of refs that carry a completion, not data.
struct Unit {};

enum class RefErrorCode {
  kProducerLost,  ///< the producing node/task died and will not be replayed
  kDeleted,       ///< the bound object was Delete'd while the ref was pending
  kTimeout,       ///< WithTimeout / GetOptions::timeout expired
  kThrottled,     ///< per-tenant admission control rejected the op (QoS);
                  ///< RefError::retry_after hints when to resubmit
};

[[nodiscard]] constexpr const char* RefErrorCodeName(RefErrorCode code) noexcept {
  switch (code) {
    case RefErrorCode::kProducerLost: return "producer-lost";
    case RefErrorCode::kDeleted: return "deleted";
    case RefErrorCode::kTimeout: return "timeout";
    case RefErrorCode::kThrottled: return "throttled";
  }
  return "?";
}

/// Why a ref failed. `message` is human-readable context for logs/tests.
struct RefError {
  RefErrorCode code = RefErrorCode::kProducerLost;
  std::string message{};
  /// kThrottled only: how long until the tenant's token bucket would admit
  /// the op (0 for every other code).
  SimDuration retry_after = 0;
};

template <typename T>
class Ref;
template <typename T>
class RefPromise;

namespace detail {

/// Shared settle state of one ref. Continuations fire inline on settle, in
/// attach order; attaching to an already-settled state fires immediately.
template <typename T>
struct RefState {
  sim::Engine* sim = nullptr;
  ObjectID id{};
  bool ready = false;
  bool failed = false;
  T value{};
  RefError error{};
  std::vector<std::function<void(RefState&)>> continuations;

  [[nodiscard]] bool settled() const noexcept { return ready || failed; }

  void Resolve(T v) {
    if (settled()) return;  // first settle wins (e.g. value races a timeout)
    ready = true;
    value = std::move(v);
    Fire();
  }

  void Reject(RefError e) {
    if (settled()) return;
    failed = true;
    error = std::move(e);
    Fire();
  }

  void Listen(std::function<void(RefState&)> fn) {
    if (settled()) {
      fn(*this);
      return;
    }
    continuations.push_back(std::move(fn));
  }

 private:
  void Fire() {
    // Continuations attached *during* the sweep see a settled state and run
    // inline from Listen, preserving overall attach order.
    std::vector<std::function<void(RefState&)>> fns = std::move(continuations);
    continuations.clear();
    for (auto& fn : fns) fn(*this);
  }
};

template <typename U>
struct IsRef : std::false_type {};
template <typename U>
struct IsRef<Ref<U>> : std::true_type {};

/// Ref<U> -> U; anything else is itself. Used to flatten Then chains whose
/// continuation returns another ref.
template <typename R>
struct Flatten {
  using type = R;
};
template <typename U>
struct Flatten<Ref<U>> {
  using type = U;
};

}  // namespace detail

/// A handle to a (possibly settled) future. Cheap to copy; all copies share
/// one settle state. A default-constructed Ref is invalid until assigned.
template <typename T>
class Ref {
 public:
  using value_type = T;

  Ref() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// The ObjectID this future is bound to (nil for derived/combined refs).
  [[nodiscard]] ObjectID id() const { return Checked().id; }
  [[nodiscard]] sim::Engine* simulator() const { return Checked().sim; }

  [[nodiscard]] bool settled() const { return Checked().settled(); }
  [[nodiscard]] bool ready() const { return Checked().ready; }
  [[nodiscard]] bool failed() const { return Checked().failed; }

  [[nodiscard]] const T& value() const {
    const auto& state = Checked();
    HOPLITE_CHECK(state.ready) << "Ref::value() on a non-ready ref";
    return state.value;
  }
  [[nodiscard]] const RefError& error() const {
    const auto& state = Checked();
    HOPLITE_CHECK(state.failed) << "Ref::error() on a non-failed ref";
    return state.error;
  }

  /// Chains `fn` onto this ref: it runs inline when (and only when) the ref
  /// becomes ready, receiving the value (or nothing, for nullary callables).
  /// Returns a ref for fn's result; a returned Ref<U> is flattened. Failure
  /// of this ref skips `fn` and fails the returned ref with the same error.
  template <typename F>
  auto Then(F fn) const {
    if constexpr (std::is_invocable_v<F, const T&>) {
      return ThenImpl<std::invoke_result_t<F, const T&>>(std::move(fn));
    } else {
      static_assert(std::is_invocable_v<F>,
                    "Then continuation must accept (const T&) or nothing");
      return ThenImpl<std::invoke_result_t<F>>(
          [fn = std::move(fn)](const T&) mutable { return fn(); });
    }
  }

  /// Observes failure; `fn` runs inline when the ref fails. Returns *this so
  /// a chain can end with `.OnError(...)`. Success passes through untouched.
  const Ref& OnError(std::function<void(const RefError&)> fn) const {
    Shared().Listen([fn = std::move(fn)](detail::RefState<T>& state) {
      if (state.failed) fn(state.error);
    });
    return *this;
  }

  /// Observes settlement either way; `fn` receives this (settled) ref.
  const Ref& OnSettled(std::function<void(const Ref&)> fn) const {
    // Weak self-capture: the continuation lives inside the state it hands
    // back, so a strong capture would be a shared_ptr cycle that leaks every
    // never-settled ref. At fire time the state is alive (the producer holds
    // it), so lock() cannot fail.
    std::weak_ptr<detail::RefState<T>> weak = state_;
    Shared().Listen([fn = std::move(fn), weak](detail::RefState<T>&) {
      if (auto state = weak.lock()) fn(Ref(std::move(state)));
    });
    return *this;
  }

  /// A mirror of this ref that fails with kTimeout if the source has not
  /// settled within `timeout` from now (simulated time). Settling first
  /// cancels the timer, so a drained event queue is not held open.
  [[nodiscard]] Ref WithTimeout(SimDuration timeout) const {
    auto& state = Shared();
    HOPLITE_CHECK(state.sim != nullptr) << "WithTimeout needs a simulator-bound ref";
    if (state.settled()) return *this;
    RefPromise<T> mirror(state.sim, state.id);
    const sim::EventId timer = state.sim->ScheduleAfter(timeout, [mirror, timeout] {
      mirror.Reject(RefError{RefErrorCode::kTimeout,
                             "unsettled after " + std::to_string(timeout) + " ns"});
    });
    sim::Engine* sim = state.sim;
    state.Listen([mirror, sim, timer](detail::RefState<T>& settled) {
      sim->Cancel(timer);
      if (settled.failed) {
        mirror.Reject(settled.error);
      } else {
        mirror.Resolve(settled.value);
      }
    });
    return mirror.ref();
  }

 private:
  friend class RefPromise<T>;
  template <typename U>
  friend class Ref;

  explicit Ref(std::shared_ptr<detail::RefState<T>> state) : state_(std::move(state)) {}

  detail::RefState<T>& Shared() const {
    HOPLITE_CHECK(state_ != nullptr) << "operation on an invalid (default) Ref";
    return *state_;
  }
  const detail::RefState<T>& Checked() const { return Shared(); }

  template <typename R, typename F>
  auto ThenImpl(F fn) const {
    using U = std::conditional_t<
        std::is_void_v<R>, Unit,
        std::conditional_t<detail::IsRef<R>::value, typename detail::Flatten<R>::type, R>>;
    RefPromise<U> downstream(Checked().sim, ObjectID{});
    Shared().Listen([fn = std::move(fn), downstream](detail::RefState<T>& state) mutable {
      if (state.failed) {
        downstream.Reject(state.error);
        return;
      }
      if constexpr (std::is_void_v<R>) {
        fn(state.value);
        downstream.Resolve(Unit{});
      } else if constexpr (detail::IsRef<R>::value) {
        R inner = fn(state.value);
        inner.Shared().Listen([downstream](auto& inner_state) {
          if (inner_state.failed) {
            downstream.Reject(inner_state.error);
          } else {
            downstream.Resolve(inner_state.value);
          }
        });
      } else {
        downstream.Resolve(fn(state.value));
      }
    });
    return downstream.ref();
  }

  std::shared_ptr<detail::RefState<T>> state_;
};

/// Producer side of a Ref. Cheap to copy; all copies settle the same state.
/// Resolve/Reject are idempotent: the first settle wins, later ones no-op
/// (which is what lets a value race a timeout or a teardown deterministically).
template <typename T>
class RefPromise {
 public:
  RefPromise() = default;
  RefPromise(sim::Engine* sim, ObjectID id)
      : state_(std::make_shared<detail::RefState<T>>()) {
    state_->sim = sim;
    state_->id = id;
  }

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] Ref<T> ref() const {
    HOPLITE_CHECK(state_ != nullptr);
    return Ref<T>(state_);
  }
  [[nodiscard]] bool settled() const { return state_ != nullptr && state_->settled(); }

  void Resolve(T value) const {
    HOPLITE_CHECK(state_ != nullptr);
    state_->Resolve(std::move(value));
  }
  void Reject(RefError error) const {
    HOPLITE_CHECK(state_ != nullptr);
    state_->Reject(std::move(error));
  }

 private:
  std::shared_ptr<detail::RefState<T>> state_;
};

/// A ref that becomes ready (with Unit) `delay` from now. The building block
/// for modelling compute phases inside a Then chain.
[[nodiscard]] inline Ref<Unit> After(sim::Engine& sim, SimDuration delay) {
  RefPromise<Unit> promise(&sim, ObjectID{});
  sim.ScheduleAfter(delay, [promise] { promise.Resolve(Unit{}); });
  return promise.ref();
}

/// A ref that becomes ready (with Unit) at absolute simulated time `t`.
[[nodiscard]] inline Ref<Unit> At(sim::Engine& sim, SimTime t) {
  RefPromise<Unit> promise(&sim, ObjectID{});
  sim.ScheduleAt(t, [promise] { promise.Resolve(Unit{}); });
  return promise.ref();
}

/// All values of `refs`, in input order, once every ref is ready. The first
/// failure rejects the result immediately with that ref's error. An empty
/// input resolves immediately.
template <typename T>
[[nodiscard]] Ref<std::vector<T>> WhenAll(const std::vector<Ref<T>>& refs) {
  sim::Engine* sim = nullptr;
  for (const Ref<T>& ref : refs) {
    HOPLITE_CHECK(ref.valid()) << "WhenAll over an invalid ref";
    if (ref.simulator() != nullptr) sim = ref.simulator();
  }
  RefPromise<std::vector<T>> promise(sim, ObjectID{});
  if (refs.empty()) {
    promise.Resolve({});
    return promise.ref();
  }
  auto values = std::make_shared<std::vector<T>>(refs.size());
  auto remaining = std::make_shared<std::size_t>(refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    refs[i].OnSettled([promise, values, remaining, i](const Ref<T>& settled) {
      if (promise.settled()) return;
      if (settled.failed()) {
        promise.Reject(settled.error());
        return;
      }
      (*values)[i] = settled.value();
      if (--*remaining == 0) promise.Resolve(std::move(*values));
    });
  }
  return promise.ref();
}

/// Outcome of one ref inside a WhenAllSettled result: either the value or
/// the error, plus the id the ref was bound to.
template <typename T>
struct Settled {
  ObjectID id{};
  bool ok = false;
  T value{};       ///< meaningful iff ok
  RefError error{};  ///< meaningful iff !ok
};

/// The outcome of every ref of `refs`, in input order, once all of them have
/// settled — success or failure. Unlike WhenAll, a failed input does not
/// reject the result: its slot records the error and the combinator keeps
/// waiting for the rest. The returned ref always resolves, never fails. An
/// empty input resolves immediately.
template <typename T>
[[nodiscard]] Ref<std::vector<Settled<T>>> WhenAllSettled(const std::vector<Ref<T>>& refs) {
  sim::Engine* sim = nullptr;
  for (const Ref<T>& ref : refs) {
    HOPLITE_CHECK(ref.valid()) << "WhenAllSettled over an invalid ref";
    if (ref.simulator() != nullptr) sim = ref.simulator();
  }
  RefPromise<std::vector<Settled<T>>> promise(sim, ObjectID{});
  if (refs.empty()) {
    promise.Resolve({});
    return promise.ref();
  }
  auto outcomes = std::make_shared<std::vector<Settled<T>>>(refs.size());
  auto remaining = std::make_shared<std::size_t>(refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    refs[i].OnSettled([promise, outcomes, remaining, i](const Ref<T>& settled) {
      Settled<T>& slot = (*outcomes)[i];
      slot.id = settled.id();
      if (settled.failed()) {
        slot.ok = false;
        slot.error = settled.error();
      } else {
        slot.ok = true;
        slot.value = settled.value();
      }
      if (--*remaining == 0) promise.Resolve(std::move(*outcomes));
    });
  }
  return promise.ref();
}

}  // namespace hoplite
