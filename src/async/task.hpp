// task<T>: the minimal lazy coroutine type the async front-end returns.
//
// Scope deliberately small — this is a queue library, not a coroutine
// framework. What the front-end needs:
//
//   * lazy start (initial_suspend = suspend_always): a task composes into a
//     parent with `co_await`, or is handed to event_loop::spawn; it never
//     runs before someone asks.
//   * symmetric transfer on completion: final_suspend resumes the awaiting
//     continuation directly (no stack growth, no executor round-trip).
//   * RAII frame ownership: destroying a task destroys the frame, INCLUDING
//     a frame suspended mid-await — awaiter destructors run and delist any
//     waiter_hub registration (the destroy-while-suspended contract
//     docs/ASYNC.md §5 spells out, exercised by tests/async_cancel_test).
//
// Exceptions propagate: unhandled exceptions are captured and rethrown from
// await_resume in the awaiting coroutine.
//
// Frame recycling: a task frame comes from a per-thread free list of its
// 64-byte size class (frames up to 1 KiB) and goes back to the free list of
// the thread that destroys it, so a steady loop of co_await round trips
// stops calling the global operator new after its first few rounds. Each
// list holds at most 32 frames; beyond that, and for larger frames, the
// global operator new/delete serve. A thread's lists are freed when it
// exits. Under AddressSanitizer every frame passes straight through to the
// global operators, so ASan's quarantine still sees each destroyed frame.
#pragma once

#if !defined(__cpp_impl_coroutine)
#error "kpq/async requires C++20 coroutines (gate targets on KPQ_HAS_COROUTINES)"
#endif

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <utility>

namespace kpq::async {

namespace detail {

/// The per-thread task-frame free lists (see the header comment).
class frame_pool {
 public:
#if defined(__SANITIZE_ADDRESS__)
  static constexpr bool enabled = false;
#else
  static constexpr bool enabled = true;
#endif
  static constexpr std::size_t class_bytes = 64;
  static constexpr std::size_t classes = 16;  // frames up to 1 KiB
  static constexpr std::uint32_t cap = 32;    // frames kept per class

  static void* allocate(std::size_t n) {
    const std::size_t c = class_of(n);
    if constexpr (enabled) {
      if (c < classes) {
        lists& l = local;
        if (block* b = l.head[c]) {
          l.head[c] = b->next;
          --l.count[c];
          return b;
        }
        return ::operator new((c + 1) * class_bytes);
      }
    }
    return ::operator new(n);
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t c = class_of(n);
    if constexpr (enabled) {
      if (c < classes) {
        lists& l = local;
        if (l.count[c] < cap && !l.closed) {
          if (!l.drain_armed) {
            l.drain_armed = true;
            (void)&drain;  // first use registers the thread-exit drain
          }
          l.head[c] = ::new (p) block{l.head[c]};
          ++l.count[c];
          return;
        }
        ::operator delete(p, (c + 1) * class_bytes);
        return;
      }
    }
    ::operator delete(p, n);
  }

 private:
  struct block {
    block* next;
  };
  // Trivially destructible, so it stays usable while other thread_locals
  // (and, on the main thread, statics) destroy frames after the drain ran.
  struct lists {
    block* head[classes];
    std::uint32_t count[classes];
    bool drain_armed;
    bool closed;  // drained at thread exit: every later free is global
  };
  struct drainer {
    ~drainer() {
      lists& l = local;
      l.closed = true;
      for (std::size_t c = 0; c < classes; ++c) {
        while (block* b = l.head[c]) {
          l.head[c] = b->next;
          ::operator delete(b, (c + 1) * class_bytes);
        }
        l.count[c] = 0;
      }
    }
  };

  static constexpr std::size_t class_of(std::size_t n) noexcept {
    return n == 0 ? 0 : (n - 1) / class_bytes;
  }

  static inline thread_local constinit lists local{};
  static inline thread_local drainer drain{};
};

struct promise_base {
  static void* operator new(std::size_t n) { return frame_pool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    frame_pool::deallocate(p, n);
  }

  std::coroutine_handle<> continuation;  // resumed on completion (if any)
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct final_awaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  final_awaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] task;

template <typename T>
class [[nodiscard]] task {
 public:
  struct promise_type : detail::promise_base {
    std::optional<T> value;
    task get_return_object() {
      return task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };
  using handle_type = std::coroutine_handle<promise_type>;

  task() = default;
  explicit task(handle_type h) noexcept : h_(h) {}
  task(task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  task& operator=(task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  task(const task&) = delete;
  task& operator=(const task&) = delete;
  ~task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(h_); }
  bool done() const noexcept { return h_ && h_.done(); }

  /// Manual driving (tests, spawn wrappers): run until the first suspension.
  void start() {
    assert(h_ && !h_.done());
    h_.resume();
  }

  /// Completed value; valid once done(). Rethrows the task's exception.
  T take() {
    assert(done());
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
    return std::move(*h_.promise().value);
  }

  auto operator co_await() && noexcept {
    struct awaiter {
      handle_type h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // symmetric transfer into the child
      }
      T await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
        return std::move(*h.promise().value);
      }
    };
    return awaiter{h_};
  }

 private:
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  handle_type h_{};
};

template <>
class [[nodiscard]] task<void> {
 public:
  struct promise_type : detail::promise_base {
    task get_return_object() {
      return task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };
  using handle_type = std::coroutine_handle<promise_type>;

  task() = default;
  explicit task(handle_type h) noexcept : h_(h) {}
  task(task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  task& operator=(task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  task(const task&) = delete;
  task& operator=(const task&) = delete;
  ~task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(h_); }
  bool done() const noexcept { return h_ && h_.done(); }

  void start() {
    assert(h_ && !h_.done());
    h_.resume();
  }

  void take() {
    assert(done());
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

  /// Release frame ownership (spawn wrappers that tie the frame's lifetime
  /// to its own completion take over).
  handle_type release() noexcept { return std::exchange(h_, {}); }

  auto operator co_await() && noexcept {
    struct awaiter {
      handle_type h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
      }
    };
    return awaiter{h_};
  }

 private:
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  handle_type h_{};
};

}  // namespace kpq::async
