// Coroutine task types for simulated threads.
//
// A simulated thread ("fiber") is a C++20 coroutine that suspends at every
// modeled operation (memory access beyond the private cache, lock wait, NIC
// interaction) and is resumed by the Engine at the operation's virtual
// completion time. Nested operations (e.g. an index traversal called from a
// worker loop) are Task<T> coroutines awaited with symmetric transfer, so
// nesting adds no event-queue traffic.
//
// Frames are allocated from a size-class free-list pool: the simulator creates
// millions of short-lived traversal coroutines per benchmark point and malloc
// would dominate otherwise.
#ifndef UTPS_SIM_TASK_H_
#define UTPS_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <cstdlib>
#include <utility>

#include "common/macros.h"

namespace utps::sim {

// ---------------------------------------------------------------------------
// Coroutine frame pool. A simulation runs on one host thread; the free lists
// are thread_local so the pool needs no locking even if two host threads each
// run their own simulation.
// ---------------------------------------------------------------------------
class FramePool {
 public:
  static void* Allocate(size_t n) {
    const size_t cls = SizeClass(n);
    if (cls >= kNumClasses) {
      return ::operator new(n);
    }
    Node*& head = free_lists_[cls];
    if (head != nullptr) {
      Node* node = head;
      head = node->next;
      return node;
    }
    return ::operator new(ClassBytes(cls));
  }

  static void Free(void* p, size_t n) {
    const size_t cls = SizeClass(n);
    if (cls >= kNumClasses) {
      ::operator delete(p);
      return;
    }
    Node* node = static_cast<Node*>(p);
    node->next = free_lists_[cls];
    free_lists_[cls] = node;
  }

 private:
  struct Node {
    Node* next;
  };

  // Classes: 64, 128, 256, 512, 1024, 2048 bytes.
  static constexpr size_t kNumClasses = 6;

  static size_t SizeClass(size_t n) {
    size_t cls = 0;
    size_t cap = 64;
    while (cap < n && cls < kNumClasses) {
      cap <<= 1;
      cls++;
    }
    return cls;
  }

  static size_t ClassBytes(size_t cls) { return 64ull << cls; }

  static inline thread_local Node* free_lists_[kNumClasses] = {};
};

// ---------------------------------------------------------------------------
// Task<T>: awaitable coroutine with continuation + symmetric transfer.
// Exceptions are not used in the simulator; unhandled_exception aborts.
// ---------------------------------------------------------------------------
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  struct promise_type {
    std::coroutine_handle<> continuation;
    T value{};

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { std::abort(); }

    static void* operator new(size_t n) { return FramePool::Allocate(n); }
    static void operator delete(void* p, size_t n) { FramePool::Free(p, n); }
  };

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) {
        h_.destroy();
      }
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) {
      h_.destroy();
    }
  }

  // Awaiting a task starts it (tasks are lazily started).
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept {
    h_.promise().continuation = awaiter;
    return h_;
  }
  T await_resume() { return std::move(h_.promise().value); }

  Handle handle() const { return h_; }

 private:
  Handle h_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  struct promise_type {
    std::coroutine_handle<> continuation;

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::abort(); }

    static void* operator new(size_t n) { return FramePool::Allocate(n); }
    static void operator delete(void* p, size_t n) { FramePool::Free(p, n); }
  };

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) {
        h_.destroy();
      }
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) {
      h_.destroy();
    }
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept {
    h_.promise().continuation = awaiter;
    return h_;
  }
  void await_resume() {}

  Handle handle() const { return h_; }

 private:
  Handle h_{};
};

}  // namespace utps::sim

#endif  // UTPS_SIM_TASK_H_
