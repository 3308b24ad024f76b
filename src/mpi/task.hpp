#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace dfly::mpi {

/// Minimal coroutine task for simulated MPI programs.
///
/// Motifs are written as straight-line coroutines (`co_await ctx.recv(...)`)
/// instead of the explicit state machines SST/Ember uses — same semantics,
/// far clearer wavefront/collective code. Tasks are lazy (started by the
/// Job), support nesting via symmetric transfer, and return nothing.
/// Frames come from the global allocator.
class [[nodiscard]] Task {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation{};

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        auto continuation = h.promise().continuation;
        return continuation ? continuation : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }  // simulated ranks must not throw
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return !handle_ || handle_.done(); }

  /// Start a top-level task (Job use only; nested tasks start via co_await).
  void start() { handle_.resume(); }

  /// Awaiting a task starts it and resumes the parent when it finishes.
  auto operator co_await() noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return !child || child.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;  // symmetric transfer into the child
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace dfly::mpi
