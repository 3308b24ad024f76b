#pragma once

#include <condition_variable>
#include <mutex>

#include "core/thread_annotations.hpp"

/// Annotated mutex wrappers for Clang Thread Safety Analysis.
///
/// std::mutex / std::lock_guard carry no capability attributes, so a
/// GUARDED_BY(mutex_) field behind them is invisible to `-Wthread-safety`.
/// dfly::Mutex is a zero-overhead std::mutex wrapper declared as a
/// CAPABILITY, and dfly::MutexLock is the matching SCOPED_CAPABILITY RAII
/// holder. Every cross-thread structure in the repo (BlueprintCache,
/// SubmissionQueue, the serve daemon) locks through these so the analysis
/// can prove each guarded access.
///
/// Condition variables: MutexLock wraps a std::unique_lock, so it can drive a
/// plain std::condition_variable via wait(). The analysis models the
/// capability as continuously held across wait() — the wake path re-acquires
/// before returning, so every guarded access around the wait point is in fact
/// protected. Predicate waits must be written as explicit `while` loops
/// (`while (!ready_) lock.wait(cv);`): a predicate lambda is analysed as a
/// separate function that cannot prove it holds the lock.
namespace dfly {

/// A std::mutex the thread-safety analysis can reason about.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  /// The wrapped std::mutex, for APIs that need the native type (MutexLock's
  /// unique_lock). Annotated callers must not lock through this directly.
  std::mutex& native() { return mutex_; }

 private:
  std::mutex mutex_;
};

/// RAII lock holder (std::unique_lock semantics): acquires in the
/// constructor, releases in the destructor, and supports the mid-scope
/// unlock()/lock() window the SubmissionQueue workers use around cell
/// execution, plus condition-variable waits.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : lock_(mutex.native()) {}
  ~MutexLock() RELEASE() {}  // the unique_lock member releases only if held
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Drop the lock mid-scope (e.g. to run a cell outside the critical
  /// section); pair with lock() before touching guarded state again.
  void unlock() RELEASE() { lock_.unlock(); }
  void lock() ACQUIRE() { lock_.lock(); }

  /// Block on `cv` until notified. The capability is treated as held across
  /// the call (it is released and re-acquired inside); always re-check the
  /// guarded condition in a while loop around this.
  void wait(std::condition_variable& cv) { cv.wait(lock_); }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace dfly
