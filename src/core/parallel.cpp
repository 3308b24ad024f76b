#include "core/parallel.hpp"

#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/arena.hpp"
#include "core/blueprint.hpp"
#include "core/mutex.hpp"

namespace dfly {

namespace {

/// The value of environment variable `name` as a positive int, or 0 when it
/// is unset. Strict full-string parse: a typo'd value ("4x", "abc", "0")
/// must not silently run the wrong thread count, so anything but a plain
/// positive decimal throws std::invalid_argument with one clear line.
int positive_env_int(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return 0;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(env, &end, 10);
  // strtol tolerates leading whitespace and a '+'; a *strict* value is
  // digits only, so require the first character to be one.
  const bool starts_with_digit = env[0] >= '0' && env[0] <= '9';
  if (!starts_with_digit || end == env || *end != '\0' || errno == ERANGE || value < 1 ||
      value > INT_MAX) {
    throw std::invalid_argument(std::string(name) + " must be a positive integer, got '" +
                                env + "'");
  }
  return static_cast<int>(value);
}

}  // namespace

int resolve_jobs(int requested, int fallback) {
  if (requested > 0) return requested;
  if (const int jobs = positive_env_int("DFSIM_JOBS")) return jobs;
  return fallback < 1 ? 1 : fallback;
}

namespace {

/// The memory actually available to THIS process: the host's physical RAM,
/// further limited by a cgroup memory ceiling when one is set (containers
/// and CI runners routinely cap a process far below the host's RAM, and
/// sysconf reports the host). Returns 0 when nothing can be determined.
std::uint64_t available_memory_bytes() {
  std::uint64_t physical = 0;
#if defined(_SC_PHYS_PAGES) && defined(_SC_PAGE_SIZE)
  const long pages = ::sysconf(_SC_PHYS_PAGES);
  const long page = ::sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page > 0) {
    physical = static_cast<std::uint64_t>(pages) * static_cast<std::uint64_t>(page);
  }
#endif
  // cgroup v2, then v1. The files hold a byte count, "max" (no limit), or a
  // value so large it means "no limit" — anything unparsable is ignored.
  for (const char* path : {"/sys/fs/cgroup/memory.max",
                           "/sys/fs/cgroup/memory/memory.limit_in_bytes"}) {
    std::FILE* f = std::fopen(path, "re");
    if (f == nullptr) continue;
    unsigned long long limit = 0;
    const int matched = std::fscanf(f, "%llu", &limit);
    std::fclose(f);
    if (matched == 1 && limit > 0 &&
        (physical == 0 || static_cast<std::uint64_t>(limit) < physical)) {
      physical = static_cast<std::uint64_t>(limit);
    }
    break;  // only consult the hierarchy that exists
  }
  return physical;
}

}  // namespace

int memory_jobs_cap() {
  const std::uint64_t memory = available_memory_bytes();
  if (memory > 0) {
    const std::uint64_t cells = memory / 2 / kCellBudgetBytes;
    if (cells < 1) return 1;
    if (cells > 256) return 256;
    return static_cast<int>(cells);
  }
  return 12;  // the pre-blueprint fixed cap, kept as the conservative fallback
}

int hardware_jobs() {
  int jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  const int cap = memory_jobs_cap();
  return jobs < cap ? jobs : cap;
}

std::string WorkerErrors::summary() const {
  std::string out;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (workers[w].failures == 0) continue;
    if (!out.empty()) out += "; ";
    out += "worker " + std::to_string(w) + ": " + std::to_string(workers[w].failures) +
           (workers[w].failures == 1 ? " failure" : " failures") + ", first: " +
           workers[w].first;
  }
  return out;
}

namespace {

/// what() of the in-flight exception, with a stable spelling for non-
/// std::exception throwables.
std::string current_exception_message() {
  try {
    throw;
  } catch (const std::exception& error) {
    return error.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

// --- SubmissionQueue ---------------------------------------------------------

SubmissionQueue::SubmissionQueue(int jobs)
    : jobs_(resolve_jobs(jobs)), cache_(std::make_unique<BlueprintCache>()) {
  workers_.reserve(static_cast<std::size_t>(jobs_));
  for (int id = 0; id < jobs_; ++id) {
    workers_.emplace_back(&SubmissionQueue::worker_main, this, static_cast<std::size_t>(id));
  }
}

SubmissionQueue::~SubmissionQueue() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void SubmissionQueue::worker_main(std::size_t id) {
  // Bound for the pool's whole lifetime: the first cell grows the arena's
  // storage and later cells reuse it in place; the shared cache builds each
  // distinct cell shape's immutable plan once and every worker reads it.
  // Both are output-neutral (core/arena.hpp, core/blueprint.hpp).
  SimArena arena;
  ScopedArenaBinding binding(&arena);
  ScopedBlueprintCacheBinding cache_binding(cache_.get());
  MutexLock lock(mutex_);
  for (;;) {
    // Explicit wait loop (not a predicate lambda) so the thread-safety
    // analysis sees every read of the guarded fields under the lock.
    while (!stopping_ && pending_.empty()) lock.wait(work_cv_);
    if (pending_.empty()) {
      if (stopping_) return;
      continue;
    }
    Batch* batch = pending_.front();
    const std::size_t i = batch->next++;
    if (batch->next >= batch->n) pending_.pop_front();  // fully claimed
    lock.unlock();
    bool threw = false;
    std::string message;
    try {
      (*batch->fn)(i);
    } catch (...) {
      threw = true;
      message = current_exception_message();
    }
    lock.lock();
    if (threw) {
      WorkerErrors::Worker& me = batch->errors.workers[id];
      if (me.failures++ == 0) me.first = std::move(message);
    }
    if (--batch->remaining == 0) batch->done_cv.notify_all();
  }
}

void SubmissionQueue::run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                                  WorkerErrors* errors) {
  if (errors != nullptr) {
    errors->workers.clear();
    errors->workers.resize(static_cast<std::size_t>(jobs_));
  }
  if (n == 0) return;
  Batch batch;
  batch.n = n;
  batch.fn = &fn;
  batch.remaining = n;
  batch.errors.workers.resize(static_cast<std::size_t>(jobs_));
  MutexLock lock(mutex_);
  if (stopping_) throw std::runtime_error("SubmissionQueue: pool is shutting down");
  pending_.push_back(&batch);
  work_cv_.notify_all();
  while (batch.remaining != 0) lock.wait(batch.done_cv);
  if (errors != nullptr) *errors = std::move(batch.errors);
}

}  // namespace dfly
