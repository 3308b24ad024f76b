#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/mutex.hpp"

/// Parallel experiment execution.
///
/// Every study in this suite is a sweep of independent (config, seed) cells:
/// each cell builds its own Engine, Network, Rng and stats, runs to
/// completion, and emits a Report. Cells share nothing, so they shard
/// trivially across threads — the only discipline required is that results
/// land in pre-sized slots indexed by cell, which makes the aggregate output
/// bit-identical to a sequential run regardless of worker count or
/// completion order. Every campaign runs its cells on a SubmissionQueue: a
/// private one per run_plan call, or the daemon's shared one.
namespace dfly {

/// Per-worker exception diagnostics collected by a run_indexed() call: how
/// many cells each worker lost and what the first failure on each worker
/// looked like — enough to tell "one pathological cell" from "worker 3's
/// arena is poisoned" from "the disk filled up everywhere". run_plan()
/// forwards this into PlanOutcome.
struct WorkerErrors {
  struct Worker {
    std::size_t failures{0};  ///< cells whose fn threw on this worker
    std::string first;        ///< what() of this worker's first exception
  };
  std::vector<Worker> workers;  ///< index = worker id (size = worker count)

  std::size_t total() const {
    std::size_t sum = 0;
    for (const Worker& worker : workers) sum += worker.failures;
    return sum;
  }
  bool any() const { return total() > 0; }
  /// "worker 0: 3 failures, first: bad_alloc; worker 2: ..." (empty when
  /// clean) — the one-line form the CLI prints.
  std::string summary() const;
};

/// Worker count for a pool of independent cells (--jobs). `requested` > 0
/// wins; else DFSIM_JOBS (which must be a positive integer, parsed strictly
/// over the whole string — "4x", "abc", "" and "0" throw
/// std::invalid_argument with one clear line, exactly like a bad config
/// value, instead of being silently truncated or ignored); else `fallback`
/// (clamped to >= 1). The same resolution backs the `--jobs=N` flag on
/// `dflysim` and on every bench binary.
int resolve_jobs(int requested, int fallback = 1);

/// Per-cell peak-RSS budget used by memory_jobs_cap(): the measured
/// high-water mutable footprint of one full 1,056-node cell *with* blueprint
/// sharing and arena reuse on, rounded up generously. Re-derive from the
/// BENCH_memory.json CI artifact when the footprint moves. This is a
/// paper-shape heuristic: sweeps over substantially larger custom topologies
/// should bound workers explicitly (--jobs / DFSIM_JOBS), which always
/// overrides the derived cap.
inline constexpr std::uint64_t kCellBudgetBytes = 192ull << 20;  // 192 MiB

/// Workers admitted by available memory: in-flight cells may budget at most
/// half of the memory this process can actually use — physical RAM, further
/// limited by a cgroup ceiling when one is set (containers/CI) — at
/// kCellBudgetBytes each (the blueprint keeps the read-only plan out of that
/// constant). Falls back to 12 when no limit can be determined; clamped to
/// [1, 256].
int memory_jobs_cap();

/// min(hardware_concurrency, memory_jobs_cap()), at least 1: the worker
/// count that keeps the pool within the machine's cores and memory.
int hardware_jobs();

class BlueprintCache;

/// Persistent worker pool with a FIFO submission queue — the one pool every
/// campaign runs on.
///
/// The pool lives as long as the queue: every worker binds a persistent
/// SimArena once, all workers share ONE BlueprintCache, and independent
/// run_indexed() calls — one per campaign, possibly from many threads at
/// once — multiplex their cells onto the same warm workers. run_plan builds
/// a private queue per call; the daemon (`dflysim --serve`) keeps one for
/// its whole lifetime, so the second campaign of a given shape starts with
/// hot storage and a prebuilt blueprint instead of paying setup cost again.
///
/// Scheduling is FIFO across submissions and index-ordered within one:
/// workers drain the oldest submission's unclaimed cells first, so an
/// earlier campaign is never starved by a later one. Cell -> worker
/// assignment is output-neutral (arena reuse and blueprint sharing never
/// change bytes), so results are identical for any worker count.
class SubmissionQueue {
 public:
  /// `jobs` resolves through resolve_jobs(jobs): > 0 exact, else
  /// DFSIM_JOBS, else one worker. Workers start immediately and run until
  /// destruction.
  explicit SubmissionQueue(int jobs = 0);
  /// Drains nothing: callers must not destroy the queue while a
  /// run_indexed() call is in flight. Joins all workers.
  ~SubmissionQueue();
  SubmissionQueue(const SubmissionQueue&) = delete;
  SubmissionQueue& operator=(const SubmissionQueue&) = delete;

  int jobs() const { return jobs_; }

  /// The pool-wide blueprint cache every worker reads through; its stats
  /// prove cross-campaign sharing (the daemon's `stats` op reports them).
  BlueprintCache& cache() { return *cache_; }

  /// Invoke fn(0) .. fn(n-1) on the pool and block until every call
  /// finished. Thread-safe: concurrent calls queue FIFO and interleave on
  /// the shared workers. `fn` must only touch state owned by cell i — see
  /// the thread-safety notes on PacketPool, LinkStats and Rng. Nothing is
  /// rethrown: every cell is attempted, and per-worker failure diagnostics
  /// land in *errors when provided (entries are indexed by pool worker id).
  /// Callers that isolate failures per cell (run_plan) catch inside fn
  /// themselves, so entries here indicate infrastructure failures.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                   WorkerErrors* errors = nullptr);

 private:
  /// One run_indexed() call in flight. Every field is written under the
  /// queue-wide mutex_ (a nested struct cannot name the enclosing member in
  /// GUARDED_BY, so the discipline is enforced at the SubmissionQueue level:
  /// batches are only reachable through pending_, which is guarded).
  struct Batch {
    std::size_t n{0};
    const std::function<void(std::size_t)>* fn{nullptr};
    std::size_t next{0};       ///< first unclaimed index
    std::size_t remaining{0};  ///< cells not yet finished
    WorkerErrors errors;       ///< per pool worker, guarded by queue mutex
    std::condition_variable done_cv;
  };

  void worker_main(std::size_t id);

  int jobs_;
  std::unique_ptr<BlueprintCache> cache_;
  Mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<Batch*> pending_ GUARDED_BY(mutex_);  ///< unclaimed batches, FIFO
  bool stopping_ GUARDED_BY(mutex_){false};
  std::vector<std::thread> workers_;
};

}  // namespace dfly
