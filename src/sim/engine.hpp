#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event.hpp"
#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace dfly {

class PdesCell;

/// Cheap per-event-kind schedule/execute counters (Engine::stats()). Kinds
/// 0..15 get their own slot; anything larger lands in the overflow slot so a
/// stray kind cannot index out of bounds. The counters cost one array
/// increment per schedule/dispatch and exist so perf work can see where event
/// volume lives (bench_micro_engine / bench_memory surface them) — they never
/// appear in simulation reports.
struct EngineStats {
  static constexpr std::size_t kKinds = 16;
  std::array<std::uint64_t, kKinds + 1> scheduled_by_kind{};
  std::array<std::uint64_t, kKinds + 1> executed_by_kind{};

  static std::size_t slot(std::uint32_t kind) {
    return kind < kKinds ? kind : kKinds;
  }
  std::uint64_t scheduled_total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : scheduled_by_kind) sum += v;
    return sum;
  }
  std::uint64_t executed_total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : executed_by_kind) sum += v;
    return sum;
  }
};

/// Thrown by Engine::run() when the cooperative wall-clock deadline set with
/// set_wall_deadline() expires. Campaign drivers (core/plan.hpp) catch this
/// to abandon a hung cell and record it as a timeout instead of waiting on it
/// forever; the engine is left in a consistent (tear-down-able) state.
class WallDeadlineExceeded : public std::runtime_error {
 public:
  WallDeadlineExceeded() : std::runtime_error("simulation wall-clock deadline exceeded") {}
};

/// Deterministic sequential discrete-event engine.
///
/// Replaces the SST core for this study: the paper's metrics are statistics
/// over simulated time, so a sequential deterministic engine reproduces them
/// exactly and makes every run replayable from a seed.
///
/// Ordering: events fire in (when, seq) order where seq is the global
/// scheduling order, i.e. same-time events fire in the order scheduled.
///
/// The pending-event queue is an index-based 4-ary min-heap (not the
/// std::push_heap binary heap), split into a key array ((when, seq), 16
/// bytes) and a payload array (target/kind/a/b): half the depth of a binary
/// heap, and the four children compared at each sift level share one cache
/// line, so both schedule and pop touch fewer lines on the multi-million-
/// event runs that dominate a study. run() additionally drains all events
/// carrying the same timestamp in one batch (see run()).
///
/// Thread-safety: none — an Engine, like every component scheduled on it,
/// belongs to exactly one simulation cell. Parallel sweeps (SubmissionQueue)
/// run one Engine per worker-owned cell and never share one across threads.
class Engine {
 public:
  // Special members are out-of-line: closures_ holds unique_ptrs to the
  // nested Closure type, which is only complete inside engine.cpp.
  Engine();
  ~Engine();

  // Movable (so a per-worker arena can lend its storage to the current cell
  // and take it back afterwards) but not copyable. Pending events hold raw
  // Component pointers, so only idle engines should be moved in practice;
  // the arena moves them empty.
  Engine(Engine&& other) noexcept;
  Engine& operator=(Engine&& other) noexcept;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `target->handle` at absolute time `when` (>= now).
  ///
  /// When this engine is one domain of a group-partitioned parallel cell
  /// (src/sim/pdes.hpp), the call is routed through the cell so cross-domain
  /// events land in the creating domain's emission log instead of a foreign
  /// heap; the sequential path pays one predicted-not-taken branch.
  void schedule_at(SimTime when, Component& target, std::uint32_t kind,
                   std::uint64_t a = 0, std::uint64_t b = 0);

  /// Schedule after a relative delay (>= 0).
  void schedule_in(SimTime delay, Component& target, std::uint32_t kind,
                   std::uint64_t a = 0, std::uint64_t b = 0) {
    schedule_at(now_ + delay, target, kind, a, b);
  }

  /// Schedule an owned closure. The closure is one-shot: its slot is
  /// recycled as soon as it fires, so periodic call_in chains do not
  /// accumulate memory over a long run. Slot adapters themselves are pooled
  /// and the callback lives in an InlineFn, so once the engine has grown to a
  /// cell's peak concurrent-closure count, re-arming a slot performs no heap
  /// allocation for any capture up to InlineFn::kInlineBytes (larger ones
  /// fall back to one heap block per arm).
  void call_at(SimTime when, InlineFn fn);
  void call_in(SimTime delay, InlineFn fn) { call_at(now_ + delay, std::move(fn)); }

  /// Run until the queue is empty or `until` is passed. Returns the number
  /// of events executed. Events at exactly `until` are executed.
  ///
  /// Time semantics: the clock only advances when an event executes. After
  /// run(until) returns, now() is the timestamp of the last executed event —
  /// it is NOT bumped to `until` when the queue drains early. Components can
  /// therefore schedule "at now()" after a drained run without time
  /// travelling, and makespan == now() is exact.
  ///
  /// All events sharing the front timestamp are popped in one batch before
  /// any of them executes, so the heap is not re-sifted between same-time
  /// events; events their handlers schedule at the same timestamp join the
  /// next batch (their seq is larger than every already-popped event, so
  /// FIFO order is preserved).
  std::uint64_t run(SimTime until = kSec * 3600);

  /// Execute at most one event; returns false when the queue is empty.
  bool step();

  bool empty() const { return queued() == 0; }
  std::size_t queued() const { return keys_.size() + (batch_.size() - batch_pos_); }
  std::uint64_t executed() const { return executed_; }

  /// Drop every pending event (used by tests and by teardown). Safe to call
  /// from inside a handler: the rest of the current same-time batch is
  /// dropped too. Armed closures are disarmed (their captures destroyed) but
  /// their pooled slot adapters are kept for reuse.
  void clear();

  /// Return the engine to its just-constructed state — clock at 0, sequence
  /// and executed counters zeroed, queue empty — while KEEPING every piece of
  /// backing storage: the heap key/payload arrays, the same-time batch
  /// scratch, and the pooled closure slots with their free list. A reused
  /// engine therefore replays a same-shape cell without re-growing from
  /// empty (see core/arena.hpp). Per-cell peak counters are zeroed too.
  void reset();

  /// Pre-size the queue for `events` concurrently-pending events and pool
  /// `closures` slot adapters, so a run that stays within these bounds never
  /// allocates from schedule_at/call_at.
  void reserve(std::size_t events, std::size_t closures = 0);

  /// Arm a cooperative wall-clock watchdog: run() checks the real clock every
  /// kDeadlineStride events and throws WallDeadlineExceeded once `deadline`
  /// has passed, so a simulation stuck in a pathological state (livelocked
  /// protocol, runaway event chain) is abandoned in bounded real time instead
  /// of hung on. The check costs one predictable branch per event when armed
  /// and nothing measurable when not. clear_wall_deadline() (and reset())
  /// disarm it.
  void set_wall_deadline(std::chrono::steady_clock::time_point deadline) {
    wall_deadline_ = deadline;
    has_wall_deadline_ = true;
    deadline_stride_ = 0;
  }
  void clear_wall_deadline() { has_wall_deadline_ = false; }
  bool has_wall_deadline() const { return has_wall_deadline_; }

  /// Events executed between wall-clock reads while a deadline is armed —
  /// frequent enough that a hung cell is caught within a fraction of a
  /// second, rare enough that steady_clock::now() never shows up in a
  /// profile. The *first* check happens on the first event, so even a
  /// zero-event-budget deadline fires promptly.
  static constexpr std::uint32_t kDeadlineStride = 4096;

  /// Closures allocated by call_at/call_in that have not fired yet
  /// (test hook for the reclamation guarantee).
  std::size_t live_closures() const { return live_closures_; }

  /// Per-event-kind schedule/execute counters since construction or the last
  /// reset(). Observability only — never part of a simulation report.
  const EngineStats& stats() const { return stats_; }

  /// Domain index of this engine inside a parallel cell (0 when sequential
  /// or when this engine is the cell's first domain).
  std::int32_t pdes_domain_id() const { return pdes_domain_id_; }

  /// High-water mark of concurrently-queued events since construction or the
  /// last reset() (sizes the next cell's reserve carry-forward).
  std::size_t peak_queued() const { return peak_queued_; }
  /// Current key/payload array capacity (events the queue holds alloc-free).
  std::size_t event_capacity() const { return keys_.capacity(); }
  /// Pooled closure slot adapters (live + free).
  std::size_t closure_capacity() const { return closures_.size(); }

 private:
  /// Heap ordering key: (when, seq) packed into one 128-bit integer, `when`
  /// in the high 64 bits (event times are never negative, so the unsigned
  /// reinterpretation preserves order). A sift comparison is one branchless
  /// integer compare, and the four children examined at each level span a
  /// single cache line. Same __uint128_t extension Rng already relies on.
  using HeapKey = __uint128_t;

  static HeapKey make_key(SimTime when, std::uint64_t seq) {
    return (static_cast<HeapKey>(static_cast<std::uint64_t>(when)) << 64) | seq;
  }
  static SimTime key_when(HeapKey key) {
    return static_cast<SimTime>(static_cast<std::uint64_t>(key >> 64));
  }
  static std::uint64_t key_seq(HeapKey key) { return static_cast<std::uint64_t>(key); }

  struct Payload {
    Component* target;
    std::uint32_t kind;
    std::uint64_t a, b;
  };
  /// A popped event (key + payload reunited).
  struct Entry {
    HeapKey key;
    Payload load;
  };

  class Closure;

  void push(HeapKey key, Payload load);
  Entry pop_min();
  void sift_up(std::size_t i);
  void dispatch(const Entry& entry);
  void release_closure(std::uint32_t slot);

  /// Parallel-cell hooks (PdesCell only). push_raw inserts an event with a
  /// caller-chosen sequence number, bypassing both next_seq_ and the pdes
  /// routing in schedule_at — the cell uses it to deliver barrier-merged
  /// events with their canonical global seq. attach_pdes/detach_pdes bind
  /// this engine to a cell as domain `domain_id`.
  void push_raw(SimTime when, std::uint64_t seq, Component& target,
                std::uint32_t kind, std::uint64_t a, std::uint64_t b) {
    push(make_key(when, seq), Payload{&target, kind, a, b});
  }
  void attach_pdes(PdesCell* cell, std::int32_t domain_id) {
    pdes_ = cell;
    pdes_domain_id_ = domain_id;
  }
  void detach_pdes() {
    pdes_ = nullptr;
    pdes_domain_id_ = 0;
  }
  /// Seq of the event currently being dispatched (the would-be creator seq
  /// for anything its handler schedules).
  std::uint64_t cur_seq() const { return cur_seq_; }

  friend class PdesCell;
  friend class PdesRunner;

  /// One-per-event watchdog probe: counts down kDeadlineStride events, then
  /// reads the real clock and throws WallDeadlineExceeded when it has passed
  /// the armed deadline. The countdown starts at 0 so the very first event
  /// after arming performs a check.
  void check_wall_deadline() {
    if (!has_wall_deadline_) return;
    if (deadline_stride_-- != 0) return;
    deadline_stride_ = kDeadlineStride;
    if (std::chrono::steady_clock::now() >= wall_deadline_) throw WallDeadlineExceeded();
  }

  // Index-based 4-ary min-heap on (when, seq); keys_ and payloads_ are
  // parallel arrays moved in lockstep by the sift routines, with capacity
  // growth kept synchronised by push().
  std::vector<HeapKey> keys_;
  std::vector<Payload> payloads_;
  std::vector<Entry> batch_;  ///< same-timestamp scratch drained by run()
  std::size_t batch_pos_{0};  ///< next batch entry to dispatch
  // Pooled one-shot closure adapters: slots are created on demand, disarmed
  // (capture destroyed) when they fire, and re-armed from the free list —
  // the adapter objects themselves persist across firings and reset().
  std::vector<std::unique_ptr<Closure>> closures_;
  std::vector<std::uint32_t> free_closure_slots_;
  std::size_t live_closures_{0};
  SimTime now_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::size_t peak_queued_{0};
  EngineStats stats_;
  // Parallel-cell binding: when pdes_ is set, schedule_at routes through the
  // cell (src/sim/pdes.hpp) instead of pushing into the local heap directly.
  PdesCell* pdes_{nullptr};
  std::int32_t pdes_domain_id_{0};
  std::uint64_t cur_seq_{0};  ///< seq of the event currently dispatching
  // Cooperative wall-clock watchdog (see set_wall_deadline()).
  std::chrono::steady_clock::time_point wall_deadline_{};
  std::uint32_t deadline_stride_{0};
  bool has_wall_deadline_{false};
};

}  // namespace dfly
