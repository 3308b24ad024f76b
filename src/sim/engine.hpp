#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace dfly {

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
/// The pending-event queue (EventQueue below) is built for how a cell
/// schedules: almost every event lands at now + d, where d is one of a few
/// sums of NetConfig constants (seven delays carry ~97% of a paper cell's
/// schedules). Each recurring delay gets a FIFO lane; since now never
/// decreases and seq only grows, a lane is sorted by (when, seq) simply by
/// appending. A small binary heap over the non-empty lanes' head keys,
/// whose root is compared with the top of an index-based 4-ary overflow
/// heap, yields the next event, so pop order is exactly the (when, seq)
/// order of a single heap while the common schedule/pop touches one lane and
/// a sub-KB lane heap instead of sifting a heap ~20k events deep. Delays
/// that find no free lane use the overflow heap.
///
/// Thread-safety: none — an Engine, like every component scheduled on it,
/// belongs to exactly one simulation cell. Parallel sweeps (SubmissionQueue)
/// run one Engine per worker-owned cell and never share one across threads.
class Engine {
 public:
  Engine() = default;

  // Neither copyable nor movable: the queue's lanes hold raw pointers into
  // its own block slabs, and components hold references to their engine.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(Engine&&) = delete;
  Engine& operator=(Engine&&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `target->handle` at absolute time `when` (>= now).
  void schedule_at(SimTime when, Component& target, std::uint32_t kind,
                   std::uint64_t a = 0, std::uint64_t b = 0);

  /// Schedule after a relative delay (>= 0).
  void schedule_in(SimTime delay, Component& target, std::uint32_t kind,
                   std::uint64_t a = 0, std::uint64_t b = 0) {
    schedule_at(now_ + delay, target, kind, a, b);
  }

  /// Run until the queue is empty or `until` is passed. Returns the number
  /// of events executed. Events at exactly `until` are executed.
  ///
  /// Time semantics: the clock only advances when an event executes. After
  /// run(until) returns, now() is the timestamp of the last executed event —
  /// it is NOT bumped to `until` when the queue drains early. Components can
  /// therefore schedule "at now()" after a drained run without time
  /// travelling, and makespan == now() is exact.
  ///
  /// Each event is popped just before it executes, so a handler that throws
  /// leaves every later event queued for the next run().
  std::uint64_t run(SimTime until = kSec * 3600);

  bool empty() const { return queued() == 0; }
  std::size_t queued() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }

  /// Drop every pending event. Safe to call from inside a handler: events
  /// at the handler's own timestamp are dropped too.
  void clear() { queue_.clear(); }

  /// Arm a cooperative wall-clock watchdog: run() checks the real clock every
  /// kDeadlineStride events and throws WallDeadlineExceeded once `deadline`
  /// has passed, so a simulation stuck in a pathological state (livelocked
  /// protocol, runaway event chain) is abandoned in bounded real time instead
  /// of hung on. The check costs one predictable branch per event when armed
  /// and nothing measurable when not. clear_wall_deadline() disarms it.
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

  /// Per-event-kind schedule/execute counters since construction.
  /// Observability only — never part of a simulation report.
  const EngineStats& stats() const { return stats_; }

  /// High-water mark of concurrently-queued events since construction.
  std::size_t peak_queued() const { return peak_queued_; }

 private:
  /// Ordering key: (when, seq) packed into one 128-bit integer, `when` in
  /// the high 64 bits (event times are never negative, so the unsigned
  /// reinterpretation preserves order). A comparison is one branchless
  /// integer compare, and the four children a heap sift examines span a
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
  /// A queued or popped event (key + payload together).
  struct Entry {
    HeapKey key;
    Payload load;
  };

  /// Pending events in exact (when, seq) order: FIFO lanes keyed by delay,
  /// merged by a heap of lane heads, in front of a 4-ary overflow heap (see
  /// the class comment). Lane storage is fixed-size blocks carved from
  /// engine-owned slabs; clear() hands every block back, so later events
  /// draw the same blocks again without allocating.
  class EventQueue {
   public:
    /// Lanes, i.e. distinct delays that can be pending outside the heap at
    /// once. Replaying a paper cell's 16.4M-op schedule/pop trace (4-vCPU
    /// Xeon, g++ 12.2): 16 lanes 524 ms, 32 lanes 460-478 ms, 64 lanes
    /// 446-506 ms.
    static constexpr std::size_t kLanes = 32;
    /// Events per lane block (48 bytes each: one block is ~0.8 KB, so the
    /// partly-filled blocks at the ends of 32 lanes stay under 50 KB).
    static constexpr std::size_t kBlockEvents = 16;

    EventQueue();
    // Lanes hold raw pointers into slabs_: a copy or move would alias them.
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    std::size_t size() const { return heap_keys_.size() + lane_events_; }
    /// Key of the next event; greater than every real key when empty.
    HeapKey front_key() const {
      const HeapKey heap_top = heap_keys_.empty() ? kNoKey : heap_keys_.front();
      return head_key_[0] < heap_top ? head_key_[0] : heap_top;
    }
    /// Queue an event `delay` after the current time: onto its delay's lane,
    /// or the overflow heap when every lane is busy with another delay.
    void push(SimTime delay, HeapKey key, const Payload& load);
    /// Queue an event on the overflow heap.
    void push_heap(HeapKey key, const Payload& load);
    /// Remove and return the next event; the queue must not be empty.
    Entry pop_front();
    void clear();

    /// Greater than any real key: event times never reach 2^64 - 1.
    static constexpr HeapKey kNoKey = ~HeapKey{0};

   private:
    struct Block {
      Entry items[kBlockEvents];
      Block* next;  ///< following block of the same lane (or free list)
    };
    /// One delay's FIFO: a chain of blocks, popped at head, appended at tail.
    /// An empty lane keeps its last block for the next event it gets.
    struct Lane {
      Block* head{nullptr};
      Block* tail{nullptr};
      std::uint32_t head_pos{0};  ///< next entry to pop in *head
      std::uint32_t tail_pos{0};  ///< next free entry in *tail
      SimTime delay{0};           ///< meaningful only while the lane is bound
    };
    /// Delay -> lane table: open addressing with linear probing, 4x the lane
    /// count so probes stay short. A slot is occupied iff its lane tag is
    /// non-zero; delays themselves carry no sentinel (0 is a common delay).
    static constexpr std::size_t kSlots = 4 * kLanes;
    static std::size_t home_slot(SimTime delay);

    using LaneMask = std::uint32_t;
    static_assert(kLanes == 8 * sizeof(LaneMask), "one mask bit per lane");

    Entry pop_heap();
    void sift_up(std::size_t i);
    Entry pop_lane(std::size_t lane);
    /// Lane bound to `delay`, binding a free one if needed; -1 if none is.
    int lane_for(SimTime delay);
    void unbind(std::size_t lane);
    /// Lane-heap updates: a lane got its first event (sift up from the
    /// bottom), or the root lane's head moved on (sift `key` down from the
    /// root; a lane's next head is usually just behind the one popped, so
    /// this tends to stop within a level or two).
    void add_head(std::size_t lane, HeapKey key);
    void sift_head_down(std::size_t lane, HeapKey key);
    Block* take_block();
    void add_slab();
    /// Drop every event and binding; blocks stay pooled in the slabs.
    void reset_lanes();

    // Overflow store: index-based 4-ary min-heap on (when, seq); keys and
    // payloads are parallel arrays moved in lockstep by the sift routines.
    std::vector<HeapKey> heap_keys_;
    std::vector<Payload> heap_loads_;

    std::array<Lane, kLanes> lanes_{};
    /// Binary min-heap of the non-empty lanes' head keys (with their lane
    /// indices), heads_ entries deep; head_key_[0] is kNoKey when no lane
    /// holds an event, so front_key() needs no emptiness branch.
    std::array<HeapKey, kLanes> head_key_{};
    std::array<std::uint8_t, kLanes> head_lane_{};
    std::size_t heads_{0};
    std::array<SimTime, kSlots> slot_delay_{};
    std::array<std::uint8_t, kSlots> slot_lane_{};  ///< lane + 1; 0 = free slot
    LaneMask empty_lanes_{0};  ///< lanes holding no event
    LaneMask bound_lanes_{0};  ///< lanes with an entry in the delay table
    std::size_t lane_events_{0};

    // Block pool: slab k holds kLanes << k blocks, carved front to back
    // (untouched blocks cost no resident memory); spent blocks go to the
    // free list first.
    std::vector<std::unique_ptr<Block[]>> slabs_;
    std::size_t slab_{0};      ///< slab being carved
    std::size_t slab_pos_{0};  ///< next uncarved block in slabs_[slab_]
    Block* free_blocks_{nullptr};
  };

  void dispatch(const Entry& entry);
  void note_queued() {
    if (queue_.size() > peak_queued_) peak_queued_ = queue_.size();
  }

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

  EventQueue queue_;
  SimTime now_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::size_t peak_queued_{0};
  EngineStats stats_;
  // Cooperative wall-clock watchdog (see set_wall_deadline()).
  std::chrono::steady_clock::time_point wall_deadline_{};
  std::uint32_t deadline_stride_{0};
  bool has_wall_deadline_{false};
};

static_assert(!std::is_move_constructible_v<Engine>,
              "an Engine must not move: its queue's lanes point into its own slabs");

}  // namespace dfly
