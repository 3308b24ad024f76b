#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <deque>
#include <exception>
#include <vector>

#include "core/mutex.hpp"
#include "sim/engine.hpp"
#include "sim/partition.hpp"
#include "sim/time.hpp"
#include "stats/packet_log.hpp"

namespace dfly {

class SimArena;

/// Counters for one parallel cell run (surfaced by bench_pdes).
struct PdesStats {
  std::int32_t num_domains{1};
  SimTime lookahead{0};
  std::uint64_t windows{0};             ///< barrier windows executed
  std::uint64_t merged_events{0};       ///< log entries sequenced at barriers
  std::uint64_t cross_domain_events{0}; ///< events delivered across domains
};

/// Conservative, windowed, group-partitioned parallel engine for one cell.
///
/// A PdesCell splits a cell's components into `num_domains` domains along the
/// CellPartition group map and gives each domain its own Engine (domain 0 is
/// the study's own engine; the rest come from the arena's extra-engine pool).
/// PdesRunner executes the domains on one thread each in barrier-synchronised
/// windows of width `lookahead` — the minimum cross-domain link latency — so
/// no domain can receive an event dated inside a window it is already
/// executing.
///
/// Determinism is exact, not statistical: the run replays the sequential
/// engine's (when, seq) order event for event. Every schedule_at during a
/// window is appended to the creating domain's emission log tagged with its
/// creator's (when, seq); at each barrier the logs are k-way merged in
/// creator order — which IS the order the sequential engine would have made
/// those schedule_at calls — and each merged entry receives the next global
/// sequence number. Same-domain events falling inside the current window
/// also enter the creator's queue immediately under a provisional sequence
/// number (kProvisionalBase + log index, above every true seq so same-time
/// ties resolve exactly as sequentially), and are re-sequenced retroactively
/// at the merge via the per-window `true_of` table. The result: identical
/// event order, identical statistics, byte-identical reports for any thread
/// count, including 1 (CI byte-compares this).
///
/// Setup (build + Job::start) stays single-threaded in kSetup mode, where
/// schedule_at routes straight to the target's domain queue with true
/// sequence numbers — the same assignment order as sequential.
class PdesCell {
 public:
  /// Provisional sequence numbers start at 2^63: larger than any true seq a
  /// run can reach, so a provisional event always sorts after every true
  /// event at the same timestamp — matching the sequential engine, where an
  /// event scheduled "now" gets the largest seq so far.
  static constexpr std::uint64_t kProvisionalBase = 1ull << 63;

  /// `primary` becomes domain 0; the other num_domains-1 engines are taken
  /// from `arena`'s extra-engine pool (or owned outright when arena is null)
  /// and returned on destruction.
  PdesCell(Engine& primary, CellPartition partition, SimArena* arena);
  ~PdesCell();
  PdesCell(const PdesCell&) = delete;
  PdesCell& operator=(const PdesCell&) = delete;

  std::int32_t num_domains() const { return partition_.num_domains; }
  const CellPartition& partition() const { return partition_; }
  Engine& engine(std::int32_t domain) { return *domains_[static_cast<std::size_t>(domain)].engine; }
  Engine& engine_for_router(int router) { return engine(partition_.router_domain[static_cast<std::size_t>(router)]); }
  Engine& engine_for_node(int node) { return engine(partition_.node_domain[static_cast<std::size_t>(node)]); }

  /// Packet-log shard for a domain's NICs to record into without contending
  /// on the cell-wide log: null for domain 0 (which records straight into
  /// the Network's own log), a private PacketLog otherwise. Network resets
  /// the shards to its shape and merges them back after the run
  /// (Network::finalize_pdes) — every merged statistic is order-independent,
  /// so sharded accumulation is byte-exact.
  PacketLog* log_shard(std::int32_t domain) {
    return domain == 0 ? nullptr : &shards_[static_cast<std::size_t>(domain - 1)];
  }
  std::deque<PacketLog>& log_shards() { return shards_; }

  /// Route schedule_at traffic during single-threaded construction and
  /// Job::start: events go straight to the target's domain queue with true
  /// sequence numbers. Engines stay attached until finish().
  void begin_setup();
  /// Switch to windowed-run mode (PdesRunner::run does this).
  void begin_run();
  /// Aggregate the secondary domains' executed/stat counters and clock into
  /// domain 0 (now() becomes the global max, matching the sequential engine's
  /// last-event clock) and detach every engine. Idempotent per run.
  void finish();

  /// schedule_at hook (called by an attached Engine on its own thread).
  void on_schedule(Engine& from, SimTime when, Component& target,
                   std::uint32_t kind, std::uint64_t a, std::uint64_t b);

  const PdesStats& stats() const { return stats_; }

 private:
  friend class PdesRunner;

  enum class Mode { kIdle, kSetup, kRun };

  /// One emission-log entry: the scheduled event plus the identity of the
  /// event that created it. `immediate` marks same-domain events that were
  /// also pushed provisionally into the creator's queue (already executed by
  /// merge time — the merge only assigns their true seq).
  struct LogEntry {
    SimTime creator_when;
    std::uint64_t creator_seq;
    SimTime when;
    Component* target;
    std::uint32_t kind;
    std::uint64_t a, b;
    bool immediate;
  };

  /// Per-domain state, cache-line aligned: `log` is appended by the domain's
  /// own thread during a window, and only thread 0 touches any of it at
  /// barriers.
  struct alignas(64) Domain {
    Engine* engine{nullptr};
    std::vector<LogEntry> log;
    std::vector<std::uint64_t> true_of;  ///< per-window provisional -> true seq
    std::size_t cursor{0};               ///< merge scan position
    SimTime run_until{0};                ///< current window bound (immediate rule)
    std::uint64_t cross_events{0};
  };

  /// Barrier step (thread 0 only): k-way merge every domain's log in
  /// (creator_when, resolved creator seq) order — resolving provisional
  /// creator seqs through true_of, which is always populated before a child
  /// entry reaches the front because a creator precedes its children in the
  /// same log — assigning true seqs in sequential call order and delivering
  /// non-immediate events to their target domain's queue.
  void merge_window();

  CellPartition partition_;
  SimArena* arena_;
  std::vector<Domain> domains_;
  std::deque<Engine> extras_;      ///< engines for domains 1..D-1 (stable addresses)
  std::deque<PacketLog> shards_;   ///< packet-log shards for domains 1..D-1
  std::uint64_t next_seq_{0};      ///< next true (global) sequence number
  Mode mode_{Mode::kIdle};
  PdesStats stats_;
  bool finished_{false};
};

/// Executes a PdesCell to completion: one std::thread per secondary domain
/// (the calling thread drives domain 0), windows planned by thread 0 between
/// two barriers per round. Exceptions from any domain (including the
/// wall-deadline watchdog, which is propagated to every domain engine) stop
/// the run at the next barrier and are rethrown on the calling thread.
class PdesRunner {
 public:
  PdesRunner(PdesCell& cell, SimTime time_limit);

  /// Run until every queue's front is past the time limit (or empty).
  /// Equivalent to cell.engine(0).run(time_limit) in the sequential engine,
  /// including events landing exactly at the limit.
  void run();

 private:
  void worker(std::int32_t domain);
  /// Thread 0, between barriers: merge logs, pick the next window
  /// [min front, min front + lookahead - 1] clamped to the time limit, or
  /// declare the run done.
  void plan_next();

  PdesCell& cell_;
  SimTime time_limit_;
  std::barrier<> sync_;
  // run_until_ and done_ are written by thread 0 between the two barriers of
  // a round and read by every domain after the second barrier — the barrier
  // itself is the synchronisation (TSan checks it; annotations cannot model
  // barrier phases, so these two stay unannotated by design).
  SimTime run_until_{0};
  bool done_{false};
  std::atomic<bool> failed_{false};
  Mutex error_mutex_;
  std::exception_ptr error_ GUARDED_BY(error_mutex_);
};

}  // namespace dfly
