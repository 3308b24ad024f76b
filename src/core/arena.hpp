#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "mpi/storage.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/router.hpp"
#include "stats/link_stats.hpp"
#include "stats/packet_log.hpp"

/// Per-worker reusable simulation storage.
///
/// Every paper figure is a sweep of independent (config, seed) cells. A
/// SimArena carries the per-cell storage that measurably pays to keep from
/// one cell to the next on the same worker (docs/MEMORY.md has the numbers):
///   - the Router and Nic objects, with their port and VC buffers;
///   - the ranks (RankCtx) and protocol maps of each Job;
///   - the packet pool, LinkStats and PacketLog blocks.
/// A SubmissionQueue worker binds one arena for its lifetime. The first cell
/// grows the storage; every later cell of a similar shape re-initialises it
/// in place. The Engine, the MpiSystem and coroutine frames are built fresh
/// for every cell.
///
/// Reuse is behaviour-preserving by construction: every reinit/reset path
/// restores the exact observable state of a fresh object (pool slot ids are
/// handed out 0, 1, 2, ... again), so output is byte-identical with or
/// without an arena. The tests byte-compare arena runs against the same
/// cells run with no arena bound.
///
/// Thread-safety: none — an arena belongs to exactly one worker thread, like
/// the cells it backs.
namespace dfly {

/// Reuse counters and high-water marks, reported by the memory bench into
/// BENCH_memory.json. Peaks are maxima across every cell the arena served.
struct ArenaStats {
  std::uint64_t cells{0};          ///< cells that borrowed this arena
  std::uint64_t router_reuses{0};  ///< router objects recycled in place
  std::uint64_t router_builds{0};  ///< router objects newly constructed
  std::uint64_t nic_reuses{0};
  std::uint64_t nic_builds{0};
  std::uint64_t rank_reuses{0};  ///< RankCtx objects recycled in place
  std::uint64_t rank_builds{0};  ///< RankCtx objects newly constructed
  std::size_t pool_peak_packets{0};  ///< max concurrently-live packets
  std::size_t pool_capacity{0};      ///< carried packet-slab slots
  std::size_t inflight_capacity{0};  ///< carried protocol-map slots (per job, max)
  std::size_t match_capacity{0};     ///< carried match-list slots (per rank, max)
};

/// Reusable backing storage for one worker's simulation cells.
///
/// A Study borrows the arena for its lifetime (try_acquire/release): the
/// network storage moves into its Network, and each Job takes a parked
/// bundle. Only one Study can hold an arena at a time — a second concurrent
/// Study on the same thread simply runs without reuse.
class SimArena {
 public:
  SimArena() = default;
  SimArena(const SimArena&) = delete;
  SimArena& operator=(const SimArena&) = delete;

  /// Everything a Network allocates per cell, recycled as one unit. The
  /// routers/NICs keep their buffer storage between cells and are re-pointed
  /// with reinit(); pool and stats blocks reset in place.
  struct NetStorage {
    PacketPool pool;
    LinkStats stats;
    PacketLog log;
    std::vector<std::unique_ptr<Router>> routers;
    std::vector<std::unique_ptr<Nic>> nics;
  };

  /// Claim the arena for one cell. Returns false (and changes nothing) when
  /// another owner currently holds it.
  bool try_acquire(const void* owner);
  /// Release a claim taken with try_acquire (no-op for a non-owner).
  void release(const void* owner);
  bool in_use() const { return owner_ != nullptr; }

  /// Move the carried network storage out. The pool comes back reset; the
  /// router/NIC objects still hold the previous cell's wiring and must be
  /// reinit()-ed before use (Network does this). Pair with return_net().
  NetStorage take_net();
  void return_net(NetStorage&& storage);

  /// Move a parked MPI job bundle out (FIFO: jobs are constructed and
  /// destroyed in the same order each cell, so job k of the next cell gets
  /// job k's carried storage). Returns an empty bundle when none is parked.
  /// The maps come back cleared; the RankCtx objects still hold the previous
  /// cell's wiring and must be reinit()-ed before use (Job does this). Pair
  /// with return_job_storage().
  mpi::JobStorage take_job_storage();
  void return_job_storage(mpi::JobStorage&& storage);

  /// Reuse bookkeeping hooks for Network's and Job's create-or-recycle loops.
  void count_router(bool reused) { ++(reused ? stats_.router_reuses : stats_.router_builds); }
  void count_nic(bool reused) { ++(reused ? stats_.nic_reuses : stats_.nic_builds); }
  void count_rank(bool reused) { ++(reused ? stats_.rank_reuses : stats_.rank_builds); }

  /// Release every byte of carried storage (packet slabs, stats blocks,
  /// router/NIC buffers, parked MPI bundles) and return the arena to its
  /// freshly-constructed empty state; stats() and the thread binding
  /// survive. run_plan() calls this before retrying a
  /// cell that failed with std::bad_alloc, so the retry starts from the
  /// smallest footprint the process can offer. No-op while a Study holds the
  /// arena (in_use()).
  void shed();

  const ArenaStats& stats() const { return stats_; }

  /// The arena bound to the calling thread (nullptr when none is bound).
  /// SubmissionQueue binds one per worker; Study picks it up automatically.
  static SimArena* current();

 private:
  const void* owner_{nullptr};
  NetStorage net_;
  std::deque<mpi::JobStorage> job_storage_;  ///< parked bundles, FIFO order
  ArenaStats stats_;
};

/// RAII binding of an arena to the calling thread (see SimArena::current()).
/// Restores the previous binding on destruction, so bindings nest.
class ScopedArenaBinding {
 public:
  explicit ScopedArenaBinding(SimArena* arena);
  ~ScopedArenaBinding();
  ScopedArenaBinding(const ScopedArenaBinding&) = delete;
  ScopedArenaBinding& operator=(const ScopedArenaBinding&) = delete;

 private:
  SimArena* previous_;
};

}  // namespace dfly
