#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace dfly::mpi {

inline constexpr int kAnySource = -1;

/// MPI-style (source, tag) matching for one rank.
///
/// Posted receives match inbound arrivals in post order; arrivals that find
/// no matching receive park in the unexpected queue. An "arrival" is either
/// a completed eager message (rdv_id == 0) or a rendezvous RTS header
/// (rdv_id != 0) whose payload is still at the sender.
///
/// Matching semantics (mirrors MPI's non-overtaking rule):
///  - on_arrival scans the posted list in post order and consumes the first
///    receive whose (src, tag) accepts the arrival; kAnySource receives
///    accept any sender.
///  - post_recv scans the unexpected queue in arrival order and consumes the
///    first parked arrival it accepts; otherwise the receive is appended to
///    the posted list.
///
/// Storage: both queues are slot pools threaded into intrusive FIFO lists —
/// erase-from-the-middle relinks two indices instead of shifting a deque, and
/// freed slots recycle through a free list, so a rank's matching works
/// allocation-free once the pools have grown to its peak queue depth. The
/// pools ride the SimArena lifecycle via reset(): a recycled RankCtx keeps
/// its high-water capacity and replays the next same-shape cell without
/// touching the heap (see core/arena.hpp and docs/ARCHITECTURE.md).
class MatchList {
 public:
  struct Posted {
    int src_rank;  ///< kAnySource matches any sender
    int tag;
    std::uint32_t request;  ///< rank-local request id
  };
  struct Unexpected {
    int src_rank;
    int tag;
    std::int64_t bytes;
    SimTime arrived;
    std::uint64_t rdv_id;  ///< 0 for eager data, else the rendezvous handle
  };

  static constexpr std::uint32_t kNoMatch = 0xffffffffu;

  /// Match an arrival against posted receives. Returns the matched request
  /// id, or kNoMatch after parking the arrival as unexpected.
  std::uint32_t on_arrival(int src_rank, int tag, std::int64_t bytes, SimTime now,
                           std::uint64_t rdv_id);

  /// Satisfy a new receive from the unexpected queue if possible; otherwise
  /// post it. Returns the consumed unexpected entry on a hit.
  std::optional<Unexpected> post_recv(int src_rank, int tag, std::uint32_t request);

  std::size_t posted_count() const { return posted_.size; }
  std::size_t unexpected_count() const { return unexpected_.size; }

  /// Drop every queued entry and restore the freshly-constructed hand-out
  /// order, keeping both pools' slot storage for the next cell.
  void reset();
  /// Carried slot capacity across both pools (stats/test hook).
  std::size_t capacity() const {
    return posted_.slots.size() + unexpected_.slots.size();
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Slot pool threaded into one intrusive FIFO list plus a LIFO free list.
  /// reset() re-chains the free list in ascending slot order so a recycled
  /// pool hands out slot ids exactly like a fresh one (determinism across
  /// arena reuse).
  template <typename T>
  struct Pool {
    struct Node {
      T item;
      std::uint32_t next;
    };
    std::vector<Node> slots;
    std::uint32_t head{kNil};
    std::uint32_t tail{kNil};
    std::uint32_t free{kNil};
    std::size_t size{0};

    void push_back(T item) {
      std::uint32_t slot;
      if (free != kNil) {
        slot = free;
        free = slots[slot].next;
      } else {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
      }
      slots[slot].item = item;
      slots[slot].next = kNil;
      if (tail == kNil) {
        head = slot;
      } else {
        slots[tail].next = slot;
      }
      tail = slot;
      ++size;
    }

    /// Unlink `slot` (whose predecessor is `prev`, kNil for the head) and
    /// recycle it onto the free list.
    void erase_after(std::uint32_t prev, std::uint32_t slot) {
      const std::uint32_t next = slots[slot].next;
      if (prev == kNil) {
        head = next;
      } else {
        slots[prev].next = next;
      }
      if (tail == slot) tail = prev;
      slots[slot].next = free;
      free = slot;
      --size;
    }

    void reset() {
      head = tail = kNil;
      size = 0;
      free = kNil;
      // Ascending free-list order => hand-out order matches a fresh pool.
      for (std::uint32_t i = static_cast<std::uint32_t>(slots.size()); i > 0; --i) {
        slots[i - 1].next = free;
        free = i - 1;
      }
    }
  };

  Pool<Posted> posted_;
  Pool<Unexpected> unexpected_;
};

}  // namespace dfly::mpi
