#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace dfly {

/// Route phases of the constrained Dragonfly path DFA. Every admissible path
/// is a prefix-respecting walk of (local?, global, local?, global, local?),
/// which all routing algorithms in this suite obey. Only Q-adaptive routing
/// tracks the phase (the other policies steer by int_group/reached_int);
/// there the phase determines the legal candidate ports at each router.
enum class RoutePhase : std::uint8_t {
  kAtSource = 0,      ///< at the injection router, no hops taken
  kSrcLocalDone = 1,  ///< took a local hop in the source group; must go global
  kMidGroup = 2,      ///< landed in a non-destination group after a global hop
  kMidLocalDone = 3,  ///< took the intermediate group's local hop; must go global
  kDstGroup = 4,      ///< inside the destination group
};

/// In-flight packet. Kept POD-small; packets are pool-allocated and recycled
/// so the hot path never touches the general-purpose allocator.
struct Packet {
  SimTime enter_router_time{0};  ///< arrival time at the current router (Q feedback)
  SimTime wire_time{0};          ///< when the first flit left the source NIC
  std::uint64_t msg_id{0};
  std::uint32_t id{0};  ///< pool slot
  /// Next packet in the router input FIFO holding this one (net/router.hpp).
  /// A packet sits in at most one input FIFO at a time, and only the router
  /// holding it writes this.
  std::uint32_t queue_next{0};
  std::int32_t src_node{0};
  std::int32_t dst_node{0};
  std::int32_t bytes{0};  ///< payload carried by this packet
  std::int16_t app_id{0};
  std::int16_t int_group{-1};   ///< Valiant intermediate group, -1 = none
  std::int16_t int_router{-1};  ///< Valiant intermediate router, -1 = none
  std::int16_t prev_router{-1};
  std::int16_t prev_port{-1};
  std::int16_t out_port{-1};
  std::int16_t out_vc{0};
  std::uint8_t hops{0};
  std::uint8_t traffic_class{0};  ///< QoS class (net/qos.hpp), set at injection
  RoutePhase phase{RoutePhase::kAtSource};
  bool nonminimal{false};
  bool reached_int{false};   ///< passed the Valiant midpoint
  bool par_revisable{false}; ///< PAR may still divert this packet
  bool ecn{false};           ///< congestion-experienced mark (net/congestion_control.hpp)
};

/// Free-list pool with stable addresses (fixed-size chunks behind a
/// pre-allocated chunk directory).
///
/// Reuse: reset() returns every slot to the free list while keeping the
/// chunks, so a pool that has grown to one cell's peak in-flight depth serves
/// the next same-shape cell without touching the allocator (the arena reuse
/// path, core/arena.hpp). A reset pool hands out slot ids 0, 1, 2, ... exactly
/// like a fresh one, so reuse is invisible to the simulation.
///
/// Thread-safety: none — a PacketPool belongs to one Network and therefore to
/// one simulation cell, which runs on one thread.
class PacketPool {
 public:
  /// 4096 packets per chunk; the directory holds up to 4096 chunk pointers
  /// (~16.7M concurrently-live packets, far beyond any cell's peak).
  static constexpr std::uint32_t kChunkShift = 12;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kMaxChunks = 4096;

  Packet& alloc() {
    if (free_.empty()) {
      const std::uint32_t id = size_++;
      if ((id & (kChunkSize - 1)) == 0) grow_chunk(id >> kChunkShift);
      Packet& p = dir_[id >> kChunkShift][id & (kChunkSize - 1)];
      p.id = id;
      if (size_ > peak_in_use_) peak_in_use_ = size_;
      return p;
    }
    const std::uint32_t id = free_.back();
    free_.pop_back();
    Packet& p = dir_[id >> kChunkShift][id & (kChunkSize - 1)];
    p = Packet{};
    p.id = id;
    const std::size_t used = size_ - free_.size();
    if (used > peak_in_use_) peak_in_use_ = used;
    return p;
  }

  void release(const Packet& p) { free_.push_back(p.id); }

  /// Return every slot to the free list, keeping the chunk storage. The free
  /// list is rebuilt from scratch because a cell stopped by its time limit or
  /// the watchdog tears down with packets in flight that are never released:
  /// the rebuild takes those slots back, so the next cell does not grow the
  /// pool. It runs descending, so the next allocations draw ids 0, 1, 2, ...
  /// like a fresh pool. Zeroes the per-cell peak counter.
  void reset() {
    free_.clear();
    free_.reserve(size_);
    for (std::size_t id = size_; id-- > 0;) {
      free_.push_back(static_cast<std::uint32_t>(id));
    }
    peak_in_use_ = 0;
  }

  Packet& get(std::uint32_t id) { return dir_[id >> kChunkShift][id & (kChunkSize - 1)]; }
  const Packet& get(std::uint32_t id) const {
    return dir_[id >> kChunkShift][id & (kChunkSize - 1)];
  }

  std::size_t capacity() const { return size_; }
  std::size_t in_use() const { return size_ - free_.size(); }
  /// High-water mark of simultaneously-allocated packets since construction
  /// or the last reset().
  std::size_t peak_in_use() const { return peak_in_use_; }

 private:
  /// Publish a new chunk. The directory itself is allocated once, lazily, at
  /// its full fixed size, so get() never observes it mid-reallocation.
  void grow_chunk(std::uint32_t chunk) {
    if (dir_ == nullptr) dir_ = std::make_unique<std::unique_ptr<Packet[]>[]>(kMaxChunks);
    dir_[chunk] = std::make_unique<Packet[]>(kChunkSize);
  }

  std::unique_ptr<std::unique_ptr<Packet[]>[]> dir_;
  std::uint32_t size_{0};  ///< slots constructed across all chunks
  std::vector<std::uint32_t> free_;
  std::size_t peak_in_use_{0};
};

}  // namespace dfly
