#pragma once

#include <cstdint>

#include "core/flat_map.hpp"
#include "core/ring_queue.hpp"
#include "net/config.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "stats/link_stats.hpp"
#include "stats/packet_log.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {

class Router;
class SystemBlueprint;

namespace nic_ev {
inline constexpr std::uint32_t kArrive = 1;      ///< a = packet id (ejection)
inline constexpr std::uint32_t kTryInject = 2;   ///< try to put the next packet on the wire
inline constexpr std::uint32_t kCredit = 3;      ///< injection credit returned by the router
inline constexpr std::uint32_t kSendDone = 4;    ///< a = msg id: tail flit left the NIC
inline constexpr std::uint32_t kEcnNotice = 5;   ///< congestion notification reached the source
inline constexpr std::uint32_t kRateRecover = 6; ///< AIMD additive-increase tick
inline constexpr std::uint32_t kLocalDone = 7;   ///< a = msg id: self-send sent and delivered
}  // namespace nic_ev

/// Listener for message lifecycle events (implemented by the MPI layer).
class MessageEvents {
 public:
  virtual ~MessageEvents() = default;
  /// The last packet of the message left the source NIC's wire.
  virtual void message_sent(std::uint64_t msg_id) = 0;
  /// All payload bytes arrived at the destination NIC.
  virtual void message_delivered(std::uint64_t msg_id) = 0;
};

class Nic;

/// Node -> NIC lookup (implemented by Network) so a destination NIC can
/// reflect congestion notifications back to the traffic source.
class NicDirectory {
 public:
  virtual ~NicDirectory() = default;
  virtual Nic& nic_at(int node) = 0;
};

/// Network interface of one compute node.
///
/// Injection side: an unbounded message queue (the MPI layer's eager buffer)
/// drained at link rate, subject to the router's terminal-port credits.
/// Messages are packetised lazily — one packet materialises per wire slot —
/// so a multi-megabyte posted burst costs O(1) memory per message.
///
/// Ejection side: consumes packets at link rate, returns credits immediately,
/// reassembles messages and reports deliveries.
class Nic final : public Component {
 public:
  /// Topology, NetConfig and the link-id scheme all come from the immutable
  /// `blueprint`, which the owning Network keeps alive; the remaining
  /// arguments are the NIC's mutable per-cell dependencies.
  Nic(Engine& engine, const SystemBlueprint& blueprint, int node,
      PacketPool& pool, LinkStats& stats, PacketLog& packet_log);

  /// Re-point and re-zero every piece of per-cell state so a NIC recycled
  /// from a per-worker arena (core/arena.hpp) behaves exactly like a fresh
  /// one while keeping its queue storage (send queue blocks, inbound-map
  /// buckets). The constructor funnels through this. Callers must attach()
  /// and re-run the set_* wiring afterwards, as Network does.
  void reinit(Engine& engine, const SystemBlueprint& blueprint, int node,
              PacketPool& pool, LinkStats& stats, PacketLog& packet_log);

  /// Attach to the node's router (called by Network during wiring).
  void attach(Router& router);
  void set_sink(MessageEvents* sink) { sink_ = sink; }
  /// QoS class lookup used at injection (null = everything in class 0).
  void set_traffic_classes(const TrafficClassMap* classes) { classes_ = classes; }
  /// Peer lookup for congestion notifications (null disables reflection).
  void set_directory(NicDirectory* directory) { directory_ = directory; }

  /// Current AIMD injection rate (fraction of link rate; 1.0 = unthrottled).
  double injection_rate() const { return rate_; }
  /// Congestion notifications received by this source so far.
  std::uint64_t ecn_notices() const { return ecn_notices_; }

  /// Queue a message for transmission. `bytes` >= 1.
  void enqueue_message(std::uint64_t msg_id, int dst_node, std::int64_t bytes, int app_id);

  /// Register an expected inbound message (called on the destination NIC at
  /// send time so ejection can count it down).
  void expect_message(std::uint64_t msg_id, std::int64_t bytes);

  void handle(Engine& engine, const Event& event) override;

  int node() const { return node_; }
  std::size_t queued_messages() const { return sendq_.size(); }
  std::int64_t queued_bytes() const { return queued_bytes_; }

 private:
  struct Chunk {
    std::uint64_t msg_id;
    std::int32_t dst_node;
    std::int64_t remaining;
    std::int16_t app_id;
  };

  void try_inject(Engine& engine);
  void on_eject(Engine& engine, std::uint32_t packet_id);
  void on_ecn_notice(Engine& engine);
  void on_rate_recover(Engine& engine);

  Engine* engine_;
  const Dragonfly* topo_;
  const NetConfig* cfg_;
  int node_;
  PacketPool* pool_;
  LinkStats* stats_;
  PacketLog* packet_log_;
  const LinkMap* links_;
  Router* router_{nullptr};
  MessageEvents* sink_{nullptr};
  const TrafficClassMap* classes_{nullptr};
  NicDirectory* directory_{nullptr};

  // FIFO of partially-sent messages. A RingQueue: a deque here oscillates
  // slab allocations around every slab boundary the queue depth crosses.
  RingQueue<Chunk> sendq_;
  std::int64_t queued_bytes_{0};
  // Per-message remaining-byte countdown at the ejection side. A FlatMap:
  // one insert (expect_message) and one erase (last packet) per message,
  // allocation-free once the table has grown to the cell's peak in-flight
  // count — the table itself rides the arena recycle via reinit().
  FlatMap<std::int64_t> inbound_;
  int credits_;
  SimTime busy_until_{0};
  bool try_pending_{false};

  // AIMD congestion-control state (cfg.cc).
  double rate_{1.0};
  std::uint64_t ecn_notices_{0};
  SimTime last_decrease_{-1};
  bool recover_pending_{false};
};

}  // namespace dfly
