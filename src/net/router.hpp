#pragma once

#include <cstdint>
#include <vector>

#include "net/config.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/routing_iface.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "stats/link_stats.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {

class SystemBlueprint;

namespace router_ev {
inline constexpr std::uint32_t kArrive = 1;   ///< a = packet id, b = in_port | in_vc<<8
inline constexpr std::uint32_t kTryPort = 2;  ///< a = output port
inline constexpr std::uint32_t kCredit = 3;   ///< a = output port, b = vc
}  // namespace router_ev

/// Input-queued virtual-channel router with credit-based flow control.
///
/// Microarchitecture (one event-driven pipeline per output port):
///  - packets are routed on arrival (route computation at the input),
///  - the head of each (input port, VC) FIFO posts a request to its output
///    port's FIFO arbiter,
///  - an output transmits when it is idle and the requester's VC has
///    downstream credits; blocked requests park in a per-VC stall list that
///    is re-activated by credit returns (no head-of-line scan loops),
///  - credits return to the upstream hop one wire latency after the packet
///    leaves the input buffer. Every link is a symmetric pair of equal
///    latency, so the wire feeding input port p is output port p's own.
///
/// Time a loaded output spends blocked on credits while demand exists is
/// accumulated as that link's *stall time* (the paper's Fig 11 metric).
///
/// State layout: a handful of flat per-router arrays, no per-queue heap
/// blocks. Each output port's hot state is one 64-byte Port record. Input
/// queue q = in_port * num_vcs + in_vc is a FIFO of packets linked through
/// Packet::queue_next. A non-empty input queue has exactly one request,
/// which sits in exactly one list — its output's FIFO, a QoS class FIFO or
/// a per-(port, VC) stall list — so one int16 `next_[q]` links every list.
class Router final : public Component {
 public:
  /// Topology, NetConfig and the link-id scheme all come from the immutable
  /// `blueprint`, which the owning Network keeps alive; the remaining
  /// arguments are the router's mutable per-cell dependencies.
  Router(Engine& engine, const SystemBlueprint& blueprint, int id,
         PacketPool& pool, LinkStats& stats, std::uint64_t seed);

  /// Re-point and re-zero every piece of per-cell state so a router object
  /// recycled from a per-worker arena (core/arena.hpp) behaves exactly like a
  /// freshly-constructed one while keeping its array storage. The
  /// constructor funnels through this, so the fresh and reuse paths cannot
  /// drift apart. Callers must re-connect() wiring and set_routing() after.
  void reinit(Engine& engine, const SystemBlueprint& blueprint, int id,
              PacketPool& pool, LinkStats& stats, std::uint64_t seed);

  /// Wire `port` to a peer component (router or NIC) in both directions:
  /// packets leave through it and credits for input `port` return over it.
  /// `peer_port` is the port index on the peer's side (0 for NICs).
  void connect(int port, Component& peer, int peer_port, bool peer_is_router);

  void set_routing(RoutingAlgorithm& routing) { routing_ = &routing; }

  void handle(Engine& engine, const Event& event) override;

  // --- introspection for routing policies and tests ------------------------
  int id() const { return id_; }
  int group() const { return topo_->group_of_router(id_); }
  const Dragonfly& topo() const { return *topo_; }
  const NetConfig& cfg() const { return *cfg_; }
  Rng& rng() { return rng_; }
  Engine& engine() { return *engine_; }

  /// Congestion estimate used by adaptive policies: packets queued in this
  /// router for `port` plus downstream buffer slots already claimed.
  int occupancy(int port) const {
    const Port& o = ports_[static_cast<std::size_t>(port)];
    return o.pending + o.credits_used;
  }
  int credits(int port, int vc) const {
    return credits_[static_cast<std::size_t>(port) * cfg_->num_vcs + static_cast<std::size_t>(vc)];
  }
  /// Packets held in this router's input buffers.
  int buffered_packets() const;
  /// Requests of `port` parked on a credit-starved VC.
  int parked_requests(int port) const { return ports_[static_cast<std::size_t>(port)].parked; }

  /// Degrade the wire behind output `port`: packets serialise `slowdown`
  /// times slower and the propagation delay grows by `extra_latency`.
  /// Adaptive policies are not told explicitly — they observe the fault the
  /// way real hardware does, through queue growth and delivery-time feedback.
  void degrade_port(int port, int slowdown, SimTime extra_latency);
  int port_slowdown(int port) const { return ports_[static_cast<std::size_t>(port)].slowdown; }
  SimTime port_extra_latency(int port) const {
    const Port& o = ports_[static_cast<std::size_t>(port)];
    return o.fwd_latency - o.wire - pipeline(o);
  }

 private:
  /// An intrusive FIFO of input queues, linked through `next_`.
  struct RequestList {
    std::int16_t head{-1};
    std::int16_t tail{-1};
  };
  struct StallList {
    RequestList list;
    std::int16_t size{0};
  };
  /// An input (port, VC) FIFO of packet ids, linked through Packet::queue_next.
  struct InputFifo {
    std::uint32_t head{0};
    std::uint32_t tail{0};
    std::int32_t size{0};
  };
  /// Everything one output port touches per packet, in one cache line.
  struct alignas(64) Port {
    SimTime busy_until{0};
    SimTime stall_start{-1};
    SimTime fwd_latency{0};  ///< wire + fault extra + downstream router pipeline
    SimTime wire{0};         ///< undegraded wire latency; credits return over it
    Component* peer{nullptr};
    std::int32_t pending{0};       ///< packets here routed to this port
    std::int32_t credits_used{0};  ///< downstream slots in flight
    std::int32_t slowdown{1};      ///< fault injection: serialisation multiplier
    RequestList requests;          ///< FIFO arbitration (unused under QoS)
    std::int16_t parked{0};        ///< requests in this port's stall lists
    std::int16_t peer_port{-1};
    bool peer_is_router{false};
    bool try_pending{false};
  };
  static_assert(sizeof(Port) == 64, "Port must stay one cache line");

  void on_arrive(Engine& engine, std::uint32_t packet_id, int in_port, int in_vc);
  void on_try_port(Engine& engine, int port);
  void try_port_fifo(Engine& engine, int port);
  void try_port_dwrr(Engine& engine, int port);
  void on_credit(Engine& engine, int port, int vc);
  /// Traffic class of the packet at the head of input queue `q`.
  int head_class(int q) const;
  /// True when any request list of `port` is non-empty (mode-aware).
  bool has_requests(int port) const;
  void schedule_try(Engine& engine, int port, SimTime when);
  void post_request(Engine& engine, int q);
  void park(int port, int vc, int q);
  void transmit(Engine& engine, int port, int q);

  void push_back(RequestList& list, int q) {
    next_[static_cast<std::size_t>(q)] = -1;
    if (list.tail < 0) {
      list.head = static_cast<std::int16_t>(q);
    } else {
      next_[static_cast<std::size_t>(list.tail)] = static_cast<std::int16_t>(q);
    }
    list.tail = static_cast<std::int16_t>(q);
  }
  int pop_front(RequestList& list) {
    const int q = list.head;
    list.head = next_[static_cast<std::size_t>(q)];
    if (list.head < 0) list.tail = -1;
    return q;
  }
  /// Put the non-empty `front` list, in order, ahead of `into`.
  void splice_front(RequestList& into, const RequestList& front) {
    next_[static_cast<std::size_t>(front.tail)] = into.head;
    if (into.tail < 0) into.tail = front.tail;
    into.head = front.head;
  }

  SimTime pipeline(const Port& o) const { return o.peer_is_router ? cfg_->router_latency : 0; }
  const Packet& head_packet(int q) const {
    return pool_->get(inputs_[static_cast<std::size_t>(q)].head);
  }
  int& credits_ref(int port, int vc) {
    return credits_[static_cast<std::size_t>(port) * cfg_->num_vcs + static_cast<std::size_t>(vc)];
  }
  RequestList& class_requests(int port, int cls) {
    return class_requests_[static_cast<std::size_t>(port) * cfg_->qos.num_classes +
                           static_cast<std::size_t>(cls)];
  }
  std::int64_t& deficit(int port, int cls) {
    return deficit_[static_cast<std::size_t>(port) * cfg_->qos.num_classes +
                    static_cast<std::size_t>(cls)];
  }

  Engine* engine_;
  const Dragonfly* topo_;
  const NetConfig* cfg_;
  int id_;
  PacketPool* pool_;
  LinkStats* stats_;
  const LinkMap* links_;
  RoutingAlgorithm* routing_{nullptr};
  Rng rng_;

  std::vector<Port> ports_;              ///< [port]
  std::vector<int> credits_;             ///< [port][vc] downstream slots free
  std::vector<InputFifo> inputs_;        ///< [q]
  std::vector<std::int16_t> next_;       ///< [q] next request in its list, -1 = last
  std::vector<StallList> stalled_;       ///< [port][vc]
  // QoS (cfg.qos.num_classes > 1) only: per-class request FIFOs arbitrated
  // by deficit-weighted round-robin, and a per-class scratch list used to
  // regroup a stall list on a credit return.
  std::vector<RequestList> class_requests_;  ///< [port][class]
  std::vector<std::int64_t> deficit_;        ///< [port][class] DWRR deficit, bytes
  std::vector<RequestList> unparked_;        ///< [class]
};

}  // namespace dfly
