#include "net/router.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "core/blueprint.hpp"
#include "net/nic.hpp"

namespace dfly {

Router::Router(Engine& engine, const SystemBlueprint& blueprint, int id,
               PacketPool& pool, LinkStats& stats, std::uint64_t seed) {
  reinit(engine, blueprint, id, pool, stats, seed);
}

void Router::reinit(Engine& engine, const SystemBlueprint& blueprint, int id,
                    PacketPool& pool, LinkStats& stats, std::uint64_t seed) {
  const Dragonfly& topo = blueprint.topo();
  const NetConfig& cfg = blueprint.net();
  engine_ = &engine;
  topo_ = &topo;
  cfg_ = &cfg;
  id_ = id;
  pool_ = &pool;
  stats_ = &stats;
  links_ = &blueprint.links();
  routing_ = nullptr;
  rng_ = Rng(seed, static_cast<std::uint64_t>(id) + 0x10000);
  const auto radix = static_cast<std::size_t>(topo.radix());
  const std::size_t queues = radix * static_cast<std::size_t>(cfg.num_vcs);
  ports_.assign(radix, Port{});
  for (int port = 0; port < topo.radix(); ++port) {
    Port& o = ports_[static_cast<std::size_t>(port)];
    o.wire = blueprint.port(id, port).latency;
    o.fwd_latency = o.wire;
  }
  credits_.assign(queues, cfg.buffer_packets);
  inputs_.assign(queues, InputFifo{});
  next_.assign(queues, -1);
  stalled_.assign(queues, StallList{});
  const std::size_t classes =
      cfg.qos.enabled() ? static_cast<std::size_t>(cfg.qos.num_classes) : 0;
  class_requests_.assign(radix * classes, RequestList{});
  deficit_.assign(radix * classes, 0);
  unparked_.assign(classes, RequestList{});
}

void Router::degrade_port(int port, int slowdown, SimTime extra_latency) {
  if (port < 0 || port >= topo_->radix()) {
    throw std::out_of_range("degrade_port: port outside radix");
  }
  if (slowdown < 1 || extra_latency < 0) {
    throw std::invalid_argument("degrade_port: slowdown must be >= 1 and latency >= 0");
  }
  Port& o = ports_[static_cast<std::size_t>(port)];
  o.slowdown = slowdown;
  o.fwd_latency = o.wire + extra_latency + pipeline(o);
}

void Router::connect(int port, Component& peer, int peer_port, bool peer_is_router) {
  const SimTime extra = port_extra_latency(port);
  Port& o = ports_[static_cast<std::size_t>(port)];
  o.peer = &peer;
  o.peer_port = static_cast<std::int16_t>(peer_port);
  o.peer_is_router = peer_is_router;
  o.fwd_latency = o.wire + extra + pipeline(o);
}

int Router::buffered_packets() const {
  int total = 0;
  for (const InputFifo& input : inputs_) total += input.size;
  return total;
}

void Router::handle(Engine& engine, const Event& event) {
  switch (event.kind) {
    case router_ev::kArrive:
      on_arrive(engine, static_cast<std::uint32_t>(event.a),
                static_cast<int>(event.b & 0xff), static_cast<int>((event.b >> 8) & 0xff));
      break;
    case router_ev::kTryPort:
      on_try_port(engine, static_cast<int>(event.a));
      break;
    case router_ev::kCredit:
      on_credit(engine, static_cast<int>(event.a), static_cast<int>(event.b));
      break;
    default:
      assert(false && "unknown router event");
  }
}

void Router::on_arrive(Engine& engine, std::uint32_t packet_id, int in_port, int in_vc) {
  Packet& pkt = pool_->get(packet_id);
  assert(routing_ != nullptr && "router has no routing algorithm");
  assert(in_port < topo_->radix() && in_vc < cfg_->num_vcs && "the sender checked out_vc");
  const int q = in_port * cfg_->num_vcs + in_vc;
  InputFifo& input = inputs_[static_cast<std::size_t>(q)];
  assert(input.size < cfg_->buffer_packets &&
         "arrival into a full buffer: credit protocol violated");

  // on_arrival runs before enter_router_time is refreshed: learning policies
  // read it as "time the packet entered the previous router" to measure the
  // full per-hop delay (queueing + serialisation + wire + pipeline).
  routing_->on_arrival(*this, pkt);
  pkt.enter_router_time = engine.now();
  const RouteDecision decision = routing_->route(*this, pkt);
  assert(decision.out_port >= 0 && decision.out_port < topo_->radix());
  if (decision.out_vc >= cfg_->num_vcs) {
    // vc_for is the hop count, so a path with more router hops than
    // net.num_vcs has no VC left here. Fail the cell before the VC indexes
    // this router's credits or the next router's buffers.
    throw std::logic_error("router " + std::to_string(id_) + ": packet " +
                           std::to_string(packet_id) + " needs vc " +
                           std::to_string(decision.out_vc) + " on port " +
                           std::to_string(decision.out_port) + " (net.num_vcs " +
                           std::to_string(cfg_->num_vcs) +
                           "): the routing policy's path needs more VCs");
  }
  pkt.out_port = decision.out_port;
  pkt.out_vc = decision.out_vc;

  if (input.size == 0) {
    input.head = packet_id;
  } else {
    pool_->get(input.tail).queue_next = packet_id;
  }
  input.tail = packet_id;
  ++input.size;
  ports_[static_cast<std::size_t>(decision.out_port)].pending++;
  if (input.size == 1) post_request(engine, q);
}

void Router::post_request(Engine& engine, int q) {
  const Packet& pkt = head_packet(q);
  Port& o = ports_[static_cast<std::size_t>(pkt.out_port)];
  if (cfg_->qos.enabled()) {
    push_back(class_requests(pkt.out_port, head_class(q)), q);
  } else {
    push_back(o.requests, q);
  }
  schedule_try(engine, pkt.out_port, engine.now() >= o.busy_until ? engine.now() : o.busy_until);
}

int Router::head_class(int q) const {
  const int cls = head_packet(q).traffic_class;
  return cls < cfg_->qos.num_classes ? cls : cfg_->qos.num_classes - 1;
}

bool Router::has_requests(int port) const {
  if (!cfg_->qos.enabled()) return ports_[static_cast<std::size_t>(port)].requests.head >= 0;
  const auto classes = static_cast<std::size_t>(cfg_->qos.num_classes);
  for (std::size_t cls = 0; cls < classes; ++cls) {
    if (class_requests_[static_cast<std::size_t>(port) * classes + cls].head >= 0) return true;
  }
  return false;
}

void Router::schedule_try(Engine& engine, int port, SimTime when) {
  Port& o = ports_[static_cast<std::size_t>(port)];
  if (o.try_pending) return;
  o.try_pending = true;
  engine.schedule_at(when, *this, router_ev::kTryPort, static_cast<std::uint64_t>(port));
}

void Router::park(int port, int vc, int q) {
  StallList& stall = stalled_[static_cast<std::size_t>(port) * cfg_->num_vcs +
                              static_cast<std::size_t>(vc)];
  push_back(stall.list, q);
  ++stall.size;
  ++ports_[static_cast<std::size_t>(port)].parked;
}

void Router::transmit(Engine& engine, int port, int q) {
  Port& o = ports_[static_cast<std::size_t>(port)];
  const int in_port = q / cfg_->num_vcs;
  const int in_vc = q - in_port * cfg_->num_vcs;
  InputFifo& input = inputs_[static_cast<std::size_t>(q)];
  const std::uint32_t packet_id = input.head;
  Packet& pkt = pool_->get(packet_id);
  assert(pkt.out_port == port);
  input.head = pkt.queue_next;
  --input.size;

  o.pending--;
  credits_ref(port, pkt.out_vc)--;
  o.credits_used++;

  const int link = links_->router_out(id_, port);
  if (o.stall_start >= 0) {
    stats_->add_stall(link, engine.now() - o.stall_start);
    o.stall_start = -1;
  }

  const SimTime ser = cfg_->serialization(pkt.bytes) * o.slowdown;
  o.busy_until = engine.now() + ser;
  stats_->add_traffic(link, pkt.app_id, pkt.bytes);
  routing_->on_forward(*this, pkt, port);

  // ECN: mark packets leaving through a congested output (occupancy counts
  // packets queued here for `port` plus downstream slots already claimed).
  if (cfg_->cc.enabled && occupancy(port) >= cfg_->cc.ecn_threshold_packets) {
    pkt.ecn = true;
  }

  pkt.prev_router = static_cast<std::int16_t>(id_);
  pkt.prev_port = static_cast<std::int16_t>(port);

  // A NIC reads only the packet id of an arrival.
  if (o.peer_is_router) pkt.hops++;
  engine.schedule_at(o.busy_until + o.fwd_latency, *o.peer,
                     o.peer_is_router ? router_ev::kArrive : nic_ev::kArrive, packet_id,
                     static_cast<std::uint64_t>(o.peer_port) |
                         (static_cast<std::uint64_t>(pkt.out_vc) << 8));

  // Return the freed buffer slot upstream, over the wire of `in_port`.
  const Port& up = ports_[static_cast<std::size_t>(in_port)];
  if (up.peer != nullptr) {
    engine.schedule_at(engine.now() + up.wire, *up.peer,
                       up.peer_is_router ? router_ev::kCredit : nic_ev::kCredit,
                       static_cast<std::uint64_t>(up.peer_port),
                       static_cast<std::uint64_t>(in_vc));
  }

  // The vacated queue head exposes the next packet: post its request.
  if (input.size > 0) post_request(engine, q);
}

void Router::on_try_port(Engine& engine, int port) {
  Port& o = ports_[static_cast<std::size_t>(port)];
  o.try_pending = false;
  if (engine.now() < o.busy_until) {
    schedule_try(engine, port, o.busy_until);
    return;
  }
  if (cfg_->qos.enabled()) {
    try_port_dwrr(engine, port);
  } else {
    try_port_fifo(engine, port);
  }
}

void Router::try_port_fifo(Engine& engine, int port) {
  Port& o = ports_[static_cast<std::size_t>(port)];
  // FIFO arbitration with per-VC stall parking.
  while (o.requests.head >= 0) {
    const int q = pop_front(o.requests);
    const int vc = head_packet(q).out_vc;
    if (credits_ref(port, vc) > 0) {
      transmit(engine, port, q);
      if (o.requests.head >= 0) schedule_try(engine, port, o.busy_until);
      return;
    }
    park(port, vc, q);
  }
  // Demand exists but every requester is credit-blocked: the link stalls.
  if (o.parked > 0 && o.stall_start < 0) o.stall_start = engine.now();
}

void Router::try_port_dwrr(Engine& engine, int port) {
  Port& o = ports_[static_cast<std::size_t>(port)];
  const int num_classes = cfg_->qos.num_classes;

  // Park credit-blocked heads so only transmittable requests arbitrate;
  // within a class, FIFO order is preserved.
  for (int cls = 0; cls < num_classes; ++cls) {
    RequestList& queue = class_requests(port, cls);
    while (queue.head >= 0) {
      const int vc = head_packet(queue.head).out_vc;
      if (credits_ref(port, vc) > 0) break;
      park(port, vc, pop_front(queue));
    }
    // Standard DWRR: an idle class may not bank deficit.
    if (queue.head < 0) deficit(port, cls) = 0;
  }

  // Serve the eligible class with the largest deficit; replenish every
  // eligible class by weight * quantum until one can afford its head
  // packet. Bandwidth therefore converges to the weight proportions
  // whenever multiple classes have demand.
  for (;;) {
    int chosen = -1;
    std::int32_t chosen_bytes = 0;
    bool any_eligible = false;
    for (int cls = 0; cls < num_classes; ++cls) {
      const RequestList& queue = class_requests(port, cls);
      if (queue.head < 0) continue;
      any_eligible = true;
      const Packet& pkt = head_packet(queue.head);
      if (deficit(port, cls) < pkt.bytes) continue;
      if (chosen < 0 || deficit(port, cls) > deficit(port, chosen)) {
        chosen = cls;
        chosen_bytes = pkt.bytes;
      }
    }
    if (chosen >= 0) {
      const int q = pop_front(class_requests(port, chosen));
      deficit(port, chosen) -= chosen_bytes;
      transmit(engine, port, q);
      if (has_requests(port)) schedule_try(engine, port, o.busy_until);
      return;
    }
    if (!any_eligible) break;
    const std::int64_t quantum_bytes =
        static_cast<std::int64_t>(cfg_->qos.quantum_packets) * cfg_->packet_bytes;
    for (int cls = 0; cls < num_classes; ++cls) {
      if (class_requests(port, cls).head < 0) continue;
      deficit(port, cls) += static_cast<std::int64_t>(cfg_->qos.weight_of(cls)) * quantum_bytes;
    }
  }

  if (o.parked > 0 && o.stall_start < 0) o.stall_start = engine.now();
}

void Router::on_credit(Engine& engine, int port, int vc) {
  credits_ref(port, vc)++;
  Port& o = ports_[static_cast<std::size_t>(port)];
  o.credits_used--;
  assert(credits_ref(port, vc) <= cfg_->buffer_packets);
  StallList& stall = stalled_[static_cast<std::size_t>(port) * cfg_->num_vcs +
                              static_cast<std::size_t>(vc)];
  // Re-activate parked requesters ahead of newer arrivals, in parked order
  // (FIFO fairness); under QoS each returns to the front of its own class.
  if (stall.size > 0) {
    if (cfg_->qos.enabled()) {
      for (int q = stall.list.head; q >= 0;) {
        const int next = next_[static_cast<std::size_t>(q)];
        push_back(unparked_[static_cast<std::size_t>(head_class(q))], q);
        q = next;
      }
      for (int cls = 0; cls < cfg_->qos.num_classes; ++cls) {
        RequestList& group = unparked_[static_cast<std::size_t>(cls)];
        if (group.head < 0) continue;
        splice_front(class_requests(port, cls), group);
        group = RequestList{};
      }
    } else {
      splice_front(o.requests, stall.list);
    }
    o.parked = static_cast<std::int16_t>(o.parked - stall.size);
    stall = StallList{};
  }
  if (has_requests(port)) {
    schedule_try(engine, port, engine.now() >= o.busy_until ? engine.now() : o.busy_until);
  }
}

}  // namespace dfly
