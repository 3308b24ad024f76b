#include "net/network.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/arena.hpp"
#include "core/blueprint.hpp"

namespace dfly {

Network::Network(Engine& engine, const SystemBlueprint& blueprint, RoutingAlgorithm& routing,
                 int num_apps, std::uint64_t seed, NetworkObservability observability,
                 SimArena* arena)
    : engine_(&engine),
      blueprint_(&blueprint),
      topo_(&blueprint.topo()),
      cfg_(&blueprint.net()),
      links_(&blueprint.links()),
      arena_(arena),
      traffic_classes_(num_apps) {
  const Dragonfly& topo = *topo_;
  if (arena_ != nullptr) {
    // Adopt the worker's carried storage before any component references it;
    // member addresses are stable, so routers/NICs built below can safely
    // point at pool_/link_stats_/packet_log_.
    SimArena::NetStorage storage = arena_->take_net();
    pool_ = std::move(storage.pool);
    link_stats_ = std::move(storage.stats);
    packet_log_ = std::move(storage.log);
    routers_ = std::move(storage.routers);
    nics_ = std::move(storage.nics);
  }
  link_stats_.reset(links_->total_links(), num_apps);
  packet_log_.reset(num_apps, observability.keep_packet_records, observability.throughput_bucket);

  const auto num_routers = static_cast<std::size_t>(topo.num_routers());
  if (routers_.size() > num_routers) routers_.resize(num_routers);
  routers_.reserve(num_routers);
  for (int r = 0; r < topo.num_routers(); ++r) {
    const auto slot = static_cast<std::size_t>(r);
    const bool reused = slot < routers_.size();
    if (reused) {
      routers_[slot]->reinit(engine, blueprint, r, pool_, link_stats_, seed);
    } else {
      routers_.push_back(std::make_unique<Router>(engine, blueprint, r, pool_, link_stats_, seed));
    }
    if (arena_ != nullptr) arena_->count_router(reused);
    routers_[slot]->set_routing(routing);
  }
  const auto num_nodes = static_cast<std::size_t>(topo.num_nodes());
  if (nics_.size() > num_nodes) nics_.resize(num_nodes);
  nics_.reserve(num_nodes);
  for (int n = 0; n < topo.num_nodes(); ++n) {
    const auto slot = static_cast<std::size_t>(n);
    const bool reused = slot < nics_.size();
    if (reused) {
      nics_[slot]->reinit(engine, blueprint, n, pool_, link_stats_, packet_log_);
    } else {
      nics_.push_back(
          std::make_unique<Nic>(engine, blueprint, n, pool_, link_stats_, packet_log_));
    }
    if (arena_ != nullptr) arena_->count_nic(reused);
    nics_[slot]->attach(*routers_[static_cast<std::size_t>(topo.router_of_node(n))]);
    nics_[slot]->set_traffic_classes(&traffic_classes_);
    nics_[slot]->set_directory(this);
  }

  // Wire router-to-router and router-to-NIC terminal links straight off the
  // blueprint's precomputed wiring plan. Each connect() covers both
  // directions of the wire: packets out of the port, credits for the input
  // port of the same index back over it.
  for (int r = 0; r < topo.num_routers(); ++r) {
    Router& router = *routers_[static_cast<std::size_t>(r)];
    for (int port = 0; port < topo.radix(); ++port) {
      const SystemBlueprint::PortPlan& plan = blueprint.port(r, port);
      const int link = links_->router_out(r, port);
      if (plan.peer_router < 0) {  // terminal port: the peer is a NIC
        const int node = topo.node_id(r, port);
        Nic& nic = *nics_[static_cast<std::size_t>(node)];
        router.connect(port, nic, 0, /*peer_is_router=*/false);
        link_stats_.set_link_info(link, LinkClass::kTerminal, r, r);
        link_stats_.set_link_info(links_->nic_out(node), LinkClass::kTerminal, r, r);
        continue;
      }
      Router& peer = *routers_[static_cast<std::size_t>(plan.peer_router)];
      router.connect(port, peer, plan.peer_port, /*peer_is_router=*/true);
      link_stats_.set_link_info(link, plan.cls, r, plan.peer_router);
    }
  }
}

Network::~Network() {
  if (arena_ == nullptr) return;
  // Hand the storage back for the worker's next cell. The recycled routers
  // and NICs still point at this (dying) Network's members; reinit()
  // re-points every one of those pointers before the next cell uses them.
  SimArena::NetStorage storage;
  storage.pool = std::move(pool_);
  storage.stats = std::move(link_stats_);
  storage.log = std::move(packet_log_);
  storage.routers = std::move(routers_);
  storage.nics = std::move(nics_);
  arena_->return_net(std::move(storage));
}

void Network::apply_faults(const FaultPlan& plan) {
  for (const LinkFault& fault : plan.faults()) {
    if (fault.router < 0 || fault.router >= topo_->num_routers()) {
      throw std::out_of_range("apply_faults: router id outside system");
    }
    routers_[static_cast<std::size_t>(fault.router)]->degrade_port(fault.port, fault.slowdown,
                                                                   fault.extra_latency);
  }
}

void Network::set_sink(MessageEvents& sink) {
  for (auto& nic : nics_) nic->set_sink(&sink);
}

std::uint64_t Network::send_message(int src_node, int dst_node, std::int64_t bytes, int app_id) {
  assert(bytes >= 1);
  const std::uint64_t msg_id = next_msg_id_++;
  if (src_node == dst_node) {
    // Local (intra-node) message: no network involvement. The sending NIC
    // reports it sent and delivered after a memcpy-like delay at link rate,
    // so timing stays monotone.
    const SimTime delay = cfg_->serialization(static_cast<int>(bytes > cfg_->packet_bytes
                                                                   ? cfg_->packet_bytes
                                                                   : bytes));
    engine_->schedule_in(delay, *nics_[static_cast<std::size_t>(src_node)], nic_ev::kLocalDone,
                         msg_id);
    return msg_id;
  }
  nics_[static_cast<std::size_t>(dst_node)]->expect_message(msg_id, bytes);
  nics_[static_cast<std::size_t>(src_node)]->enqueue_message(msg_id, dst_node, bytes, app_id);
  return msg_id;
}

}  // namespace dfly
