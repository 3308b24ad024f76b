#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/config.hpp"
#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/router.hpp"
#include "net/routing_iface.hpp"
#include "sim/engine.hpp"
#include "stats/link_stats.hpp"
#include "stats/packet_log.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {

class SimArena;
class SystemBlueprint;

/// Options for the observability plane.
struct NetworkObservability {
  bool keep_packet_records{false};   ///< store full per-packet records (Figs 6/7)
  SimTime throughput_bucket{kMs / 10};
};

/// The assembled Dragonfly network: routers, NICs, wires, statistics.
///
/// The Network is the *mutable* half of a cell's network state: it owns the
/// components and the packet pool, while every read-only input — topology,
/// NetConfig, link-id scheme and the resolved per-port wiring plan — comes
/// from an immutable SystemBlueprint that the caller keeps alive for the
/// Network's lifetime (Study holds it by shared_ptr) and that may be shared
/// with any number of concurrent cells of the same shape. The routing
/// algorithm is supplied by the caller (it may carry learning state and be
/// a Component of its own, so its lifetime is managed above this class).
///
/// When an `arena` is supplied, the packet pool, stats blocks and the
/// router/NIC objects are borrowed from it instead of built from scratch:
/// recycled components are reinit()-ed in place (keeping their buffer
/// storage) and everything moves back to the arena on destruction, so the
/// worker's next cell starts pre-grown to the high-water mark of everything
/// this worker has run. Reuse is observable-state-neutral — simulation
/// output is bit-identical with or without an arena.
class Network final : public NicDirectory {
 public:
  Network(Engine& engine, const SystemBlueprint& blueprint, RoutingAlgorithm& routing,
          int num_apps, std::uint64_t seed, NetworkObservability observability = {},
          SimArena* arena = nullptr);
  ~Network() override;

  /// Queue a message; returns the assigned message id. Self-sends (src ==
  /// dst) bypass the network and complete after a memcpy-like local delay.
  std::uint64_t send_message(int src_node, int dst_node, std::int64_t bytes, int app_id);

  void set_sink(MessageEvents& sink);

  Router& router(int id) { return *routers_[static_cast<std::size_t>(id)]; }
  Nic& nic(int node) { return *nics_[static_cast<std::size_t>(node)]; }
  Nic& nic_at(int node) override { return nic(node); }
  const SystemBlueprint& blueprint() const { return *blueprint_; }
  const Dragonfly& topo() const { return *topo_; }
  const NetConfig& cfg() const { return *cfg_; }
  Engine& engine() { return *engine_; }

  /// Apply a set of link faults (degraded serialisation / extra latency on
  /// router output wires). Call before traffic starts; faults on terminal
  /// ports slow the router-to-NIC direction only.
  void apply_faults(const FaultPlan& plan);

  /// Assign application `app_id` to QoS traffic class `cls` (effective for
  /// packets injected after the call; NetConfig::qos must enable classes
  /// for the assignment to change arbitration).
  void set_app_class(int app_id, int cls) { traffic_classes_.assign(app_id, cls); }
  const TrafficClassMap& traffic_classes() const { return traffic_classes_; }

  LinkStats& link_stats() { return link_stats_; }
  const LinkStats& link_stats() const { return link_stats_; }
  PacketLog& packet_log() { return packet_log_; }
  const PacketLog& packet_log() const { return packet_log_; }
  const LinkMap& link_map() const { return *links_; }
  PacketPool& pool() { return pool_; }

  /// Total packets currently buffered in routers plus queued in NICs.
  std::int64_t in_flight_packets() const { return static_cast<std::int64_t>(pool_.in_use()); }

 private:
  Engine* engine_;
  const SystemBlueprint* blueprint_;  ///< immutable shared plan (caller-owned)
  const Dragonfly* topo_;             ///< = &blueprint_->topo()
  const NetConfig* cfg_;              ///< = &blueprint_->net()
  const LinkMap* links_;              ///< = &blueprint_->links()
  SimArena* arena_;  ///< storage donor/recipient; null = self-owned only
  // pool_/link_stats_/packet_log_/routers_/nics_ hold arena-borrowed storage
  // when arena_ is set; the destructor moves it back.
  PacketPool pool_;
  LinkStats link_stats_;
  PacketLog packet_log_;
  TrafficClassMap traffic_classes_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::uint64_t next_msg_id_{1};
};

}  // namespace dfly
