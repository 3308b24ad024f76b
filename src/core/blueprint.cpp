#include "core/blueprint.hpp"

#include <chrono>
#include <cstring>
#include <numeric>
#include <utility>

#include "core/study.hpp"

namespace dfly {

namespace {

thread_local BlueprintCache* t_current_cache = nullptr;

/// FNV-1a over a stream of explicitly-fed values (never over raw struct
/// bytes: padding would make equal keys hash differently).
struct KeyHasher {
  std::uint64_t state{1469598103934665603ull};

  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state ^= (value >> (8 * i)) & 0xff;
      state *= 1099511628211ull;
    }
  }
  void mix(int value) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(value))); }
  void mix(bool value) { mix(static_cast<std::uint64_t>(value ? 1 : 0)); }
  void mix(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    mix(bits);
  }
  void mix(const std::string& value) {
    mix(static_cast<std::uint64_t>(value.size()));
    for (const char c : value) mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
};

}  // namespace

BlueprintKey BlueprintKey::of(const StudyConfig& config) {
  BlueprintKey key;
  key.topo = config.topo;
  key.net = config.net;
  key.routing = config.routing;
  key.placement = config.placement;
  key.protocol = config.protocol;
  key.ugal = config.ugal;
  key.qadp = config.qadp;
  key.faults = config.faults.faults();
  return key;
}

std::size_t BlueprintKey::hash() const {
  KeyHasher h;
  h.mix(topo.p);
  h.mix(topo.a);
  h.mix(topo.h);
  h.mix(topo.g);
  h.mix(static_cast<int>(topo.arrangement));
  h.mix(net.flit_bytes);
  h.mix(net.packet_bytes);
  h.mix(net.buffer_packets);
  h.mix(net.num_vcs);
  h.mix(net.link_gbps);
  h.mix(static_cast<std::uint64_t>(net.local_latency));
  h.mix(static_cast<std::uint64_t>(net.global_latency));
  h.mix(static_cast<std::uint64_t>(net.terminal_latency));
  h.mix(static_cast<std::uint64_t>(net.router_latency));
  h.mix(net.qos.num_classes);
  h.mix(static_cast<std::uint64_t>(net.qos.weights.size()));
  for (const int w : net.qos.weights) h.mix(w);
  h.mix(net.qos.quantum_packets);
  h.mix(net.cc.enabled);
  h.mix(net.cc.ecn_threshold_packets);
  h.mix(net.cc.md_factor);
  h.mix(net.cc.ai_step);
  h.mix(static_cast<std::uint64_t>(net.cc.ai_period));
  h.mix(net.cc.min_rate);
  h.mix(static_cast<std::uint64_t>(net.cc.decrease_guard));
  h.mix(routing);
  h.mix(static_cast<int>(placement));
  h.mix(static_cast<std::uint64_t>(protocol.eager_threshold));
  h.mix(static_cast<std::uint64_t>(protocol.control_bytes));
  h.mix(ugal.min_candidates);
  h.mix(ugal.nonmin_candidates);
  h.mix(ugal.nonmin_weight);
  h.mix(ugal.bias);
  h.mix(qadp.alpha);
  h.mix(qadp.epsilon);
  h.mix(qadp.queue_weight);
  h.mix(static_cast<std::uint64_t>(faults.size()));
  for (const LinkFault& f : faults) {
    h.mix(f.router);
    h.mix(f.port);
    h.mix(f.slowdown);
    h.mix(static_cast<std::uint64_t>(f.extra_latency));
  }
  return static_cast<std::size_t>(h.state);
}

SystemBlueprint::SystemBlueprint(BlueprintKey key)
    : key_(std::move(key)), topo_(key_.topo), links_(topo_), radix_(topo_.radix()) {}

std::shared_ptr<const SystemBlueprint> SystemBlueprint::build(const StudyConfig& config) {
  validate_net_config(config.net, config.topo.radix());
  // dfsim-lint: allow(det-clock) build_ms_ is cache diagnostics, not output
  const auto t0 = std::chrono::steady_clock::now();
  // make_shared needs a public ctor; the private-ctor new is fine here.
  std::shared_ptr<SystemBlueprint> bp(new SystemBlueprint(BlueprintKey::of(config)));
  const Dragonfly& topo = bp->topo_;
  bp->faults_ = config.faults;

  // Wiring plan: resolve every router output port once. Network's wiring
  // loop and Q-adaptive's initial estimates both read these entries instead
  // of re-deriving the arrangement arithmetic per cell.
  bp->ports_.resize(static_cast<std::size_t>(topo.num_routers()) *
                    static_cast<std::size_t>(bp->radix_));
  for (int r = 0; r < topo.num_routers(); ++r) {
    for (int port = 0; port < bp->radix_; ++port) {
      PortPlan& plan = bp->ports_[static_cast<std::size_t>(r) * bp->radix_ + port];
      plan.latency = LinkMap::port_latency(topo, bp->key_.net, port);
      plan.cls = LinkMap::port_class(topo, port);
      if (topo.is_terminal_port(port)) continue;  // peer is a NIC
      const Dragonfly::Wire wire = topo.wire(r, port);
      plan.peer_router = wire.peer_router;
      plan.peer_port = static_cast<std::int16_t>(wire.peer_port);
      plan.global = wire.global;
    }
  }

  bp->paths_ = PathPlan::build(topo);

  bp->placement_pool_.resize(static_cast<std::size_t>(topo.num_nodes()));
  std::iota(bp->placement_pool_.begin(), bp->placement_pool_.end(), 0);

  if (bp->key_.routing == "Q-adp") {
    bp->qinit_ = routing::build_initial_qtables(topo, bp->key_.net);
  }

  // dfsim-lint: allow(det-clock) build_ms_ is cache diagnostics, not output
  const auto t1 = std::chrono::steady_clock::now();
  bp->build_ms_ =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0).count();
  return bp;
}

std::size_t SystemBlueprint::footprint_bytes() const {
  std::size_t bytes = sizeof(SystemBlueprint);
  bytes += ports_.size() * sizeof(PortPlan);
  bytes += paths_.min_hops.size() * sizeof(std::uint8_t);
  bytes += paths_.group_paths.size() * sizeof(std::int32_t);
  bytes += placement_pool_.size() * sizeof(int);
  for (const QTable& table : qinit_) bytes += table.footprint_bytes();
  // Gateways: one endpoint per (router, global port) plus the per-pair lists.
  bytes += static_cast<std::size_t>(topo_.num_routers()) *
           static_cast<std::size_t>(topo_.params().h) * sizeof(GlobalEndpoint);
  return bytes;
}

BlueprintCache* BlueprintCache::current() { return t_current_cache; }

std::shared_ptr<const SystemBlueprint> BlueprintCache::get_or_build(const StudyConfig& config) {
  const BlueprintKey key = BlueprintKey::of(config);
  const std::size_t hash = key.hash();
  const MutexLock lock(mutex_);
  auto& bucket = by_hash_[hash];
  for (const auto& entry : bucket) {
    if (entry->key() == key) {
      ++stats_.hits;
      return entry;
    }
  }
  ++stats_.misses;
  std::shared_ptr<const SystemBlueprint> built = SystemBlueprint::build(config);
  stats_.build_ms_total += built->build_ms();
  bucket.push_back(built);
  return built;
}

BlueprintCache::Stats BlueprintCache::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

std::size_t BlueprintCache::size() const {
  const MutexLock lock(mutex_);
  std::size_t n = 0;
  // dfsim-lint: allow(det-unordered-iter) summing bucket sizes is
  // order-independent; nothing here reaches simulation output.
  for (const auto& [hash, bucket] : by_hash_) n += bucket.size();
  return n;
}

ScopedBlueprintCacheBinding::ScopedBlueprintCacheBinding(BlueprintCache* cache)
    : previous_(t_current_cache) {
  if (cache != nullptr) t_current_cache = cache;
}

ScopedBlueprintCacheBinding::~ScopedBlueprintCacheBinding() { t_current_cache = previous_; }

}  // namespace dfly
