#include "core/blueprint.hpp"

#include <chrono>
#include <utility>

#include "core/study.hpp"

namespace dfly {

namespace {

thread_local BlueprintCache* t_current_cache = nullptr;

}  // namespace

BlueprintKey BlueprintKey::of(const StudyConfig& config) {
  return BlueprintKey{config.topo, config.net};
}

SystemBlueprint::SystemBlueprint(BlueprintKey key)
    : key_(std::move(key)), topo_(key_.topo), links_(topo_), radix_(topo_.radix()) {}

std::shared_ptr<const SystemBlueprint> SystemBlueprint::build(const StudyConfig& config) {
  return build(BlueprintKey::of(config));
}

std::shared_ptr<const SystemBlueprint> SystemBlueprint::build(BlueprintKey key) {
  validate_net_config(key.net, key.topo.radix());
  // dfsim-lint: allow(det-clock) build_ms_ is cache diagnostics, not output
  const auto t0 = std::chrono::steady_clock::now();
  // make_shared needs a public ctor; the private-ctor new is fine here.
  std::shared_ptr<SystemBlueprint> bp(new SystemBlueprint(std::move(key)));
  const Dragonfly& topo = bp->topo_;

  // Wiring plan: resolve every router output port once. Network's wiring
  // loop reads these entries instead of re-deriving the arrangement
  // arithmetic per cell.
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

  // dfsim-lint: allow(det-clock) build_ms_ is cache diagnostics, not output
  const auto t1 = std::chrono::steady_clock::now();
  bp->build_ms_ =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0).count();
  return bp;
}

std::size_t SystemBlueprint::footprint_bytes() const {
  std::size_t bytes = sizeof(SystemBlueprint);
  bytes += ports_.size() * sizeof(PortPlan);
  // Gateways: one endpoint per (router, global port) plus the per-pair lists.
  bytes += static_cast<std::size_t>(topo_.num_routers()) *
           static_cast<std::size_t>(topo_.params().h) * sizeof(GlobalEndpoint);
  return bytes;
}

BlueprintCache* BlueprintCache::current() { return t_current_cache; }

std::shared_ptr<const SystemBlueprint> BlueprintCache::get_or_build(const StudyConfig& config) {
  BlueprintKey key = BlueprintKey::of(config);
  const MutexLock lock(mutex_);
  for (const auto& entry : entries_) {
    if (entry->key() == key) {
      ++stats_.hits;
      return entry;
    }
  }
  ++stats_.misses;
  std::shared_ptr<const SystemBlueprint> built = SystemBlueprint::build(std::move(key));
  stats_.build_ms_total += built->build_ms();
  entries_.push_back(built);
  return built;
}

BlueprintCache::Stats BlueprintCache::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

std::size_t BlueprintCache::size() const {
  const MutexLock lock(mutex_);
  return entries_.size();
}

ScopedBlueprintCacheBinding::ScopedBlueprintCacheBinding(BlueprintCache* cache)
    : previous_(t_current_cache) {
  if (cache != nullptr) t_current_cache = cache;
}

ScopedBlueprintCacheBinding::~ScopedBlueprintCacheBinding() { t_current_cache = previous_; }

}  // namespace dfly
