#include "routing/flow_aware.hpp"

#include "routing/common.hpp"

namespace dfly::routing {

FlowAwareRouting::FlowEntry FlowAwareRouting::decide(Router& router, Packet& pkt) const {
  // Same sampled decision rule as UgalRouting (UGALn variant: a midpoint
  // router is drawn for non-minimal paths), but the outcome is recorded for
  // the whole flow instead of applying to one packet.
  const Candidate c =
      ugal_choose(router, pkt, params_.ugal, /*pick_router=*/true, params_.ugal.bias);
  return FlowEntry{static_cast<std::int16_t>(c.port), static_cast<std::int16_t>(c.int_group),
                   static_cast<std::int16_t>(c.int_router), router.engine().now()};
}

RouteDecision FlowAwareRouting::route(Router& router, Packet& pkt) {
  const Dragonfly& topo = router.topo();
  const int dst_group = topo.group_of_router(dst_router_of(router, pkt));
  if (pkt.hops == 0 && dst_group != router.group()) {
    const std::uint64_t key = flow_key(pkt);
    FlowEntry* slot = flows_.find(key);
    const SimTime now = router.engine().now();
    if (slot == nullptr) {
      flows_.emplace(key, decide(router, pkt));
      slot = flows_.find(key);
    } else if (now - slot->decided_at >= params_.refresh_period) {
      *slot = decide(router, pkt);
      ++refreshes_;
    }
    const FlowEntry& entry = *slot;
    if (entry.int_group >= 0) commit_valiant(pkt, entry.int_group, entry.int_router);
    return RouteDecision{entry.port, vc_for(pkt)};
  }
  return continue_route(router, pkt);
}

}  // namespace dfly::routing
