#include "routing/ugal.hpp"

#include "routing/common.hpp"

namespace dfly::routing {

RouteDecision UgalRouting::route(Router& router, Packet& pkt) {
  const int dst_group = router.topo().group_of_router(dst_router_of(router, pkt));
  if (pkt.hops == 0 && dst_group != router.group()) {
    // One-time source decision over sampled candidates.
    const Candidate c = ugal_choose(router, pkt, params_, node_variant_, params_.bias);
    if (c.int_group >= 0) commit_valiant(pkt, c.int_group, c.int_router);
    return RouteDecision{static_cast<std::int16_t>(c.port), vc_for(pkt)};
  }
  return continue_route(router, pkt);
}

}  // namespace dfly::routing
