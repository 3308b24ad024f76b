#include "routing/par.hpp"

#include "routing/common.hpp"

namespace dfly::routing {

namespace {

/// Diversion candidate restricted to this router's own global ports, so a
/// revised packet leaves the source group immediately.
Candidate sample_own_global(Router& router, const Packet& pkt, bool pick_router) {
  const Dragonfly& topo = router.topo();
  const int dst_group = topo.group_of_router(topo.router_of_node(pkt.dst_node));
  const int src_group = router.group();
  Candidate c;
  const int h = topo.params().h;
  const int k = static_cast<int>(router.rng().next_below(static_cast<std::uint64_t>(h)));
  const int target = topo.group_reached_by(router.id(), k);
  if (target == dst_group || target == src_group) return c;  // not a detour
  c.int_group = target;
  c.port = topo.global_port(k);
  c.occupancy = router.occupancy(c.port);
  if (pick_router) {
    c.int_router = topo.router_id(
        target, static_cast<int>(router.rng().next_below(static_cast<std::uint64_t>(topo.params().a))));
  }
  return c;
}

}  // namespace

RouteDecision ParRouting::route(Router& router, Packet& pkt) {
  const Dragonfly& topo = router.topo();
  const int dst_group = topo.group_of_router(dst_router_of(router, pkt));

  if (pkt.hops == 0 && dst_group != router.group()) {
    // Initial UGALn-style comparison; a minimal outcome stays revisable.
    const Candidate c = ugal_choose(router, pkt, params_, /*pick_router=*/true, params_.bias);
    if (c.int_group >= 0) {
      commit_valiant(pkt, c.int_group, c.int_router);
    } else {
      pkt.par_revisable = true;
    }
    return RouteDecision{static_cast<std::int16_t>(c.port), vc_for(pkt)};
  }

  // Progressive revision: still minimal, still in the source group.
  if (pkt.par_revisable && !pkt.nonminimal && router.group() != dst_group) {
    const Candidate min_cont = sample_minimal(router, pkt);
    Candidate best_nonmin;
    for (int i = 0; i < params_.nonmin_candidates; ++i) {
      const Candidate c = sample_own_global(router, pkt, /*pick_router=*/true);
      if (c.int_group < 0) continue;
      if (best_nonmin.port < 0 || c.occupancy < best_nonmin.occupancy) best_nonmin = c;
    }
    pkt.par_revisable = false;  // one revision opportunity
    if (best_nonmin.port >= 0 &&
        !prefers_minimal(min_cont.occupancy, best_nonmin.occupancy, params_, params_.bias)) {
      commit_valiant(pkt, best_nonmin.int_group, best_nonmin.int_router);
      return RouteDecision{static_cast<std::int16_t>(best_nonmin.port), vc_for(pkt)};
    }
  }
  return continue_route(router, pkt);
}

}  // namespace dfly::routing
