#include "routing/minimal.hpp"

#include <cassert>

#include "routing/common.hpp"

namespace dfly::routing {

int toward_group_port(Router& r, int target_group) {
  const Dragonfly& topo = r.topo();
  const int here_group = topo.group_of_router(r.id());
  assert(here_group != target_group && "already in the target group");
  const auto& gw = topo.gateways(here_group, target_group);
  assert(!gw.empty());
  // Own global links first (zero extra hops).
  int own = 0;
  for (const auto& e : gw) {
    if (e.router == r.id()) ++own;
  }
  if (own > 0) {
    auto pick = static_cast<int>(r.rng().next_below(static_cast<std::uint64_t>(own)));
    for (const auto& e : gw) {
      if (e.router == r.id() && pick-- == 0) return topo.global_port(e.global_port);
    }
  }
  const auto& e = gw[r.rng().next_below(gw.size())];
  return topo.local_port_to(r.id(), topo.local_index(e.router));
}

int toward_router_port(Router& r, int target_router) {
  const Dragonfly& topo = r.topo();
  assert(target_router != r.id());
  const int tg = topo.group_of_router(target_router);
  if (tg == topo.group_of_router(r.id())) {
    return topo.local_port_to(r.id(), topo.local_index(target_router));
  }
  return toward_group_port(r, tg);
}

void commit_valiant(Packet& pkt, int int_group, int int_router) {
  pkt.nonminimal = true;
  pkt.reached_int = false;
  pkt.int_group = static_cast<std::int16_t>(int_group);
  pkt.int_router = static_cast<std::int16_t>(int_router);
}

RouteDecision continue_route(Router& r, Packet& pkt) {
  const Dragonfly& topo = r.topo();
  const int dst_router = dst_router_of(r, pkt);
  if (r.id() == dst_router) return eject(r, pkt);

  if (pkt.nonminimal && !pkt.reached_int) {
    const bool at_midpoint = pkt.int_router >= 0
                                 ? r.id() == pkt.int_router
                                 : topo.group_of_router(r.id()) == pkt.int_group;
    if (at_midpoint) {
      pkt.reached_int = true;
    } else {
      const int port = pkt.int_router >= 0 ? toward_router_port(r, pkt.int_router)
                                           : toward_group_port(r, pkt.int_group);
      return RouteDecision{static_cast<std::int16_t>(port), vc_for(pkt)};
    }
  }
  const int port = toward_router_port(r, dst_router);
  return RouteDecision{static_cast<std::int16_t>(port), vc_for(pkt)};
}

Candidate sample_minimal(Router& r, const Packet& pkt) {
  const Dragonfly& topo = r.topo();
  const int dst_router = dst_router_of(r, pkt);
  Candidate c;
  if (topo.group_of_router(dst_router) == topo.group_of_router(r.id())) {
    c.port = topo.local_port_to(r.id(), topo.local_index(dst_router));
  } else {
    c.port = toward_group_port(r, topo.group_of_router(dst_router));
  }
  c.occupancy = r.occupancy(c.port);
  return c;
}

Candidate sample_nonminimal(Router& r, const Packet& pkt, bool pick_router) {
  const Dragonfly& topo = r.topo();
  const int g = topo.num_groups();
  const int src_group = topo.group_of_router(r.id());
  const int dst_group = topo.group_of_router(dst_router_of(r, pkt));
  // Draw an intermediate group != src, dst (there are always >= 1 others on
  // any system with g >= 3; with g == 2 fall back to the destination group,
  // degenerating to a minimal route).
  Candidate c;
  if (g <= 2) {
    c = sample_minimal(r, pkt);
    return c;
  }
  int pick = src_group;
  while (pick == src_group || pick == dst_group) {
    pick = static_cast<int>(r.rng().next_below(static_cast<std::uint64_t>(g)));
  }
  c.int_group = pick;
  if (pick_router) {
    c.int_router = topo.router_id(
        pick, static_cast<int>(r.rng().next_below(static_cast<std::uint64_t>(topo.params().a))));
  }
  c.port = toward_group_port(r, pick);
  c.occupancy = r.occupancy(c.port);
  return c;
}

bool prefers_minimal(int q_min, int q_nonmin, const UgalParams& params, int bias) {
  return q_min <= params.nonmin_weight * q_nonmin + bias;
}

Candidate ugal_choose(Router& r, const Packet& pkt, const UgalParams& params, bool pick_router,
                      int bias) {
  Candidate best_min;
  for (int i = 0; i < params.min_candidates; ++i) {
    const Candidate c = sample_minimal(r, pkt);
    if (best_min.port < 0 || c.occupancy < best_min.occupancy) best_min = c;
  }
  Candidate best_nonmin;
  for (int i = 0; i < params.nonmin_candidates; ++i) {
    const Candidate c = sample_nonminimal(r, pkt, pick_router);
    if (c.int_group < 0) continue;  // degenerate small system
    if (best_nonmin.port < 0 || c.occupancy < best_nonmin.occupancy) best_nonmin = c;
  }
  if (best_nonmin.port < 0 ||
      prefers_minimal(best_min.occupancy, best_nonmin.occupancy, params, bias)) {
    return best_min;
  }
  return best_nonmin;
}

RouteDecision MinimalRouting::route(Router& router, Packet& pkt) {
  return continue_route(router, pkt);
}

}  // namespace dfly::routing
