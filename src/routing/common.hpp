#pragma once

#include "net/packet.hpp"
#include "net/router.hpp"
#include "net/routing_iface.hpp"
#include "routing/ugal.hpp"

namespace dfly::routing {

/// Destination router of a packet.
inline int dst_router_of(const Router& r, const Packet& pkt) {
  return r.topo().router_of_node(pkt.dst_node);
}

/// Ejection decision: the packet is at its destination router.
inline RouteDecision eject(const Router& r, const Packet& pkt) {
  return RouteDecision{static_cast<std::int16_t>(r.topo().terminal_port_of_node(pkt.dst_node)), 0};
}

/// VC discipline: the VC index equals the number of router-to-router hops
/// already taken, which strictly increases along every admissible path and
/// therefore yields an acyclic channel dependency graph (deadlock freedom).
inline std::int16_t vc_for(const Packet& pkt) { return static_cast<std::int16_t>(pkt.hops); }

/// Next output port on a minimal route toward `target_group`. Prefers this
/// router's own global links; otherwise takes a local hop to a gateway
/// router (chosen uniformly to spread load over the group's gateways).
int toward_group_port(Router& r, int target_group);

/// Next output port on a minimal route toward `target_router`.
int toward_router_port(Router& r, int target_router);

/// Mark the packet as non-minimal via (`int_group`, optional `int_router`).
void commit_valiant(Packet& pkt, int int_group, int int_router);

/// Hop decision shared by every policy once the path shape is committed:
/// head for the Valiant midpoint if one is pending, else head minimally for
/// the destination; eject on arrival. Updates phase/reached_int bookkeeping.
RouteDecision continue_route(Router& r, Packet& pkt);

/// One sampled first-hop option at the source router (UGAL-style selection).
struct Candidate {
  int port{-1};
  int occupancy{0};
  int int_group{-1};   ///< -1 for minimal candidates
  int int_router{-1};  ///< >= 0 when a Valiant midpoint router was drawn
};

/// Draw a minimal first-hop candidate toward the packet's destination.
Candidate sample_minimal(Router& r, const Packet& pkt);

/// Draw a non-minimal candidate via a random intermediate group (!= source
/// and destination groups). When `pick_router`, a random midpoint router in
/// that group is also drawn (UGALn/PAR semantics).
Candidate sample_nonminimal(Router& r, const Packet& pkt, bool pick_router);

/// The UGAL rule shared by every adaptive policy: minimal wins while
/// q_min <= nonmin_weight * q_nonmin + bias.
bool prefers_minimal(int q_min, int q_nonmin, const UgalParams& params, int bias);

/// UGAL source decision: draws `min_candidates` minimal samples, then
/// `nonmin_candidates` non-minimal ones (see sample_nonminimal), keeps the
/// first least-occupied sample of each and applies prefers_minimal; a tie
/// goes minimal. The winner is non-minimal iff its `int_group >= 0`.
Candidate ugal_choose(Router& r, const Packet& pkt, const UgalParams& params, bool pick_router,
                      int bias);

}  // namespace dfly::routing
