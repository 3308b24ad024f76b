#pragma once

#include "net/routing_iface.hpp"

namespace dfly::routing {

/// Tunables for the UGAL family (paper §III: zero bias, 2 candidates each).
struct UgalParams {
  int min_candidates{2};
  int nonmin_candidates{2};
  /// Minimal is chosen when q_min <= nonmin_weight * q_nonmin + bias.
  int nonmin_weight{2};
  int bias{0};

  /// Equality (config round-trip tests).
  bool operator==(const UgalParams&) const = default;
};

/// Universal Globally-Adaptive Load-balanced routing (Cray-style).
///
/// At the source router the packet samples `min_candidates` minimal and
/// `nonmin_candidates` non-minimal first hops and compares port queue
/// occupancies: minimal wins unless it is at least `nonmin_weight` times as
/// congested (the paper's "less than twice" rule). UGALg forwards minimally
/// once inside the intermediate group; UGALn first visits a random router in
/// it to dodge intermediate-group local congestion.
class UgalRouting final : public RoutingAlgorithm {
 public:
  UgalRouting(bool node_variant, UgalParams params = {})
      : node_variant_(node_variant), params_(params) {}

  std::string name() const override { return node_variant_ ? "UGALn" : "UGALg"; }
  RouteDecision route(Router& router, Packet& pkt) override;

  const UgalParams& params() const { return params_; }

 private:
  // Immutable parameterisation: UGAL keeps no per-cell learning state — every
  // decision reads live router queue occupancy.
  const bool node_variant_;
  const UgalParams params_;
};

}  // namespace dfly::routing
