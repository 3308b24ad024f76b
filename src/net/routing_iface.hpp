#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"

namespace dfly {

class Router;

/// Output decision for one packet at one router.
struct RouteDecision {
  std::int16_t out_port{-1};
  std::int16_t out_vc{0};
};

/// Routing policy interface. One instance serves the whole network; policies
/// with per-router state (Q-adaptive) keep it internally, indexed by router
/// id. `route` is invoked exactly once per packet per router, at arrival.
class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Decide the output port/VC for `pkt` sitting at `router`, updating the
  /// packet's path bookkeeping (Valiant midpoint, phase) that the policy's
  /// later hops read.
  virtual RouteDecision route(Router& router, Packet& pkt) = 0;

  /// Called after `pkt` arrived at `router` (before route). Learning
  /// algorithms use this to emit feedback toward pkt.prev_router.
  virtual void on_arrival(Router& /*router*/, Packet& /*pkt*/) {}

  /// Called when `router` actually transmits `pkt` on `out_port`.
  virtual void on_forward(Router& /*router*/, const Packet& /*pkt*/, int /*out_port*/) {}
};

}  // namespace dfly
