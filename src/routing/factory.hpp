#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/config.hpp"
#include "net/routing_iface.hpp"
#include "routing/q_adaptive.hpp"
#include "routing/ugal.hpp"
#include "sim/engine.hpp"
#include "topo/dragonfly.hpp"

namespace dfly::routing {

/// Everything needed to instantiate any routing policy.
///
/// `topo` and `cfg` point into the SystemBlueprint shared across cells;
/// `ugal` and `qadp` are the cell's own StudyConfig parameters; the engine
/// and seed feed the policy's per-cell mutable state (Rng streams, Q-tables,
/// flow tables). No routing needs anything else from the blueprint: Q-adp
/// fills its initial Q-tables itself.
struct RoutingContext {
  Engine* engine;
  const Dragonfly* topo;
  const NetConfig* cfg;
  std::uint64_t seed{1};
  UgalParams ugal{};
  QAdaptiveParams qadp{};
};

/// Names: "MIN", "VALg", "VALn", "UGALg", "UGALn", "PAR", "FlowUGAL", "AppAware",
/// "Q-adp" (all_routings()); anything else throws std::invalid_argument.
std::unique_ptr<RoutingAlgorithm> make_routing(const std::string& name,
                                               const RoutingContext& context);

/// The four policies evaluated in the paper, in figure order.
const std::vector<std::string>& paper_routings();

/// All policies this library implements.
const std::vector<std::string>& all_routings();

}  // namespace dfly::routing
