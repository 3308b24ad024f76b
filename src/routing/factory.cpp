#include "routing/factory.hpp"

#include <stdexcept>

#include "routing/app_aware.hpp"
#include "routing/flow_aware.hpp"
#include "routing/minimal.hpp"
#include "routing/par.hpp"
#include "routing/valiant.hpp"

namespace dfly::routing {

std::unique_ptr<RoutingAlgorithm> make_routing(const std::string& name,
                                               const RoutingContext& context) {
  if (name == "MIN") return std::make_unique<MinimalRouting>();
  if (name == "VALg") return std::make_unique<ValiantRouting>(false);
  if (name == "VALn") return std::make_unique<ValiantRouting>(true);
  if (name == "UGALg") return std::make_unique<UgalRouting>(false, context.ugal);
  if (name == "UGALn") return std::make_unique<UgalRouting>(true, context.ugal);
  if (name == "PAR") return std::make_unique<ParRouting>(context.ugal);
  if (name == "AppAware") {
    AppAwareParams params;
    params.ugal = context.ugal;
    return std::make_unique<AppAwareUgalRouting>(params);
  }
  if (name == "FlowUGAL") {
    FlowAwareParams params;
    params.ugal = context.ugal;
    return std::make_unique<FlowAwareRouting>(params);
  }
  if (name == "Q-adp") {
    return std::make_unique<QAdaptiveRouting>(*context.engine, *context.topo, *context.cfg,
                                              context.qadp, context.seed);
  }
  throw std::invalid_argument("unknown routing algorithm: " + name);
}

const std::vector<std::string>& paper_routings() {
  static const std::vector<std::string> names{"UGALg", "UGALn", "PAR", "Q-adp"};
  return names;
}

const std::vector<std::string>& all_routings() {
  static const std::vector<std::string> names{"MIN",   "VALg",     "VALn",     "UGALg",
                                               "UGALn", "PAR",      "FlowUGAL", "AppAware",
                                               "Q-adp"};
  return names;
}

}  // namespace dfly::routing
