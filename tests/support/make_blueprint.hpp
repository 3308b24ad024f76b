#pragma once

#include <memory>

#include "core/blueprint.hpp"
#include "core/study.hpp"

namespace dfly::testsupport {

/// Build a private SystemBlueprint for direct Network/Routing fixtures that
/// bypass Study; fixtures instantiate their routing policy themselves.
inline std::shared_ptr<const SystemBlueprint> make_blueprint(
    DragonflyParams params = DragonflyParams::tiny(), NetConfig net = {}) {
  StudyConfig config;
  config.topo = params;
  config.net = net;
  return SystemBlueprint::build(config);
}

}  // namespace dfly::testsupport
