#include "core/pairwise.hpp"

namespace dfly {

PairwiseResult run_pairwise(const StudyConfig& config, const std::string& target,
                            const std::string& background) {
  Study study(config);
  const int half = study.topo().num_nodes() / 2;
  const int target_id = study.add_app(target, half);
  int background_id = -1;
  if (background != "None" && !background.empty()) {
    background_id = study.add_app(background, half);
  }
  PairwiseResult result;
  result.full = study.run();
  result.routing = config.routing;
  result.target = target;
  result.background = background.empty() ? "None" : background;
  result.target_report = result.full.apps[static_cast<std::size_t>(target_id)];
  if (background_id >= 0) {
    result.background_report = result.full.apps[static_cast<std::size_t>(background_id)];
  }
  return result;
}

const std::vector<std::string>& fig4_targets() {
  static const std::vector<std::string> targets{"FFT3D", "LU",        "LQCD",
                                                "CosmoFlow", "Stencil5D", "LULESH"};
  return targets;
}

const std::vector<std::string>& fig4_backgrounds() {
  static const std::vector<std::string> backgrounds{"None", "UR",        "LU", "FFT3D",
                                                    "CosmoFlow", "DL", "Halo3D"};
  return backgrounds;
}

}  // namespace dfly
