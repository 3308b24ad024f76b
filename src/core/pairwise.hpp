#pragma once

#include <string>
#include <vector>

#include "core/study.hpp"

namespace dfly {

/// Pairwise workload experiment (paper §V): a *target* application co-runs
/// with one *background* application, each on half the system, random
/// placement. The target is always placed first with the same seed, so its
/// process-to-node mapping is identical across different backgrounds — a
/// change in its communication time is therefore pure interference.
struct PairwiseResult {
  std::string routing;
  std::string target;
  std::string background;  ///< "None" for the standalone baseline
  AppReport target_report;
  AppReport background_report;  ///< empty app name when standalone
  Report full;
};

/// Run one pairwise configuration. `background` may be "None".
PairwiseResult run_pairwise(const StudyConfig& config, const std::string& target,
                            const std::string& background);

/// The paper's Fig 4 matrix: targets x backgrounds x routings.
const std::vector<std::string>& fig4_targets();
const std::vector<std::string>& fig4_backgrounds();  ///< includes "None"

}  // namespace dfly
