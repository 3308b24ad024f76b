#pragma once

#include <string>
#include <vector>

#include "core/study.hpp"

namespace dfly {

/// One entry of the paper's Table II mixed workload.
struct MixedJobSpec {
  std::string app;
  int nodes;
};

/// The paper's Table II mix: six applications filling all 1,056 nodes.
const std::vector<MixedJobSpec>& table2_mix();

/// Build a Study pre-loaded with the Table II mix (caller runs it).
/// App ids follow table2_mix() order.
void add_mixed_workload(Study& study);

/// Run the full mixed-workload experiment for one routing.
Report run_mixed(const StudyConfig& config);

/// Baseline for Fig 10's "none" bars: the same Table II allocation sequence
/// (so `solo_app` keeps the exact node mapping it has in the mix) but every
/// other job is replaced by an immediately-terminating placeholder, leaving
/// `solo_app` alone on the network.
Report run_mixed_solo(const StudyConfig& config, const std::string& solo_app);

}  // namespace dfly
