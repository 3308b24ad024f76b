#include "core/mixed.hpp"

#include <memory>

#include "workloads/factory.hpp"

namespace dfly {

const std::vector<MixedJobSpec>& table2_mix() {
  // Table II: FFT3D 140, CosmoFlow 138, LU 140, UR 139, LQCD 256,
  // Stencil5D 243 — 1,056 nodes in total.
  static const std::vector<MixedJobSpec> mix{
      {"FFT3D", 140}, {"CosmoFlow", 138}, {"LU", 140},
      {"UR", 139},    {"LQCD", 256},      {"Stencil5D", 243},
  };
  return mix;
}

void add_mixed_workload(Study& study) {
  for (const auto& spec : table2_mix()) {
    study.add_app(spec.app, spec.nodes);
  }
}

Report run_mixed(const StudyConfig& config) {
  Study study(config);
  add_mixed_workload(study);
  return study.run();
}

namespace {
/// A job that finishes immediately: occupies its allocation, sends nothing.
class NullMotif final : public mpi::Motif {
 public:
  std::string name() const override { return "idle"; }
  mpi::Task run(mpi::RankCtx&) const override { co_return; }
};
}  // namespace

Report run_mixed_solo(const StudyConfig& config, const std::string& solo_app) {
  Study study(config);
  for (const auto& spec : table2_mix()) {
    if (spec.app == solo_app) {
      study.add_app(spec.app, spec.nodes);
    } else {
      // Same allocation call sequence as run_mixed: reserves the same node
      // count from the same placer stream, so placements line up.
      const workloads::AppInstance app = workloads::make_app(spec.app, spec.nodes, config.scale);
      study.add_motif(std::make_unique<NullMotif>(), app.nodes, spec.app + "-idle");
    }
  }
  return study.run();
}

}  // namespace dfly
