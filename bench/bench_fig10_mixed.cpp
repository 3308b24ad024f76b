// Figure 10 (a)-(f) + Table II: mixed-workload interference. Six
// applications share the full 1,056-node system; each panel compares an
// application's communication time when running alone (same placement) vs
// inside the mix, across the four routings.
//
// The whole figure is one declarative ExperimentPlan — a routings axis in
// mixed mode (the Table II mix plus per-app solo baselines) — expanded and
// executed by the unified campaign core (core/plan.hpp), which flattens
// (routing, cell) into one worker pool (honours --jobs / DFSIM_JOBS).

#include "bench_common.hpp"
#include "core/mixed.hpp"
#include "core/plan.hpp"

int main(int argc, char** argv) {
  using namespace dfly;
  const bench::Options options = bench::Options::parse(argc, argv, 64);
  const auto routings = options.routings();

  ExperimentPlan plan;
  plan.name = "fig10_mixed";
  plan.base = options.config(routings.front());
  plan.mode = PlanMode::kMixed;
  plan.routings = routings;
  plan.mixed_solos = true;

  CollectSink sink;
  run_plan(plan, sink, bench::default_jobs());

  // Expansion per routing: the full mix first, then each solo baseline in
  // table2_mix order.
  const std::size_t stride = 1 + table2_mix().size();

  bench::print_header("Figure 10 / Table II — mixed workload comm time (ms): alone vs mixed");
  std::printf("Table II job sizes:");
  for (const auto& spec : table2_mix()) std::printf(" %s=%d", spec.app.c_str(), spec.nodes);
  std::printf("\n\n%-10s %-10s %12s %12s %12s %12s\n", "routing", "app", "alone", "sigma",
              "mixed", "sigma");
  bench::print_rule();

  for (std::size_t r = 0; r < routings.size(); ++r) {
    const Report& mixed = sink.reports()[r * stride];
    double interference_sum = 0;
    int interference_count = 0;
    for (std::size_t a = 0; a < table2_mix().size(); ++a) {
      const auto& spec = table2_mix()[a];
      const Report& solo = sink.reports()[r * stride + 1 + a];
      const AppReport& alone = solo.app(spec.app);
      const AppReport& in_mix = mixed.app(spec.app);
      std::printf("%-10s %-10s %12.3f %12.3f %12.3f %12.3f  (%+.1f%%)\n",
                  routings[r].c_str(), spec.app.c_str(), alone.comm_mean_ms, alone.comm_std_ms,
                  in_mix.comm_mean_ms, in_mix.comm_std_ms,
                  (in_mix.comm_mean_ms / alone.comm_mean_ms - 1.0) * 100.0);
      if (spec.app != "Stencil5D") {
        interference_sum += in_mix.comm_mean_ms / alone.comm_mean_ms - 1.0;
        ++interference_count;
      }
    }
    std::printf("%-10s mean interference over non-Stencil5D apps: %+.1f%%\n\n",
                routings[r].c_str(), interference_sum / interference_count * 100.0);
  }
  std::printf("Expected shape (paper): ~+96%% mean comm-time under adaptive routings for the\n"
              "small-burst apps, roughly halved by Q-adp; Stencil5D <2%%, LQCD moderate.\n");
  return 0;
}
