#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/study.hpp"
#include "stats/histogram.hpp"

/// Multi-seed experiment sweeps.
///
/// The paper reports run-to-run variation (Fig 4's whiskers are variation
/// across ranks; production studies like Chunduri et al. report variation
/// across runs). A SeedSweep repeats one experiment under different seeds —
/// different random placements and traffic randomness — and aggregates every
/// reported metric with mean / stddev / min / max / 95% CI, which the
/// ablation benches print alongside single-run numbers.
namespace dfly {

/// Summary of one scalar metric across sweep repetitions.
struct SweepStat {
  double mean{0};
  double stddev{0};
  double min{0};
  double max{0};
  /// Half-width of the normal-approximation 95% confidence interval.
  double ci95_half{0};
  int n{0};

  static SweepStat of(const Accumulator& acc);
};

/// Aggregated per-application metrics across repetitions.
struct AppSweep {
  std::string app;
  SweepStat comm_ms;
  SweepStat exec_ms;
  SweepStat lat_mean_us;
  SweepStat lat_p99_us;
  SweepStat nonminimal_fraction;
};

/// Aggregated whole-run metrics across repetitions.
struct SweepSummary {
  std::string routing;
  int runs{0};
  int completed_runs{0};
  std::vector<AppSweep> apps;
  SweepStat makespan_ms;
  SweepStat sys_lat_p99_us;
  SweepStat agg_throughput;
  SweepStat local_stall_ms;
  SweepStat global_stall_ms;
  SweepStat congestion_imbalance;

  const AppSweep& app(const std::string& name) const;
};

/// The seed list of a multi-seed sweep, and the aggregation of its Reports.
/// A sweep runs as a seeds-axis ExperimentPlan (core/plan.hpp); aggregate()
/// then summarises the reports in seed order, so the summary is
/// bit-identical for any worker count.
class SeedSweep {
 public:
  explicit SeedSweep(std::vector<std::uint64_t> seeds);
  /// Convenience: seeds base, base+1, ..., base+n-1.
  SeedSweep(std::uint64_t base_seed, int n);

  /// On a temporary the list is moved out by value, so
  /// `for (s : SeedSweep(base, n).seeds())` never iterates a destroyed vector.
  const std::vector<std::uint64_t>& seeds() const& { return seeds_; }
  std::vector<std::uint64_t> seeds() && { return std::move(seeds_); }

  /// Aggregate already-collected reports. Every report must carry the same
  /// apps, by name and in order (the first report defines the app set);
  /// throws std::invalid_argument otherwise.
  static SweepSummary aggregate(const std::vector<Report>& reports);

 private:
  std::vector<std::uint64_t> seeds_;
};

}  // namespace dfly
