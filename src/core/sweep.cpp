#include "core/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dfly {

SweepStat SweepStat::of(const Accumulator& acc) {
  SweepStat s;
  s.n = static_cast<int>(acc.count());
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  if (s.n > 1) {
    s.ci95_half = 1.96 * s.stddev / std::sqrt(static_cast<double>(s.n));
  }
  return s;
}

const AppSweep& SweepSummary::app(const std::string& name) const {
  for (const AppSweep& entry : apps) {
    if (entry.app == name) return entry;
  }
  throw std::out_of_range("SweepSummary: no app named " + name);
}

SeedSweep::SeedSweep(std::vector<std::uint64_t> seeds) : seeds_(std::move(seeds)) {
  if (seeds_.empty()) throw std::invalid_argument("SeedSweep: need at least one seed");
}

SeedSweep::SeedSweep(std::uint64_t base_seed, int n) {
  if (n < 1) throw std::invalid_argument("SeedSweep: need at least one repetition");
  seeds_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) seeds_.push_back(base_seed + static_cast<std::uint64_t>(i));
}

SweepSummary SeedSweep::aggregate(const std::vector<Report>& reports) {
  if (reports.empty()) throw std::invalid_argument("SeedSweep: no reports to aggregate");
  SweepSummary summary;
  summary.routing = reports.front().routing;
  summary.runs = static_cast<int>(reports.size());

  const std::vector<AppReport>& first_apps = reports.front().apps;
  const std::size_t num_apps = first_apps.size();
  for (const Report& report : reports) {
    const bool same_apps = std::equal(
        report.apps.begin(), report.apps.end(), first_apps.begin(), first_apps.end(),
        [](const AppReport& a, const AppReport& b) { return a.app == b.app; });
    if (!same_apps) throw std::invalid_argument("SeedSweep: app sets differ across repetitions");
    if (report.completed) ++summary.completed_runs;
  }

  struct AppAcc {
    Accumulator comm, exec, lat_mean, lat_p99, nonmin;
  };
  std::vector<AppAcc> app_accs(num_apps);
  Accumulator makespan, sys_p99, throughput, local_stall, global_stall, imbalance;

  for (const Report& report : reports) {
    makespan.add(to_ms(report.makespan));
    sys_p99.add(report.sys_lat_p99_us);
    throughput.add(report.agg_throughput_gb_per_ms);
    local_stall.add(report.local_stall_ms);
    global_stall.add(report.global_stall_ms);
    imbalance.add(report.congestion_imbalance);
    for (std::size_t a = 0; a < num_apps; ++a) {
      const AppReport& app = report.apps[a];
      app_accs[a].comm.add(app.comm_mean_ms);
      app_accs[a].exec.add(app.exec_ms);
      app_accs[a].lat_mean.add(app.lat_mean_us);
      app_accs[a].lat_p99.add(app.lat_p99_us);
      app_accs[a].nonmin.add(app.nonminimal_fraction);
    }
  }

  summary.makespan_ms = SweepStat::of(makespan);
  summary.sys_lat_p99_us = SweepStat::of(sys_p99);
  summary.agg_throughput = SweepStat::of(throughput);
  summary.local_stall_ms = SweepStat::of(local_stall);
  summary.global_stall_ms = SweepStat::of(global_stall);
  summary.congestion_imbalance = SweepStat::of(imbalance);
  summary.apps.reserve(num_apps);
  for (std::size_t a = 0; a < num_apps; ++a) {
    AppSweep app;
    app.app = reports.front().apps[a].app;
    app.comm_ms = SweepStat::of(app_accs[a].comm);
    app.exec_ms = SweepStat::of(app_accs[a].exec);
    app.lat_mean_us = SweepStat::of(app_accs[a].lat_mean);
    app.lat_p99_us = SweepStat::of(app_accs[a].lat_p99);
    app.nonminimal_fraction = SweepStat::of(app_accs[a].nonmin);
    summary.apps.push_back(std::move(app));
  }
  return summary;
}

}  // namespace dfly
