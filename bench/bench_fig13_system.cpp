// Figure 13: system-wide packet latency distribution (mean/p95/p99 per
// routing) and the aggregated network throughput series under the mixed
// workload (PAR vs Q-adp). Per-routing runs execute concurrently.

#include "bench_common.hpp"
#include "core/mixed.hpp"
#include "viz/ascii.hpp"
#include "viz/charts.hpp"

int main(int argc, char** argv) {
  using namespace dfly;
  const bench::Options options = bench::Options::parse(argc, argv, 32);
  const auto routings = options.routings();

  struct Result {
    Report report;
    std::vector<double> series_gb_per_ms;
    double bucket_ms{0};
  };
  std::vector<std::function<Result()>> tasks;
  for (const std::string& routing : routings) {
    const StudyConfig config = options.config(routing);
    tasks.push_back([config] {
      Study study(config);
      add_mixed_workload(study);
      Result out;
      out.report = study.run();
      const TimeSeries series = study.network().packet_log().system_delivered();
      out.bucket_ms = to_ms(series.bucket_width());
      for (std::size_t b = 0; b < series.num_buckets(); ++b) {
        out.series_gb_per_ms.push_back(series.bucket(b) / 1e9 / out.bucket_ms);
      }
      return out;
    });
  }
  const auto results = bench::parallel_map(tasks);

  bench::print_header("Figure 13 — system-wide latency and aggregate throughput (mixed)");
  std::printf("%-8s %12s %12s %12s %12s %16s\n", "routing", "mean us", "p50 us", "p95 us",
              "p99 us", "thr GB/ms");
  bench::print_rule();
  for (std::size_t r = 0; r < routings.size(); ++r) {
    const Report& report = results[r].report;
    std::printf("%-8s %12.2f %12.2f %12.2f %12.2f %16.3f\n", routings[r].c_str(),
                report.sys_lat_mean_us, report.sys_lat_p50_us, report.sys_lat_p95_us,
                report.sys_lat_p99_us, report.agg_throughput_gb_per_ms);
  }
  viz::LineChart chart("Fig 13(b) aggregate network throughput (mixed workload)",
                       "time (ms)", "GB/ms");
  for (std::size_t r = 0; r < routings.size(); ++r) {
    if (routings[r] != "PAR" && routings[r] != "Q-adp") continue;
    std::printf("series aggregate_%s buckets_ms %.3f :", routings[r].c_str(),
                results[r].bucket_ms);
    for (const double v : results[r].series_gb_per_ms) std::printf(" %.3f", v);
    std::printf("\n");
    std::printf("spark aggregate_%s: %s\n", routings[r].c_str(),
                viz::sparkline(results[r].series_gb_per_ms).c_str());
    std::vector<double> xs;
    for (std::size_t b = 0; b < results[r].series_gb_per_ms.size(); ++b) {
      xs.push_back(results[r].bucket_ms * static_cast<double>(b));
    }
    chart.add_series(routings[r], xs, results[r].series_gb_per_ms);
  }
  chart.save("fig13_throughput.svg");
  std::printf("Wrote fig13_throughput.svg\n");
  std::printf("\nExpected shape (paper): Q-adp's mean and p99 latency are >60%% below PAR's\n"
              "and its average aggregate throughput ~35%% higher.\n");
  return 0;
}
