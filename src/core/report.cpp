#include <cassert>
#include <stdexcept>

#include "core/study.hpp"
#include "stats/congestion.hpp"
#include "stats/io_module.hpp"
#include "workloads/intensity.hpp"

namespace dfly {

const AppReport& Report::app(const std::string& name) const {
  for (const auto& a : apps) {
    if (a.app == name) return a;
  }
  throw std::out_of_range("Report: no app named " + name);
}

Report Study::report() const {
  Report out;
  out.routing = config_.routing;
  out.events_executed = engine_.executed();

  bool all_done = true;
  SimTime makespan = 0;
  for (const auto& job : jobs_) {
    all_done = all_done && job->done();
    if (job->finish_time() > makespan) makespan = job->finish_time();
  }
  out.completed = all_done;
  out.makespan = makespan;

  const PacketLog& log = network_->packet_log();
  for (const auto& job : jobs_) {
    AppReport app;
    app.app = job->name();
    app.app_id = job->app_id();
    app.nodes = job->size();
    const Accumulator comm = job->comm_time_stats();
    app.comm_mean_ms = comm.mean();
    app.comm_std_ms = comm.stddev();
    app.comm_max_ms = comm.max();
    const workloads::IntensityMetrics intensity = workloads::measure_intensity(*job);
    app.exec_ms = intensity.execution_ms;
    app.total_msg_mb = intensity.total_msg_mb;
    app.injection_rate_gbs = intensity.injection_rate_gbs;
    app.peak_ingress_bytes = intensity.peak_ingress_bytes;

    const Histogram& lat = log.latency(job->app_id());
    app.lat_mean_us = lat.mean() / static_cast<double>(kUs);
    app.lat_p50_us = static_cast<double>(lat.median()) / static_cast<double>(kUs);
    app.lat_p95_us = static_cast<double>(lat.p95()) / static_cast<double>(kUs);
    app.lat_p99_us = static_cast<double>(lat.p99()) / static_cast<double>(kUs);
    app.packets = log.delivered_packets(job->app_id());
    app.nonminimal_fraction =
        app.packets == 0 ? 0.0
                         : static_cast<double>(log.nonminimal_packets(job->app_id())) /
                               static_cast<double>(app.packets);
    app.mean_hops = log.mean_hops(job->app_id());
    out.apps.push_back(app);
  }

  static constexpr double kSysQuantiles[] = {0.50, 0.95, 0.99};
  const std::vector<std::int64_t> sys_q = log.system_latency_percentiles(kSysQuantiles);
  out.sys_lat_mean_us = log.system_latency_mean() / static_cast<double>(kUs);
  out.sys_lat_p50_us = static_cast<double>(sys_q[0]) / static_cast<double>(kUs);
  out.sys_lat_p95_us = static_cast<double>(sys_q[1]) / static_cast<double>(kUs);
  out.sys_lat_p99_us = static_cast<double>(sys_q[2]) / static_cast<double>(kUs);
  if (makespan > 0) {
    out.agg_throughput_gb_per_ms =
        log.system_delivered().total() / 1.0e9 / to_ms(makespan);
  }

  const GroupStall stall = group_stall(blueprint_->topo(), network_->link_stats());
  out.local_stall_ms = stall.mean_local_ms;
  out.global_stall_ms = stall.mean_global_ms;

  const CongestionMatrix congestion =
      congestion_matrix(blueprint_->topo(), network_->link_stats(), makespan, config_.net.link_gbps);
  out.congestion_mean = congestion.mean();
  out.congestion_max = congestion.max();
  out.congestion_imbalance = congestion.imbalance_global();

  // Jain's fairness index over per-app achieved injection rates (GB/s).
  // J = (sum x)^2 / (n * sum x^2); x_i > 0 only for apps that moved bytes.
  if (out.apps.size() >= 2) {
    double sum = 0;
    double sum_sq = 0;
    int n = 0;
    for (const auto& app : out.apps) {
      const double x = app.injection_rate_gbs;
      if (x <= 0) continue;
      sum += x;
      sum_sq += x * x;
      ++n;
    }
    if (n >= 2 && sum_sq > 0) {
      out.jain_fairness = sum * sum / (static_cast<double>(n) * sum_sq);
    }
  }
  return out;
}

void Study::write_csv(const std::string& prefix) const {
  if (!ran_) throw std::logic_error("Study: write_csv before run()");
  const Report summary = report();

  {
    CsvWriter apps(prefix + "_apps.csv",
                   {"app", "nodes", "comm_mean_ms", "comm_std_ms", "exec_ms", "total_mb",
                    "injection_gbs", "peak_ingress_bytes", "lat_mean_us", "lat_p99_us",
                    "packets", "nonmin_frac"});
    for (const auto& app : summary.apps) {
      apps.row(std::vector<std::string>{
          app.app, std::to_string(app.nodes), CsvWriter::num(app.comm_mean_ms),
          CsvWriter::num(app.comm_std_ms), CsvWriter::num(app.exec_ms),
          CsvWriter::num(app.total_msg_mb), CsvWriter::num(app.injection_rate_gbs),
          CsvWriter::num(app.peak_ingress_bytes), CsvWriter::num(app.lat_mean_us),
          CsvWriter::num(app.lat_p99_us), std::to_string(app.packets),
          CsvWriter::num(app.nonminimal_fraction)});
    }
  }
  {
    const CongestionMatrix matrix = congestion_matrix(blueprint_->topo(), network_->link_stats(),
                                                      summary.makespan, config_.net.link_gbps);
    CsvWriter congestion(prefix + "_congestion.csv", {"src_group", "dst_group", "index"});
    for (int s = 0; s < matrix.num_groups(); ++s) {
      for (int d = 0; d < matrix.num_groups(); ++d) {
        congestion.row(std::vector<double>{static_cast<double>(s), static_cast<double>(d),
                                           matrix.cell(s, d)});
      }
    }
  }
  {
    const GroupStall stall = group_stall(blueprint_->topo(), network_->link_stats());
    CsvWriter stalls(prefix + "_stall.csv", {"group", "local_stall_ms", "global_out_stall_ms"});
    for (std::size_t g = 0; g < stall.local_ms.size(); ++g) {
      double global_out = 0;
      for (const double v : stall.global_ms[g]) global_out += v;
      stalls.row(std::vector<double>{static_cast<double>(g), stall.local_ms[g], global_out});
    }
  }
}

}  // namespace dfly
