#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "net/link.hpp"
#include "stats/congestion.hpp"
#include "stats/histogram.hpp"
#include "stats/io_module.hpp"
#include "stats/link_stats.hpp"
#include "stats/packet_log.hpp"
#include "stats/timeseries.hpp"

namespace dfly {
namespace {

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.99), 0);
}

TEST(Histogram, ExactOrderStatistics) {
  Histogram h;
  for (int i = 100; i >= 1; --i) h.add(i);  // 1..100 reversed
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.median(), 50);
  EXPECT_EQ(h.p95(), 95);
  EXPECT_EQ(h.p99(), 99);
}

TEST(Histogram, PercentileBoundaries) {
  Histogram h;
  h.add(7);
  EXPECT_EQ(h.percentile(0.0), 7);
  EXPECT_EQ(h.percentile(1.0), 7);
  EXPECT_EQ(h.median(), 7);
}

TEST(Histogram, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.add(42);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(Accumulator, TracksMoments) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.0, 1e-9);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
}

TEST(TimeSeries, BucketsAccumulate) {
  TimeSeries ts(10);
  ts.add(0, 1.0);
  ts.add(9, 2.0);
  ts.add(10, 4.0);
  ts.add(25, 8.0);
  EXPECT_EQ(ts.num_buckets(), 3u);
  EXPECT_DOUBLE_EQ(ts.bucket(0), 3.0);
  EXPECT_DOUBLE_EQ(ts.bucket(1), 4.0);
  EXPECT_DOUBLE_EQ(ts.bucket(2), 8.0);
  EXPECT_DOUBLE_EQ(ts.total(), 15.0);
}

TEST(TimeSeries, PeakFindsMaxBucket) {
  TimeSeries ts(10);
  ts.add(5, 1.0);
  ts.add(15, 9.0);
  ts.add(25, 3.0);
  const auto peak = ts.peak();
  EXPECT_DOUBLE_EQ(peak.value, 9.0);
  EXPECT_EQ(peak.when, 10);
}

TEST(TimeSeries, MeanRateBetween) {
  TimeSeries ts(10);
  ts.add(0, 10.0);
  ts.add(10, 20.0);
  ts.add(20, 30.0);
  EXPECT_DOUBLE_EQ(ts.mean_rate_between(0, 20), 15.0);
  EXPECT_DOUBLE_EQ(ts.mean_rate_between(10, 30), 25.0);
  EXPECT_DOUBLE_EQ(ts.mean_rate_between(5, 5), 0.0);
}

TEST(PacketLog, RecordsPerAppAndSystem) {
  PacketLog log(2, /*keep_records=*/true, 10);
  PacketRecord r;
  r.app_id = 0;
  r.wire_time = 0;
  r.eject_time = 100;
  r.bytes = 512;
  log.record(r);
  r.app_id = 1;
  r.eject_time = 300;
  log.record(r);
  EXPECT_EQ(log.delivered_packets(0), 1u);
  EXPECT_EQ(log.delivered_packets(1), 1u);
  EXPECT_EQ(log.latency(0).median(), 100);
  EXPECT_EQ(log.latency(1).median(), 300);
  EXPECT_DOUBLE_EQ(log.system_latency_mean(), 200.0);
  EXPECT_EQ(log.records().size(), 2u);
  EXPECT_DOUBLE_EQ(log.system_delivered().total(), 1024.0);
}

// The system-wide statistics are derived from the per-app stores. The oracle
// is one Histogram and one TimeSeries fed every sample: the derived values
// must equal it exactly, also after a reset to fewer apps.
class SystemStats {
 public:
  explicit SystemStats(int num_apps, SimTime bucket_width)
      : log_(num_apps, false, bucket_width), series_(bucket_width) {}

  void record(int app, SimTime wire, SimTime eject, std::int32_t bytes) {
    PacketRecord r;
    r.app_id = static_cast<std::int16_t>(app);
    r.wire_time = wire;
    r.eject_time = eject;
    r.bytes = bytes;
    log_.record(r);
    latency_.add(eject - wire);
    series_.add(eject, static_cast<double>(bytes));
  }

  void reset(int num_apps, SimTime bucket_width) {
    log_.reset(num_apps, false, bucket_width);
    latency_.clear();
    series_.reset(bucket_width);
  }

  void expect_matches_oracle() const {
    static constexpr double kQs[] = {0.0, 1e-9, 0.5, 0.95, 0.99, 1.0};
    std::size_t count = 0;  // each packet is stored once, in its app's histogram
    for (int app = 0; app < log_.num_apps(); ++app) count += log_.latency(app).count();
    EXPECT_EQ(count, latency_.count());
    EXPECT_EQ(log_.system_latency_mean(), latency_.mean());
    const std::vector<std::int64_t> got = log_.system_latency_percentiles(kQs);
    ASSERT_EQ(got.size(), std::size(kQs));
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], latency_.percentile(kQs[i])) << "q=" << kQs[i];
    }
    const TimeSeries sys = log_.system_delivered();
    EXPECT_EQ(sys.bucket_width(), series_.bucket_width());
    ASSERT_EQ(sys.num_buckets(), series_.num_buckets());
    for (std::size_t b = 0; b < sys.num_buckets(); ++b) {
      EXPECT_EQ(sys.bucket(b), series_.bucket(b)) << "bucket " << b;
    }
    EXPECT_EQ(sys.total(), series_.total());
  }

  const PacketLog& log() const { return log_; }

 private:
  PacketLog log_;
  Histogram latency_;
  TimeSeries series_;
};

TEST(PacketLog, SystemStatsDeriveFromPerAppStores) {
  // Three apps; app 2 receives nothing. Latencies repeat within and across
  // apps, and the apps' ranges interleave.
  SystemStats stats(3, 10);
  stats.expect_matches_oracle();  // empty: zeros, no buckets
  for (int i = 0; i < 40; ++i) {
    const SimTime eject = 5 + 7 * i;
    stats.record(0, eject - (100 + (i % 5) * 10), eject, 64 + i);
    stats.record(1, eject - (120 + (i % 3) * 10), eject + 3, 512);
  }
  stats.record(1, 0, 100, 1);  // ties app 0's smallest latency
  EXPECT_EQ(stats.log().delivered_packets(2), 0u);
  stats.expect_matches_oracle();

  // App 2 starts receiving, and app 0's series grows past the others.
  for (int i = 0; i < 25; ++i) {
    stats.record(2, 0, 90 + (i % 4) * 30, 128);
    stats.record(0, 400, 400 + 110 + i, 32);
  }
  stats.expect_matches_oracle();

  // A reset to fewer apps and a new bucket width forgets every sample.
  stats.reset(2, 25);
  stats.expect_matches_oracle();
  for (int i = 0; i < 30; ++i) stats.record(i % 2, 0, 50 + (i * 37) % 200, 1000 + i);
  stats.expect_matches_oracle();
}

TEST(PacketLog, LatencyBetweenFiltersWindow) {
  PacketLog log(1, true, 10);
  for (SimTime t : {100, 200, 300, 400}) {
    PacketRecord r;
    r.app_id = 0;
    r.wire_time = t - 50;
    r.eject_time = t;
    r.bytes = 1;
    log.record(r);
  }
  const Histogram window = log.latency_between(0, 150, 350);
  EXPECT_EQ(window.count(), 2u);
}

TEST(LinkStats, TrafficAndStallAccounting) {
  LinkStats stats(3, 2);
  stats.set_link_info(0, LinkClass::kLocal, 0, 1);
  stats.set_link_info(1, LinkClass::kGlobal, 0, 8);
  stats.set_link_info(2, LinkClass::kTerminal, 0, 0);
  stats.add_traffic(0, 0, 512);
  stats.add_traffic(0, 1, 256);
  stats.add_stall(1, 1000);
  stats.add_stall(1, 500);
  EXPECT_EQ(stats.bytes(0), 768);
  EXPECT_EQ(stats.bytes_by_app(0, 0), 512);
  EXPECT_EQ(stats.bytes_by_app(0, 1), 256);
  EXPECT_EQ(stats.packets(0), 2u);
  EXPECT_EQ(stats.stall(1), 1500);
  EXPECT_EQ(stats.total_stall(LinkClass::kGlobal), 1500);
  EXPECT_EQ(stats.total_stall(LinkClass::kLocal), 0);
  EXPECT_EQ(stats.total_bytes(LinkClass::kLocal), 768);
}

TEST(Congestion, UniformTrafficYieldsFlatMatrix) {
  const Dragonfly topo(DragonflyParams::tiny());
  const LinkMap links(topo);
  LinkStats stats(links.total_links(), 1);
  // Mark link info like Network does and put equal bytes on all non-terminal.
  for (int r = 0; r < topo.num_routers(); ++r) {
    for (int port = 0; port < topo.radix(); ++port) {
      const int link = links.router_out(r, port);
      if (topo.is_terminal_port(port)) {
        stats.set_link_info(link, LinkClass::kTerminal, r, r);
      } else {
        const auto wire = topo.wire(r, port);
        stats.set_link_info(link, LinkMap::port_class(topo, port), r, wire.peer_router);
        stats.add_traffic(link, 0, 1000);
      }
    }
  }
  const CongestionMatrix m = congestion_matrix(topo, stats, 1000 * kNs, 200.0);
  EXPECT_GT(m.mean(), 0.0);
  EXPECT_NEAR(m.imbalance_global(), 0.0, 1e-9);
  EXPECT_NEAR(m.max(), m.mean(), 1e-9);
}

TEST(Congestion, GroupStallSplitsLocalAndGlobal) {
  const Dragonfly topo(DragonflyParams::tiny());
  const LinkMap links(topo);
  LinkStats stats(links.total_links(), 1);
  for (int r = 0; r < topo.num_routers(); ++r) {
    for (int port = 0; port < topo.radix(); ++port) {
      const int link = links.router_out(r, port);
      if (topo.is_terminal_port(port)) {
        stats.set_link_info(link, LinkClass::kTerminal, r, r);
        continue;
      }
      const auto wire = topo.wire(r, port);
      stats.set_link_info(link, LinkMap::port_class(topo, port), r, wire.peer_router);
    }
  }
  stats.add_stall(links.router_out(0, topo.first_local_port()), kMs);
  stats.add_stall(links.router_out(0, topo.first_global_port()), 2 * kMs);
  const GroupStall gs = group_stall(topo, stats);
  EXPECT_DOUBLE_EQ(gs.local_ms[0], 1.0);
  double global_total = 0;
  for (const auto& row : gs.global_ms) {
    for (const double v : row) global_total += v;
  }
  EXPECT_DOUBLE_EQ(global_total, 2.0);
}

TEST(CsvWriter, CoalescesAndFlushes) {
  const std::string path = "/tmp/dfly_test_csv.csv";
  {
    CsvWriter csv(path, {"a", "b"}, /*coalesce_rows=*/100);
    csv.row(std::vector<double>{1.0, 2.0});
    csv.row(std::vector<double>{3.5, 4.25});
  }  // destructor flushes
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a,b");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1,2");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "3.5,4.25");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsArityMismatch) {
  CsvWriter csv("/tmp/dfly_test_csv2.csv", {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<std::string>{"only-one"}), std::invalid_argument);
  std::remove("/tmp/dfly_test_csv2.csv");
}

}  // namespace
}  // namespace dfly
