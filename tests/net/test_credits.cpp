#include <gtest/gtest.h>

#include "core/study.hpp"
#include "net/network.hpp"
#include "routing/factory.hpp"
#include "workloads/motifs.hpp"
#include "../support/make_blueprint.hpp"

namespace dfly {
namespace {

class NullSink final : public MessageEvents {
 public:
  void message_sent(std::uint64_t) override {}
  void message_delivered(std::uint64_t) override { ++delivered; }
  int delivered{0};
};

struct Fixture {
  explicit Fixture(NetConfig net_cfg = {})
      : bp(testsupport::make_blueprint(DragonflyParams::tiny(), net_cfg)), topo(bp->topo()) {
    routing::RoutingContext context{&engine, &topo, &bp->net(), 5};
    routing = routing::make_routing("MIN", context);
    net = std::make_unique<Network>(engine, *bp, *routing, 1, 5);
    net->set_sink(sink);
  }
  Engine engine;
  std::shared_ptr<const SystemBlueprint> bp;
  const Dragonfly& topo;
  std::unique_ptr<RoutingAlgorithm> routing;
  std::unique_ptr<Network> net;
  NullSink sink;
};

TEST(Credits, TinyBuffersStillDeliverEverything) {
  // Shrink buffers to 2 packets: the credit protocol must throttle, not
  // drop or deadlock.
  NetConfig cfg;
  cfg.buffer_packets = 2;
  Fixture f(cfg);
  for (int n = 1; n < 30; ++n) f.net->send_message(n, 0, 20000, 0);
  f.engine.run();
  EXPECT_EQ(f.sink.delivered, 29);
  EXPECT_EQ(f.net->pool().in_use(), 0u);
}

TEST(Credits, SingleSlotBuffersAreTheDegenerateCase) {
  NetConfig cfg;
  cfg.buffer_packets = 1;
  Fixture f(cfg);
  for (int n = 1; n < 10; ++n) f.net->send_message(n, 0, 5000, 0);
  f.engine.run();
  EXPECT_EQ(f.sink.delivered, 9);
}

TEST(Credits, BackpressureSlowsTheIncast) {
  // With deep buffers vs shallow buffers the same incast must deliver the
  // same bytes; shallow buffers take at least as long.
  SimTime deep_time = 0, shallow_time = 0;
  {
    NetConfig cfg;
    cfg.buffer_packets = 30;
    Fixture f(cfg);
    for (int n = 1; n < 36; ++n) f.net->send_message(n, 0, 50000, 0);
    f.engine.run();
    deep_time = f.engine.now();
  }
  {
    NetConfig cfg;
    cfg.buffer_packets = 2;
    Fixture f(cfg);
    for (int n = 1; n < 36; ++n) f.net->send_message(n, 0, 50000, 0);
    f.engine.run();
    shallow_time = f.engine.now();
  }
  EXPECT_GE(shallow_time, deep_time);
}

TEST(Credits, StallTimeAppearsUnderSustainedIncast) {
  Fixture f;
  // Long-lived incast onto one node: upstream ports must starve for
  // credits at some point and record stall time.
  for (int n = 1; n < f.topo.num_nodes(); ++n) f.net->send_message(n, 0, 100000, 0);
  f.engine.run();
  SimTime total_stall = 0;
  const LinkStats& stats = f.net->link_stats();
  for (int link = 0; link < stats.num_links(); ++link) total_stall += stats.stall(link);
  EXPECT_GT(total_stall, 0);
}

TEST(Credits, NoStallOnUncontendedTraffic) {
  Fixture f;
  f.net->send_message(0, f.topo.num_nodes() - 1, 512, 0);
  f.engine.run();
  const LinkStats& stats = f.net->link_stats();
  for (int link = 0; link < stats.num_links(); ++link) {
    EXPECT_EQ(stats.stall(link), 0) << "link " << link;
  }
}

TEST(Credits, PoolReusesSlotsAcrossWaves) {
  Fixture f;
  for (int wave = 0; wave < 5; ++wave) {
    for (int n = 1; n < 10; ++n) f.net->send_message(n, 0, 2048, 0);
    f.engine.run();
  }
  // 5 waves of the same traffic reuse pooled packets rather than growing.
  EXPECT_LE(f.net->pool().capacity(), 9u * 4u * 2u);
  EXPECT_EQ(f.net->pool().in_use(), 0u);
}

TEST(Credits, RouterLatencyShiftsDeliveryTime) {
  SimTime base_time = 0;
  {
    NetConfig cfg;
    Fixture f(cfg);
    f.net->send_message(0, f.topo.num_nodes() - 1, 512, 0);
    f.engine.run();
    base_time = f.engine.now();
  }
  {
    NetConfig cfg;
    cfg.router_latency = 500 * kNs;  // 5x default
    Fixture f(cfg);
    f.net->send_message(0, f.topo.num_nodes() - 1, 512, 0);
    f.engine.run();
    EXPECT_GT(f.engine.now(), base_time);
  }
}

TEST(Credits, LinkBandwidthScalesDeliveryTime) {
  // Compare two bandwidths low enough that the 30-packet buffers cover the
  // credit bandwidth-delay product (at very high rates the credit loop
  // rightfully becomes the cap — see the next test).
  SimTime fast = 0, slow = 0;
  {
    NetConfig cfg;
    cfg.link_gbps = 100.0;
    Fixture f(cfg);
    f.net->send_message(0, 40, 1 << 20, 0);
    f.engine.run();
    fast = f.engine.now();
  }
  {
    NetConfig cfg;
    cfg.link_gbps = 25.0;
    Fixture f(cfg);
    f.net->send_message(0, 40, 1 << 20, 0);
    f.engine.run();
    slow = f.engine.now();
  }
  // 4x the bandwidth: ~4x faster for a bandwidth-bound stream.
  EXPECT_GT(static_cast<double>(slow) / static_cast<double>(fast), 3.0);
}

TEST(Credits, CreditLoopCapsSingleFlowAtExtremeBandwidth) {
  // At 1.6 Tb/s a single flow's credit round trip exceeds what 30 buffer
  // slots can cover, so doubling bandwidth again must NOT double speed.
  SimTime t1 = 0, t2 = 0;
  {
    NetConfig cfg;
    cfg.link_gbps = 1600.0;
    Fixture f(cfg);
    f.net->send_message(0, 40, 1 << 20, 0);
    f.engine.run();
    t1 = f.engine.now();
  }
  {
    NetConfig cfg;
    cfg.link_gbps = 3200.0;
    Fixture f(cfg);
    f.net->send_message(0, 40, 1 << 20, 0);
    f.engine.run();
    t2 = f.engine.now();
  }
  EXPECT_LT(static_cast<double>(t1) / static_cast<double>(t2), 1.5);
}

struct QuiescenceCase {
  const char* name;
  const char* routing;
  int buffer_packets;
  int qos_classes;
};

// Names the case in test listings instead of dumping its bytes, which hold
// string-literal addresses and so differ from build to build.
void PrintTo(const QuiescenceCase& c, std::ostream* os) { *os << c.name; }

class CreditQuiescence : public ::testing::TestWithParam<QuiescenceCase> {};

TEST_P(CreditQuiescence, EveryRouterIsBackToItsInitialState) {
  // A congested cell run to quiescence must leave every router as it found
  // it: each (port, VC) credit returned, no packet queued or claimed, no
  // packet buffered and no request parked on a stall list.
  const QuiescenceCase& c = GetParam();
  StudyConfig config;
  config.topo = DragonflyParams::tiny();
  config.routing = c.routing;
  config.seed = 11;
  config.net.buffer_packets = c.buffer_packets;
  config.net.qos.num_classes = c.qos_classes;
  config.net.qos.weights = {3, 1, 1};
  Study study(std::move(config));
  workloads::UniformRandomParams p;
  p.msg_bytes = 4096;
  p.iterations = 60;
  p.interval = 0;
  p.window = 8;
  for (int app = 0; app < 3; ++app) {
    const int id = study.add_motif(std::make_unique<workloads::UniformRandomMotif>(p), 24,
                                   "UR" + std::to_string(app));
    study.set_traffic_class(id, app % c.qos_classes);
  }
  const Report report = study.run();
  ASSERT_TRUE(report.completed);
  ASSERT_TRUE(study.engine().empty());

  Network& net = study.network();
  const LinkStats& stats = net.link_stats();
  SimTime stall = 0;
  for (int link = 0; link < stats.num_links(); ++link) stall += stats.stall(link);
  EXPECT_GT(stall, 0) << "the cell must congest to test anything";
  EXPECT_EQ(net.pool().in_use(), 0u);
  for (int r = 0; r < study.topo().num_routers(); ++r) {
    const Router& router = net.router(r);
    EXPECT_EQ(router.buffered_packets(), 0) << "router " << r;
    for (int port = 0; port < study.topo().radix(); ++port) {
      EXPECT_EQ(router.occupancy(port), 0) << "router " << r << " port " << port;
      EXPECT_EQ(router.parked_requests(port), 0) << "router " << r << " port " << port;
      for (int vc = 0; vc < router.cfg().num_vcs; ++vc) {
        EXPECT_EQ(router.credits(port, vc), c.buffer_packets)
            << "router " << r << " port " << port << " vc " << vc;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Congested, CreditQuiescence,
                         ::testing::Values(QuiescenceCase{"PAR", "PAR", 2, 1},
                                           QuiescenceCase{"Qadp", "Q-adp", 2, 1},
                                           QuiescenceCase{"QosDwrrPar", "PAR", 3, 3},
                                           QuiescenceCase{"QosDwrrQadp", "Q-adp", 3, 3}),
                         [](const ::testing::TestParamInfo<QuiescenceCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace dfly
