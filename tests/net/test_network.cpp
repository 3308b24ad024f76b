#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "routing/factory.hpp"
#include "../support/make_blueprint.hpp"

namespace dfly {
namespace {

/// Records message lifecycle events for direct network-level tests.
class SinkRecorder final : public MessageEvents {
 public:
  void message_sent(std::uint64_t id) override { sent.push_back(id); }
  void message_delivered(std::uint64_t id) override { delivered.push_back(id); }
  std::vector<std::uint64_t> sent, delivered;
};

struct NetFixture {
  explicit NetFixture(const std::string& routing_name = "MIN",
                      DragonflyParams params = DragonflyParams::tiny())
      : bp(testsupport::make_blueprint(params)), cfg(bp->net()), topo(&bp->topo()) {
    routing::RoutingContext context{&engine, topo, &cfg, 1};
    routing = routing::make_routing(routing_name, context);
    NetworkObservability obs;
    obs.keep_packet_records = true;
    net = std::make_unique<Network>(engine, *bp, *routing, /*num_apps=*/2, 1, obs);
    net->set_sink(sink);
  }

  Engine engine;
  std::shared_ptr<const SystemBlueprint> bp;
  const NetConfig& cfg;
  const Dragonfly* topo;
  std::unique_ptr<RoutingAlgorithm> routing;
  std::unique_ptr<Network> net;
  SinkRecorder sink;
};

TEST(Network, SingleMessageDelivered) {
  NetFixture f;
  const auto id = f.net->send_message(0, f.topo->num_nodes() - 1, 4096, 0);
  f.engine.run();
  ASSERT_EQ(f.sink.sent.size(), 1u);
  ASSERT_EQ(f.sink.delivered.size(), 1u);
  EXPECT_EQ(f.sink.sent[0], id);
  EXPECT_EQ(f.sink.delivered[0], id);
  // 4096B = 8 packets of 512B.
  EXPECT_EQ(f.net->packet_log().delivered_packets(0), 8u);
}

TEST(Network, PacketPayloadTailIsShort) {
  NetFixture f;
  f.net->send_message(0, 9, 1000, 0);  // 512 + 488
  f.engine.run();
  EXPECT_EQ(f.net->packet_log().delivered_packets(0), 2u);
  const auto& records = f.net->packet_log().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].bytes + records[1].bytes, 1000);
}

/// Records every lifecycle callback in order, with the simulated time it
/// fired at.
class TimedSink final : public MessageEvents {
 public:
  struct Call {
    bool delivered;
    std::uint64_t id;
    SimTime when;
  };
  explicit TimedSink(const Engine& engine) : engine_(engine) {}
  void message_sent(std::uint64_t id) override { calls.push_back({false, id, engine_.now()}); }
  void message_delivered(std::uint64_t id) override {
    calls.push_back({true, id, engine_.now()});
  }
  std::vector<Call> calls;

 private:
  const Engine& engine_;
};

// A self-send never touches the wire: it costs one engine event, one
// packet's serialisation after the send, and reports sent before delivered.
TEST(Network, SelfSendBypassesNetwork) {
  for (const std::int64_t bytes : {std::int64_t{512}, std::int64_t{5000}}) {
    SCOPED_TRACE(bytes);
    NetFixture f;
    TimedSink sink(f.engine);
    f.net->set_sink(sink);
    const std::uint64_t executed_before = f.engine.executed();
    const std::uint64_t id = f.net->send_message(3, 3, bytes, 0);
    f.engine.run();
    EXPECT_EQ(f.engine.executed() - executed_before, 1u);
    const SimTime expected =
        f.cfg.serialization(static_cast<int>(std::min<std::int64_t>(bytes, f.cfg.packet_bytes)));
    ASSERT_EQ(sink.calls.size(), 2u);
    EXPECT_FALSE(sink.calls[0].delivered);
    EXPECT_TRUE(sink.calls[1].delivered);
    EXPECT_EQ(sink.calls[0].id, id);
    EXPECT_EQ(sink.calls[1].id, id);
    EXPECT_EQ(sink.calls[0].when, expected);
    EXPECT_EQ(sink.calls[1].when, expected);
    EXPECT_EQ(f.net->packet_log().delivered_packets(0), 0u);  // no wire traffic
  }
}

/// The MIN path from `src` to `dst` node as (router, output port) pairs,
/// router-to-router hops only. On the tiny system each group pair has one
/// global link, so the minimal path is unique.
std::vector<std::pair<int, int>> min_path(const Dragonfly& topo, int src, int dst) {
  EXPECT_EQ(topo.links_per_group_pair(), 1);
  std::vector<std::pair<int, int>> hops;
  const int last = topo.router_of_node(dst);
  for (int r = topo.router_of_node(src); r != last;) {
    int port = -1;
    if (topo.group_of_router(r) == topo.group_of_router(last)) {
      port = topo.local_port_to(r, topo.local_index(last));
    } else {
      const GlobalEndpoint gw =
          topo.gateways(topo.group_of_router(r), topo.group_of_router(last)).front();
      port = gw.router == r ? topo.global_port(gw.global_port)
                            : topo.local_port_to(r, topo.local_index(gw.router));
    }
    hops.emplace_back(r, port);
    r = topo.wire(r, port).peer_router;
  }
  return hops;
}

// Zero-load oracle: one 512 B packet alone in the network under MIN takes
// exactly the sum of its hop costs (nic.cpp, router.cpp). Injection is
// serialisation + terminal wire + the first router's pipeline; each
// router-to-router hop is serialisation + the blueprint's port latency + the
// next router's pipeline; ejection is serialisation + the terminal port's
// latency, with no pipeline at the NIC.
TEST(Network, UnloadedLatencyIsNearTopologyBound) {
  const NetFixture probe;
  const Dragonfly& topo = *probe.topo;
  const int p = topo.params().p;
  // An inter-group pair whose path needs all three hops: the source router
  // is not its group's gateway and the destination router is not the peer.
  int far = -1;
  for (int g = 1; g < topo.num_groups() && far < 0; ++g) {
    const GlobalEndpoint gw = topo.gateways(0, g).front();
    if (gw.router == 0) continue;
    const int peer = topo.wire(gw.router, topo.global_port(gw.global_port)).peer_router;
    far = topo.node_id(peer == topo.router_id(g, 0) ? topo.router_id(g, 1) : topo.router_id(g, 0),
                       0);
  }
  ASSERT_GE(far, 0);
  const struct {
    const char* name;
    int dst;
    std::size_t hops;
  } cases[] = {
      {"intra-router", 1, 0},
      {"intra-group", p * 1, 1},
      {"inter-group", far, 3},
  };
  for (const auto& c : cases) {
    NetFixture f("MIN");
    const NetConfig& cfg = f.cfg;
    const SimTime ser = cfg.serialization(512);
    const auto path = min_path(*f.topo, 0, c.dst);
    ASSERT_EQ(path.size(), c.hops) << c.name;
    SimTime expected = ser + cfg.terminal_latency + cfg.router_latency;
    for (const auto& [router, port] : path) {
      expected += ser + f.bp->port(router, port).latency + cfg.router_latency;
    }
    const int last = f.topo->router_of_node(c.dst);
    expected += ser + f.bp->port(last, f.topo->terminal_port_of_node(c.dst)).latency;

    f.net->send_message(0, c.dst, 512, 0);
    f.engine.run();
    const auto& records = f.net->packet_log().records();
    ASSERT_EQ(records.size(), 1u) << c.name;
    EXPECT_EQ(static_cast<std::size_t>(records[0].hops), c.hops) << c.name;
    EXPECT_EQ(records[0].eject_time - records[0].wire_time, expected) << c.name;
  }
}

TEST(Network, MinimalRoutingTakesAtMostThreeHops) {
  NetFixture f("MIN");
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(f.topo->num_nodes())));
    int dst = src;
    while (dst == src) {
      dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(f.topo->num_nodes())));
    }
    f.net->send_message(src, dst, 512, 0);
  }
  f.engine.run();
  EXPECT_EQ(f.net->packet_log().delivered_packets(0), 200u);
  for (const auto& r : f.net->packet_log().records()) {
    EXPECT_LE(r.hops, 3);
    EXPECT_FALSE(r.nonminimal);
  }
}

TEST(Network, ManyToOneCreatesBackpressureNotLoss) {
  NetFixture f("MIN");
  // Every node sends to node 0: heavy ejection contention.
  std::int64_t expected_bytes = 0;
  for (int n = 1; n < f.topo->num_nodes(); ++n) {
    f.net->send_message(n, 0, 8192, 0);
    expected_bytes += 8192;
  }
  f.engine.run();
  EXPECT_EQ(static_cast<std::int64_t>(f.sink.delivered.size()), f.topo->num_nodes() - 1);
  EXPECT_DOUBLE_EQ(f.net->packet_log().delivered(0).total(),
                   static_cast<double>(expected_bytes));
  // The incast must have produced queueing: p99 well above the median.
  const auto& lat = f.net->packet_log().latency(0);
  EXPECT_GT(lat.p99(), lat.median());
  EXPECT_EQ(f.net->in_flight_packets(), static_cast<std::int64_t>(f.net->pool().capacity()) -
                                             static_cast<std::int64_t>(f.net->pool().capacity()) +
                                             static_cast<std::int64_t>(f.net->pool().in_use()));
  EXPECT_EQ(f.net->pool().in_use(), 0u);  // everything drained back to the pool
}

TEST(Network, PerAppTrafficSeparated) {
  NetFixture f;
  f.net->send_message(0, 8, 2048, 0);
  f.net->send_message(1, 9, 4096, 1);
  f.engine.run();
  EXPECT_EQ(f.net->packet_log().delivered_packets(0), 4u);
  EXPECT_EQ(f.net->packet_log().delivered_packets(1), 8u);
  EXPECT_DOUBLE_EQ(f.net->packet_log().delivered(0).total(), 2048.0);
  EXPECT_DOUBLE_EQ(f.net->packet_log().delivered(1).total(), 4096.0);
}

TEST(Network, LinkStatsSeeTraffic) {
  NetFixture f;
  f.net->send_message(0, f.topo->num_nodes() - 1, 512, 0);
  f.engine.run();
  const LinkStats& stats = f.net->link_stats();
  std::int64_t nic_bytes = 0, router_bytes = 0;
  for (int link = 0; link < stats.num_links(); ++link) {
    if (stats.link_class(link) == LinkClass::kTerminal) {
      nic_bytes += stats.bytes(link);
    } else {
      router_bytes += stats.bytes(link);
    }
  }
  EXPECT_GE(nic_bytes, 512 * 2);    // NIC injection link + router terminal out
  EXPECT_GE(router_bytes, 512);     // at least one network hop
}

TEST(Network, CreditProtocolConservesCredits) {
  NetFixture f;
  for (int n = 1; n < 20; ++n) f.net->send_message(n, 0, 30000, 0);
  f.engine.run();
  // After quiescence every credit must be returned.
  for (int r = 0; r < f.topo->num_routers(); ++r) {
    Router& router = f.net->router(r);
    for (int port = 0; port < f.topo->radix(); ++port) {
      for (int vc = 0; vc < f.cfg.num_vcs; ++vc) {
        EXPECT_EQ(router.credits(port, vc), f.cfg.buffer_packets)
            << "router " << r << " port " << port << " vc " << vc;
      }
      EXPECT_EQ(router.occupancy(port), 0);
    }
  }
}

TEST(Network, ThroughputBoundedByTerminalLink) {
  NetFixture f("MIN");
  // One node streams 1MB to a peer: delivery rate can't beat link rate.
  f.net->send_message(0, 32, 1 << 20, 0);
  f.engine.run();
  const SimTime makespan = f.engine.now();
  const double gbps = (static_cast<double>(1 << 20) * 8.0) / to_ns(makespan);
  EXPECT_LE(gbps, f.cfg.link_gbps * 1.01);
  EXPECT_GT(gbps, f.cfg.link_gbps * 0.5);  // and reasonably close to it
}

}  // namespace
}  // namespace dfly
