#include <gtest/gtest.h>

#include "net/network.hpp"
#include "routing/factory.hpp"
#include "../support/make_blueprint.hpp"

namespace dfly {
namespace {

class CountingSink final : public MessageEvents {
 public:
  void message_sent(std::uint64_t) override { ++sent; }
  void message_delivered(std::uint64_t) override { ++delivered; }
  int sent{0};
  int delivered{0};
};

/// Every routing algorithm must deliver arbitrary traffic without loss or
/// deadlock on small and multi-link topologies.
class RoutingDelivery
    : public ::testing::TestWithParam<std::tuple<std::string, DragonflyParams>> {};

TEST_P(RoutingDelivery, RandomTrafficAllDelivered) {
  const auto& [name, params] = GetParam();
  Engine engine;
  const auto bp = testsupport::make_blueprint(params);
  const Dragonfly& topo = bp->topo();
  const NetConfig& cfg = bp->net();
  routing::RoutingContext context{&engine, &topo, &cfg, 11};
  auto routing = routing::make_routing(name, context);
  NetworkObservability obs;
  obs.keep_packet_records = true;
  Network net(engine, *bp, *routing, 1, 11, obs);
  CountingSink sink;
  net.set_sink(sink);

  Rng rng(99);
  const int messages = 300;
  for (int i = 0; i < messages; ++i) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
    int dst = src;
    while (dst == src) {
      dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
    }
    net.send_message(src, dst, 1024 + static_cast<int>(rng.next_below(4096)), 0);
  }
  engine.run();
  EXPECT_EQ(sink.sent, messages);
  EXPECT_EQ(sink.delivered, messages);
  EXPECT_EQ(net.pool().in_use(), 0u);

  // Hop-count budget: no admissible path exceeds 7 router-to-router hops,
  // and the VC-per-hop discipline must never exceed the configured VCs.
  for (const auto& r : net.packet_log().records()) {
    EXPECT_LE(r.hops, 7);
    EXPECT_LT(r.hops, cfg.num_vcs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRoutings, RoutingDelivery,
    ::testing::Combine(::testing::Values("MIN", "VALg", "VALn", "UGALg", "UGALn", "PAR", "Q-adp"),
                       ::testing::Values(DragonflyParams::tiny(), DragonflyParams{2, 4, 2, 5})),
    [](const auto& info) {
      std::string routing = std::get<0>(info.param);
      for (auto& c : routing) {
        if (c == '-') c = '_';
      }
      return routing + "_g" + std::to_string(std::get<1>(info.param).g);
    });

TEST(Routing, MinimalNeverMisroutes) {
  Engine engine;
  const auto bp = testsupport::make_blueprint();
  const Dragonfly& topo = bp->topo();
  routing::RoutingContext context{&engine, &topo, &bp->net(), 1};
  auto routing = routing::make_routing("MIN", context);
  NetworkObservability obs;
  obs.keep_packet_records = true;
  Network net(engine, *bp, *routing, 1, 1, obs);
  CountingSink sink;
  net.set_sink(sink);
  for (int n = 1; n < topo.num_nodes(); ++n) net.send_message(0, n, 512, 0);
  engine.run();
  for (const auto& r : net.packet_log().records()) {
    EXPECT_FALSE(r.nonminimal);
    EXPECT_LE(r.hops, 3);
  }
}

TEST(Routing, ValiantAlwaysMisroutesInterGroup) {
  Engine engine;
  const auto bp = testsupport::make_blueprint();
  const Dragonfly& topo = bp->topo();
  routing::RoutingContext context{&engine, &topo, &bp->net(), 1};
  auto routing = routing::make_routing("VALg", context);
  NetworkObservability obs;
  obs.keep_packet_records = true;
  Network net(engine, *bp, *routing, 1, 1, obs);
  CountingSink sink;
  net.set_sink(sink);
  // All destinations in a different group than the source.
  const int src = 0;
  for (int g = 1; g < topo.num_groups(); ++g) {
    net.send_message(src, topo.node_id(topo.router_id(g, 0), 0), 512, 0);
  }
  engine.run();
  for (const auto& r : net.packet_log().records()) {
    EXPECT_TRUE(r.nonminimal);
    EXPECT_GE(r.hops, 2);
  }
}

TEST(Routing, UgalPrefersMinimalWhenIdle) {
  // On an idle network every queue is empty, so q_min <= 2*q_nonmin always
  // holds and UGAL must behave like minimal routing.
  Engine engine;
  const auto bp = testsupport::make_blueprint();
  const Dragonfly& topo = bp->topo();
  routing::RoutingContext context{&engine, &topo, &bp->net(), 1};
  auto routing = routing::make_routing("UGALg", context);
  NetworkObservability obs;
  obs.keep_packet_records = true;
  Network net(engine, *bp, *routing, 1, 1, obs);
  CountingSink sink;
  net.set_sink(sink);
  // One message at a time: run to quiescence between sends.
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
    int dst = src;
    while (dst == src) {
      dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
    }
    net.send_message(src, dst, 512, 0);
    engine.run();
  }
  for (const auto& r : net.packet_log().records()) {
    EXPECT_FALSE(r.nonminimal) << "UGAL misrouted on an idle network";
    EXPECT_LE(r.hops, 3);
  }
}

TEST(Routing, UgalDivertsUnderAdversarialLoad) {
  // Adversarial pattern: every node in group 0 blasts group 1. The single
  // global link between the groups saturates and UGAL must start taking
  // non-minimal paths.
  Engine engine;
  const auto bp = testsupport::make_blueprint();
  const Dragonfly& topo = bp->topo();
  routing::RoutingContext context{&engine, &topo, &bp->net(), 1};
  auto routing = routing::make_routing("UGALn", context);
  NetworkObservability obs;
  obs.keep_packet_records = true;
  Network net(engine, *bp, *routing, 1, 1, obs);
  CountingSink sink;
  net.set_sink(sink);
  const int nodes_per_group = topo.params().p * topo.params().a;
  for (int rep = 0; rep < 30; ++rep) {
    for (int n = 0; n < nodes_per_group; ++n) {
      net.send_message(n, nodes_per_group + n, 8192, 0);
    }
  }
  engine.run();
  std::uint64_t nonmin = net.packet_log().nonminimal_packets(0);
  EXPECT_GT(nonmin, 0u) << "UGAL never diverted under adversarial load";
  EXPECT_EQ(sink.delivered, 30 * nodes_per_group);
}

TEST(Routing, ParDivertsUnderAdversarialLoad) {
  Engine engine;
  const auto bp = testsupport::make_blueprint();
  const Dragonfly& topo = bp->topo();
  routing::RoutingContext context{&engine, &topo, &bp->net(), 1};
  auto routing = routing::make_routing("PAR", context);
  NetworkObservability obs;
  obs.keep_packet_records = true;
  Network net(engine, *bp, *routing, 1, 1, obs);
  CountingSink sink;
  net.set_sink(sink);
  const int nodes_per_group = topo.params().p * topo.params().a;
  for (int rep = 0; rep < 30; ++rep) {
    for (int n = 0; n < nodes_per_group; ++n) {
      net.send_message(n, nodes_per_group + n, 8192, 0);
    }
  }
  engine.run();
  EXPECT_GT(net.packet_log().nonminimal_packets(0), 0u);
  EXPECT_EQ(sink.delivered, 30 * nodes_per_group);
}

TEST(Routing, FactoryRejectsUnknownName) {
  Engine engine;
  Dragonfly topo(DragonflyParams::tiny());
  NetConfig cfg;
  routing::RoutingContext context{&engine, &topo, &cfg, 1};
  EXPECT_THROW(routing::make_routing("bogus", context), std::invalid_argument);
}

TEST(Routing, PaperListIsTheEvaluatedFour) {
  const auto& names = routing::paper_routings();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "UGALg");
  EXPECT_EQ(names[1], "UGALn");
  EXPECT_EQ(names[2], "PAR");
  EXPECT_EQ(names[3], "Q-adp");
}

}  // namespace
}  // namespace dfly
