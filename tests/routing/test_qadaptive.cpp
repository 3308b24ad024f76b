#include "routing/q_adaptive.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "routing/factory.hpp"
#include "../support/make_blueprint.hpp"

namespace dfly {
namespace {

/// The unloaded estimate of leaving router `r` through router port `port`
/// toward group `row` (row < g) or toward local index `row - g` of r's own
/// group, by the original gateway scan: the reference the closed-form fill
/// must match bit for bit.
double reference_estimate(const Dragonfly& topo, const NetConfig& cfg, int r, int row, int port) {
  constexpr double kUnreachable = 1e18;
  const auto hop = [&](bool global) {
    return static_cast<double>(cfg.packet_serialization()) +
           static_cast<double>(global ? cfg.global_latency : cfg.local_latency) +
           static_cast<double>(cfg.router_latency);
  };
  const double lc = hop(false);
  const double gc = hop(true);
  const Dragonfly::Wire wire = topo.wire(r, port);
  const double first = wire.global ? gc : lc;
  if (row >= topo.num_groups()) {
    const int dl = row - topo.num_groups();
    if (dl == topo.local_index(r)) return 0.0;
    const bool direct = !wire.global && topo.local_index(wire.peer_router) == dl &&
                        topo.group_of_router(wire.peer_router) == topo.group_of_router(r);
    return direct ? lc : 3.0 * lc;
  }
  const int gd = row;
  const int peer = wire.peer_router;
  const int peer_group = topo.group_of_router(peer);
  double rem;
  if (peer_group == gd) {
    rem = lc;
  } else if (!topo.gateways(peer_group, gd).empty()) {
    bool own = false;
    for (const auto& e : topo.gateways(peer_group, gd)) {
      if (e.router == peer) {
        own = true;
        break;
      }
    }
    rem = (own ? 0.0 : lc) + gc + lc;
  } else {
    rem = kUnreachable;
  }
  return rem >= kUnreachable ? kUnreachable : first + rem;
}

TEST(QTable, UpdateMovesTowardSample) {
  // One feedback sample moves an entry by alpha of its distance to the
  // sample, in a group row and in a local row alike.
  Engine engine;
  const Dragonfly topo(DragonflyParams::tiny());
  const NetConfig cfg;
  routing::QAdaptiveParams params;
  params.alpha = 0.5;
  routing::QAdaptiveRouting algo(engine, topo, cfg, params, 1);
  const int port = topo.global_port(0);
  const double group_q = algo.global_q(3, 1, port);
  EXPECT_DOUBLE_EQ(algo.learn(3, 1, port, group_q + 100.0), group_q + 50.0);
  EXPECT_DOUBLE_EQ(algo.global_q(3, 1, port), group_q + 50.0);
  const double local_q = algo.local_q(3, 0, port);
  algo.learn(3, topo.num_groups(), port, local_q - 40.0);
  EXPECT_DOUBLE_EQ(algo.local_q(3, 0, port), local_q - 20.0);
  EXPECT_EQ(algo.global_q(3, 1, port + 1), reference_estimate(topo, cfg, 3, 1, port + 1))
      << "a neighbouring entry moved";
}

TEST(QTable, FootprintIsLightweight) {
  // The paper stresses a "light-weight two-level Q-table": for the 1,056-
  // node system each router stores 33 groups x 11 router ports + 8 locals x
  // 11 router ports doubles — about 3.5KB. Its 4 terminal ports get no column.
  Engine engine;
  const Dragonfly topo(DragonflyParams::paper());
  const NetConfig cfg;
  routing::QAdaptiveRouting algo(engine, topo, cfg, routing::QAdaptiveParams{}, 1);
  EXPECT_EQ(algo.footprint_bytes(),
            static_cast<std::size_t>(topo.num_routers()) * (33 + 8) * 11 * sizeof(double));
  EXPECT_LT(algo.footprint_bytes() / static_cast<std::size_t>(topo.num_routers()), 8u * 1024u);
}

struct QFixture {
  QFixture() : bp(testsupport::make_blueprint(DragonflyParams::tiny())), topo(bp->topo()) {
    routing::RoutingContext context{&engine, &topo, &bp->net(), 7};
    algo = std::make_unique<routing::QAdaptiveRouting>(engine, topo, bp->net(), context.qadp,
                                                       context.seed);
    NetworkObservability obs;
    obs.keep_packet_records = true;
    net = std::make_unique<Network>(engine, *bp, *algo, 1, 7, obs);
    net->set_sink(sink);
  }
  class CountSink final : public MessageEvents {
   public:
    void message_sent(std::uint64_t) override {}
    void message_delivered(std::uint64_t) override { ++delivered; }
    int delivered{0};
  };
  Engine engine;
  std::shared_ptr<const SystemBlueprint> bp;
  const Dragonfly& topo;
  std::unique_ptr<routing::QAdaptiveRouting> algo;
  std::unique_ptr<Network> net;
  CountSink sink;
};

TEST(QAdaptive, InitTablesPreferMinimalPaths) {
  QFixture f;
  // Router 0's global port toward its directly-connected group must have a
  // smaller initial estimate than any port that needs a detour.
  const int dst_group = f.topo.group_reached_by(0, 0);
  const double direct = f.algo->global_q(0, dst_group, f.topo.global_port(0));
  for (int port = f.topo.first_local_port(); port < f.topo.radix(); ++port) {
    if (port == f.topo.global_port(0)) continue;
    EXPECT_LE(direct, f.algo->global_q(0, dst_group, port)) << "port " << port;
  }
}

TEST(QAdaptive, IdleNetworkStaysMostlyMinimal) {
  QFixture f;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(f.topo.num_nodes())));
    int dst = src;
    while (dst == src) {
      dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(f.topo.num_nodes())));
    }
    f.net->send_message(src, dst, 512, 0);
    f.engine.run();
  }
  const auto& log = f.net->packet_log();
  EXPECT_EQ(log.delivered_packets(0), 100u);
  // epsilon exploration allows a few detours, but the bulk must be minimal.
  EXPECT_LT(static_cast<double>(log.nonminimal_packets(0)), 10.0);
}

TEST(QAdaptive, FeedbackSignalsFlow) {
  QFixture f;
  f.net->send_message(0, f.topo.num_nodes() - 1, 8192, 0);
  f.engine.run();
  // Every router-to-router hop generates one feedback signal.
  EXPECT_GT(f.algo->feedback_signals(), 0u);
}

TEST(QAdaptive, LearnsToAvoidSaturatedMinimalPath) {
  QFixture f;
  // Saturate the single global link 0->1 with a persistent flow, then check
  // the learned Q-value for the minimal port grew above its initial value.
  const int dst_group = 1;
  const auto& gw = f.topo.gateways(0, dst_group);
  ASSERT_EQ(gw.size(), 1u);
  const int gw_router = gw[0].router;
  const int gw_port = f.topo.global_port(gw[0].global_port);
  const double initial_q = f.algo->global_q(gw_router, dst_group, gw_port);

  const int nodes_per_group = f.topo.params().p * f.topo.params().a;
  for (int rep = 0; rep < 50; ++rep) {
    for (int n = 0; n < nodes_per_group; ++n) {
      f.net->send_message(n, nodes_per_group + n, 4096, 0);
    }
  }
  f.engine.run();
  const double learned_q = f.algo->global_q(gw_router, dst_group, gw_port);
  EXPECT_GT(learned_q, initial_q) << "queueing on the hot link was not learned";
  // And traffic diverted non-minimally as a result.
  EXPECT_GT(f.net->packet_log().nonminimal_packets(0), 0u);
}

TEST(QAdaptive, TrainingIsIncludedNoPretrainedState) {
  // A fresh instance starts from the unloaded estimates whatever an earlier
  // instance learned: training never leaks from one cell into the next.
  Engine e1, e2;
  Dragonfly topo(DragonflyParams::tiny());
  NetConfig cfg;
  routing::QAdaptiveParams params;
  routing::QAdaptiveRouting trained(e1, topo, cfg, params, 5);
  for (int r = 0; r < topo.num_routers(); ++r) trained.learn(r, 0, topo.radix() - 1, 1e9);
  routing::QAdaptiveRouting fresh(e2, topo, cfg, params, 5);
  for (int r = 0; r < topo.num_routers(); ++r) {
    for (int g = 0; g < topo.num_groups(); ++g) {
      for (int p = topo.first_local_port(); p < topo.radix(); ++p) {
        EXPECT_EQ(fresh.global_q(r, g, p), reference_estimate(topo, cfg, r, g, p));
      }
    }
  }
}

TEST(QAdaptive, HopBudgetHoldsOnPaperTopologyUnderLoad) {
  // Regression: the kMidLocalDone candidate set once allowed any global
  // port, letting packets chain intermediate groups indefinitely until the
  // VC budget blew up. Admissible Q-adaptive paths are at most
  // local-global-local-global-local = 5 hops.
  Engine engine;
  const auto bp = testsupport::make_blueprint(DragonflyParams::paper());
  const Dragonfly& topo = bp->topo();
  routing::QAdaptiveParams params;
  routing::QAdaptiveRouting algo(engine, topo, bp->net(), params, 13);
  NetworkObservability obs;
  obs.keep_packet_records = true;
  Network net(engine, *bp, algo, 1, 13, obs);
  QFixture::CountSink sink;
  net.set_sink(sink);
  Rng rng(17);
  // Bursty many-to-few traffic to force detours.
  for (int rep = 0; rep < 5; ++rep) {
    for (int n = 0; n < topo.num_nodes(); n += 3) {
      const int dst = static_cast<int>(rng.next_below(64));
      if (dst == n) continue;
      net.send_message(n, dst, 4096, 0);
    }
  }
  engine.run();
  for (const auto& r : net.packet_log().records()) {
    EXPECT_LE(r.hops, 5) << "Q-adaptive exceeded the admissible path length";
  }
  EXPECT_EQ(net.pool().in_use(), 0u);
}

TEST(QAdaptive, InitialEstimatesMatchTheGatewayScanBitForBit) {
  struct Shape {
    const char* name;
    DragonflyParams params;
    int links_per_group_pair;
  };
  DragonflyParams absolute = DragonflyParams::paper();
  absolute.arrangement = GlobalArrangement::kAbsolute;
  const std::vector<Shape> shapes{{"tiny", DragonflyParams::tiny(), 1},
                                  {"paper", DragonflyParams::paper(), 1},
                                  {"two links per group pair", DragonflyParams{2, 4, 4, 9}, 2},
                                  {"absolute arrangement", absolute, 1}};
  for (const Shape& shape : shapes) {
    const Dragonfly topo(shape.params);
    ASSERT_EQ(topo.links_per_group_pair(), shape.links_per_group_pair) << shape.name;
    const NetConfig cfg;
    Engine engine;
    const routing::QAdaptiveRouting algo(engine, topo, cfg, routing::QAdaptiveParams{}, 1);
    const int g = topo.num_groups();
    for (int r = 0; r < topo.num_routers(); ++r) {
      for (int row = 0; row < g + topo.params().a; ++row) {
        for (int port = topo.first_local_port(); port < topo.radix(); ++port) {
          const double got = row < g ? algo.global_q(r, row, port) : algo.local_q(r, row - g, port);
          EXPECT_EQ(got, reference_estimate(topo, cfg, r, row, port))
              << shape.name << ": router " << r << " row " << row << " port " << port;
        }
      }
    }
  }
}

class QAdaptiveParamsSweep : public ::testing::TestWithParam<double> {};

TEST_P(QAdaptiveParamsSweep, DeliversUnderAnyLearningRate) {
  Engine engine;
  const auto bp = testsupport::make_blueprint();
  const Dragonfly& topo = bp->topo();
  routing::QAdaptiveParams params;
  params.alpha = GetParam();
  routing::QAdaptiveRouting algo(engine, topo, bp->net(), params, 3);
  Network net(engine, *bp, algo, 1, 3);
  QFixture::CountSink sink;
  net.set_sink(sink);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
    int dst = src;
    while (dst == src) {
      dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
    }
    net.send_message(src, dst, 2048, 0);
  }
  engine.run();
  EXPECT_EQ(sink.delivered, 100);
}

INSTANTIATE_TEST_SUITE_P(LearningRates, QAdaptiveParamsSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 0.9));

}  // namespace
}  // namespace dfly
