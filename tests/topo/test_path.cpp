#include "topo/path.hpp"

#include <gtest/gtest.h>

namespace dfly {
namespace {

/// True when consecutive routers in `path` are directly connected.
bool path_is_connected(const Dragonfly& topo, const RouterPath& path) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    const int a = path[i - 1];
    const int b = path[i];
    if (topo.group_of_router(a) == topo.group_of_router(b)) continue;  // local: all-to-all
    bool linked = false;
    for (int k = 0; k < topo.params().h; ++k) {
      if (topo.global_peer(a, k).router == b) {
        linked = true;
        break;
      }
    }
    if (!linked) return false;
  }
  return true;
}

class PathTest : public ::testing::TestWithParam<DragonflyParams> {
 protected:
  Dragonfly topo_{GetParam()};
  PathOracle oracle_{topo_};
};

TEST_P(PathTest, MinimalPathsHaveAtMostThreeHops) {
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.num_routers())));
    const int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.num_routers())));
    const RouterPath path = oracle_.minimal(src, dst, &rng);
    EXPECT_LE(path.size(), 4u);  // <= 3 hops
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    EXPECT_TRUE(path_is_connected(topo_, path));
  }
}

TEST_P(PathTest, MinimalHopsMatchesEnumeratedPath) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.num_routers())));
    const int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.num_routers())));
    const int hops = oracle_.minimal_hops(src, dst);
    const RouterPath best = oracle_.minimal(src, dst, nullptr);
    EXPECT_LE(hops, static_cast<int>(best.size()) - 1);
    if (src == dst) {
      EXPECT_EQ(hops, 0);
    }
  }
}

TEST_P(PathTest, ValiantPathTraversesIntermediateGroup) {
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.num_routers())));
    const int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.num_routers())));
    const int sg = topo_.group_of_router(src);
    const int dg = topo_.group_of_router(dst);
    if (sg == dg) continue;
    int ig = sg;
    while (ig == sg || ig == dg) {
      ig = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.num_groups())));
    }
    const RouterPath path = oracle_.valiant(src, dst, ig, -1, &rng);
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    EXPECT_TRUE(path_is_connected(topo_, path));
    bool visited_ig = false;
    for (const int r : path) visited_ig = visited_ig || topo_.group_of_router(r) == ig;
    EXPECT_TRUE(visited_ig);
    EXPECT_LE(path.size(), 6u);  // <= 5 hops for the group variant
  }
}

TEST_P(PathTest, ValiantThroughSpecificRouterVisitsIt) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.num_routers())));
    const int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.num_routers())));
    const int sg = topo_.group_of_router(src);
    const int dg = topo_.group_of_router(dst);
    if (sg == dg) continue;
    int ig = sg;
    while (ig == sg || ig == dg) {
      ig = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.num_groups())));
    }
    const int ir = topo_.router_id(
        ig, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo_.params().a))));
    const RouterPath path = oracle_.valiant(src, dst, ig, ir, &rng);
    bool visited = false;
    for (const int r : path) visited = visited || r == ir;
    EXPECT_TRUE(visited);
    EXPECT_TRUE(path_is_connected(topo_, path));
    EXPECT_LE(path.size(), 7u);  // <= 6 hops for the node variant
  }
}

TEST_P(PathTest, PathDiversityMatchesGatewayCount) {
  const int src = 0;
  for (int dst = 0; dst < topo_.num_routers(); ++dst) {
    const int count = oracle_.count_minimal(src, dst);
    if (topo_.group_of_router(dst) == topo_.group_of_router(src)) {
      EXPECT_EQ(count, 1);
    } else {
      EXPECT_EQ(count, topo_.links_per_group_pair() == 1
                           ? static_cast<int>(topo_.gateways(0, topo_.group_of_router(dst)).size())
                           : count);
      EXPECT_GE(count, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, PathTest,
                         ::testing::Values(DragonflyParams{1, 2, 2, 5},
                                           DragonflyParams{2, 4, 2, 9},
                                           DragonflyParams{4, 8, 4, 33}),
                         [](const auto& info) {
                           const DragonflyParams& p = info.param;
                           return "p" + std::to_string(p.p) + "a" + std::to_string(p.a) + "h" +
                                  std::to_string(p.h) + "g" + std::to_string(p.g);
                         });

}  // namespace
}  // namespace dfly
