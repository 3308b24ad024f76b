#include "topo/path.hpp"

#include <cassert>

namespace dfly {

void PathOracle::append_minimal(RouterPath& path, int to, Rng* rng) const {
  const Dragonfly& t = *topo_;
  int cur = path.back();
  if (cur == to) return;
  const int src_grp = t.group_of_router(cur);
  const int dst_grp = t.group_of_router(to);
  if (src_grp == dst_grp) {
    path.push_back(to);  // one local hop
    return;
  }
  const auto& gw = t.gateways(src_grp, dst_grp);
  assert(!gw.empty() && "groups must be connected");
  // Prefer a gateway co-located with `cur` to keep the path at <= 3 hops.
  const GlobalEndpoint* chosen = nullptr;
  std::vector<const GlobalEndpoint*> here;
  for (const auto& e : gw) {
    if (e.router == cur) here.push_back(&e);
  }
  if (!here.empty()) {
    chosen = rng != nullptr ? here[rng->next_below(here.size())] : here.front();
  } else {
    chosen = rng != nullptr ? &gw[rng->next_below(gw.size())] : &gw.front();
    path.push_back(chosen->router);  // local hop to the gateway
  }
  const GlobalEndpoint far = t.global_peer(chosen->router, chosen->global_port);
  path.push_back(far.router);  // global hop
  if (far.router != to) path.push_back(to);  // local hop in destination group
}

RouterPath PathOracle::minimal(int src_router, int dst_router, Rng* rng) const {
  RouterPath path{src_router};
  append_minimal(path, dst_router, rng);
  return path;
}

RouterPath PathOracle::valiant(int src_router, int dst_router, int int_group,
                               int int_router, Rng* rng) const {
  const Dragonfly& t = *topo_;
  RouterPath path{src_router};
  const int src_grp = t.group_of_router(src_router);
  const int dst_grp = t.group_of_router(dst_router);
  if (int_group != src_grp && int_group != dst_grp) {
    if (int_router >= 0) {
      assert(t.group_of_router(int_router) == int_group);
      append_minimal(path, int_router, rng);
    } else {
      // Land anywhere in the intermediate group: route to the gateway's far
      // end (one local hop at most to reach a gateway, then the global hop).
      const auto& gw = t.gateways(src_grp, int_group);
      assert(!gw.empty());
      const GlobalEndpoint* e = nullptr;
      for (const auto& cand : gw) {
        if (cand.router == src_router) {
          e = &cand;
          break;
        }
      }
      if (e == nullptr) e = rng != nullptr ? &gw[rng->next_below(gw.size())] : &gw.front();
      if (e->router != path.back()) path.push_back(e->router);
      const GlobalEndpoint far = t.global_peer(e->router, e->global_port);
      path.push_back(far.router);
    }
  }
  append_minimal(path, dst_router, rng);
  return path;
}

int PathOracle::count_minimal(int src_router, int dst_router) const {
  const Dragonfly& t = *topo_;
  if (src_router == dst_router) return 1;
  const int sg = t.group_of_router(src_router);
  const int dg = t.group_of_router(dst_router);
  if (sg == dg) return 1;
  return static_cast<int>(t.gateways(sg, dg).size());
}

int PathOracle::minimal_hops(int src_router, int dst_router) const {
  const Dragonfly& t = *topo_;
  if (src_router == dst_router) return 0;
  const int sg = t.group_of_router(src_router);
  const int dg = t.group_of_router(dst_router);
  if (sg == dg) return 1;
  const auto& gw = t.gateways(sg, dg);
  int best = 3;
  for (const auto& e : gw) {
    const GlobalEndpoint far = t.global_peer(e.router, e.global_port);
    int hops = 1;                            // the global hop
    if (e.router != src_router) ++hops;      // local hop to gateway
    if (far.router != dst_router) ++hops;    // local hop at destination
    if (hops < best) best = hops;
  }
  return best;
}

}  // namespace dfly
