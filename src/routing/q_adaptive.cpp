#include "routing/q_adaptive.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "net/link.hpp"
#include "net/router.hpp"
#include "routing/common.hpp"

namespace dfly::routing {

namespace {
constexpr double kUnreachable = 1e18;
constexpr std::uint32_t kFeedback = 1;

double unloaded_hop_cost(const NetConfig& cfg, bool global) {
  const double ser = static_cast<double>(cfg.packet_serialization());
  const double wire = static_cast<double>(global ? cfg.global_latency : cfg.local_latency);
  return ser + wire + static_cast<double>(cfg.router_latency);
}
}  // namespace

QAdaptiveRouting::QAdaptiveRouting(Engine& engine, const Dragonfly& topo, const NetConfig& cfg,
                                   QAdaptiveParams params, std::uint64_t seed)
    : topo_(&topo),
      cfg_(&cfg),
      params_(params),
      num_groups_(topo.num_groups()),
      first_port_(topo.first_local_port()),
      row_width_(static_cast<std::size_t>(topo.radix() - first_port_)),
      router_stride_(static_cast<std::size_t>(topo.num_groups() + topo.params().a) * row_width_),
      engine_(&engine),
      rng_(seed, 0x0ADA97151ull),
      tables_(static_cast<std::size_t>(topo.num_routers()) * router_stride_) {
  // Unloaded estimates: the first hop, then the fewest hops left from the
  // peer. Each sum is associated as written so that every double equals the
  // gateway-scan reference in tests/routing/test_qadaptive.cpp bit for bit.
  // The Dragonfly constructor requires a*h % (g-1) == 0, so every group pair
  // has a link: no router port is ever unreachable.
  const double lc = unloaded_hop_cost(cfg, false);
  const double gc = unloaded_hop_cost(cfg, true);
  const int g = num_groups_;
  const int a = topo.params().a;
  for (int r = 0; r < topo.num_routers(); ++r) {
    double* const base = tables_.data() + static_cast<std::size_t>(r) * router_stride_;
    for (int port = first_port_; port < topo.radix(); ++port) {
      const auto at = [&](int row) -> double& {
        return base[static_cast<std::size_t>(row) * row_width_ +
                    static_cast<std::size_t>(port - first_port_)];
      };
      const Dragonfly::Wire wire = topo.wire(r, port);
      const int peer = wire.peer_router;
      const double first = wire.global ? gc : lc;
      // Via a gateway of the peer's group: local, global, final local hop.
      for (int gd = 0; gd < g; ++gd) at(gd) = first + ((lc + gc) + lc);
      // The peer is itself a gateway to these groups: global, final local hop.
      for (int k = 0; k < topo.params().h; ++k) {
        at(topo.group_reached_by(peer, k)) = first + (gc + lc);
      }
      // The peer's own group: one final local hop.
      at(topo.group_of_router(peer)) = first + lc;
      for (int dl = 0; dl < a; ++dl) {
        const bool direct = !wire.global && topo.local_index(peer) == dl;
        at(g + dl) = dl == topo.local_index(r) ? 0.0 : direct ? lc : 3.0 * lc;
      }
    }
  }
}

double QAdaptiveRouting::learn(int router, int row, int port, double sample) {
  double& q = tables_[entry(router, row, port)];
  q += params_.alpha * (sample - q);
  return q;
}

template <typename Visit>
void QAdaptiveRouting::for_each_admissible(int router_id, int dst_group, const Packet& pkt,
                                           Visit&& visit) const {
  const Dragonfly& topo = *topo_;
  const int my_group = topo.group_of_router(router_id);
  switch (pkt.phase) {
    case RoutePhase::kDstGroup:
      // Set only on entering the destination group, where callers take the
      // in-group port before walking.
      assert(false && "kDstGroup outside the destination group");
      [[fallthrough]];
    case RoutePhase::kAtSource:
      for (int p = topo.first_local_port(); p < topo.radix(); ++p) visit(p);
      return;
    case RoutePhase::kSrcLocalDone:
      // Leaving the source group: any global port (the landing group becomes
      // the single allowed intermediate group if it is not the destination).
      for (int p = topo.first_global_port(); p < topo.radix(); ++p) visit(p);
      return;
    case RoutePhase::kMidLocalDone:
      // The intermediate group's local hop was spent reaching a gateway:
      // only this router's own globals toward the destination remain legal
      // (anything else would start a second detour and risk livelock).
      for (const auto& e : topo.gateways(my_group, dst_group)) {
        if (e.router == router_id) visit(topo.global_port(e.global_port));
      }
      return;
    case RoutePhase::kMidGroup:
      // Minimal continuation only: own globals to the destination group plus
      // local hops to that group's gateways (a gateway with several links is
      // visited once per link).
      for (const auto& e : topo.gateways(my_group, dst_group)) {
        visit(e.router == router_id ? topo.global_port(e.global_port)
                                    : topo.local_port_to(router_id, topo.local_index(e.router)));
      }
      return;
  }
}

void QAdaptiveRouting::candidates(Router& router, const Packet& pkt, std::vector<int>& out) const {
  out.clear();
  const Dragonfly& topo = *topo_;
  const int r = router.id();
  const int dst_router = topo.router_of_node(pkt.dst_node);
  const int dst_group = topo.group_of_router(dst_router);
  if (router.group() == dst_group) {
    out.push_back(topo.local_port_to(r, topo.local_index(dst_router)));
    return;
  }
  // route()'s epsilon pick indexes this list: keep kMidGroup's repeats out.
  const bool dedup = pkt.phase == RoutePhase::kMidGroup;
  for_each_admissible(r, dst_group, pkt, [&](int port) {
    if (!dedup || std::find(out.begin(), out.end(), port) == out.end()) out.push_back(port);
  });
}

RouteDecision QAdaptiveRouting::route(Router& router, Packet& pkt) {
  const Dragonfly& topo = *topo_;
  const int dst_router = topo.router_of_node(pkt.dst_node);
  if (router.id() == dst_router) return eject(router, pkt);

  const int dst_group = topo.group_of_router(dst_router);
  const int my_group = router.group();

  candidates(router, pkt, scratch_);
  assert(!scratch_.empty());

  int chosen;
  if (scratch_.size() == 1) {
    chosen = scratch_.front();
  } else if (rng_.next_bernoulli(params_.epsilon)) {
    chosen = scratch_[rng_.next_below(scratch_.size())];
  } else {
    const double* row =
        &tables_[entry(router.id(), row_toward(my_group, dst_group, dst_router), first_port_)];
    const double ser = static_cast<double>(cfg_->packet_serialization());
    double best = std::numeric_limits<double>::infinity();
    chosen = scratch_.front();
    for (const int p : scratch_) {
      const double score = row[p - first_port_] +
                           params_.queue_weight * static_cast<double>(router.occupancy(p)) * ser;
      if (score < best) {
        best = score;
        chosen = p;
      }
    }
  }

  // Phase bookkeeping for the next router.
  if (my_group == dst_group) {
    pkt.phase = RoutePhase::kDstGroup;
  } else if (topo.is_local_port(chosen)) {
    pkt.phase = pkt.phase == RoutePhase::kAtSource ? RoutePhase::kSrcLocalDone
                                                   : RoutePhase::kMidLocalDone;
  } else {
    const int landing = topo.group_reached_by(router.id(), chosen - topo.first_global_port());
    if (landing == dst_group) {
      pkt.phase = RoutePhase::kDstGroup;
    } else {
      pkt.phase = RoutePhase::kMidGroup;
      pkt.nonminimal = true;
      pkt.int_group = static_cast<std::int16_t>(landing);
    }
  }
  return RouteDecision{static_cast<std::int16_t>(chosen), vc_for(pkt)};
}

double QAdaptiveRouting::best_estimate(int router_id, int dst_router, const Packet& pkt) const {
  if (router_id == dst_router) return 0.0;
  const Dragonfly& topo = *topo_;
  const int dst_group = topo.group_of_router(dst_router);
  const int my_group = topo.group_of_router(router_id);
  const double* row =
      &tables_[entry(router_id, row_toward(my_group, dst_group, dst_router), first_port_)];
  if (my_group == dst_group) {
    return row[topo.local_port_to(router_id, topo.local_index(dst_router)) - first_port_];
  }
  // Minimum over the same candidate set route() would use.
  double best = kUnreachable;
  for_each_admissible(router_id, dst_group, pkt,
                      [&](int p) { best = std::min(best, row[p - first_port_]); });
  return best;
}

void QAdaptiveRouting::on_arrival(Router& router, Packet& pkt) {
  if (pkt.prev_router < 0) return;  // injected by the NIC: no upstream agent
  const SimTime now = router.engine().now();
  const double elapsed = static_cast<double>(now - pkt.enter_router_time);
  const int dst_router = topo_->router_of_node(pkt.dst_node);
  const double v = best_estimate(router.id(), dst_router, pkt);
  const double sample = elapsed + (v >= kUnreachable ? 0.0 : v);

  const int prev = pkt.prev_router;
  const int prev_port = pkt.prev_port;
  const int row =
      row_toward(topo_->group_of_router(prev), topo_->group_of_router(dst_router), dst_router);

  const SimTime reverse = LinkMap::port_latency(*topo_, *cfg_, prev_port);
  const std::uint64_t a = static_cast<std::uint64_t>(prev) |
                          (static_cast<std::uint64_t>(prev_port) << 16) |
                          (static_cast<std::uint64_t>(row) << 32);
  engine_->schedule_at(now + reverse, *this, kFeedback, a,
                       static_cast<std::uint64_t>(sample));
}

void QAdaptiveRouting::handle(Engine&, const Event& event) {
  assert(event.kind == kFeedback);
  const int router = static_cast<int>(event.a & 0xffff);
  const int port = static_cast<int>((event.a >> 16) & 0xffff);
  const int row = static_cast<int>((event.a >> 32) & 0xffff);
  learn(router, row, port, static_cast<double>(event.b));
  ++feedback_signals_;
}

}  // namespace dfly::routing
