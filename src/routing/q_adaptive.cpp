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
}  // namespace

namespace {
double unloaded_hop_cost(const NetConfig& cfg, bool global) {
  const double ser = static_cast<double>(cfg.packet_serialization());
  const double wire = static_cast<double>(global ? cfg.global_latency : cfg.local_latency);
  return ser + wire + static_cast<double>(cfg.router_latency);
}
}  // namespace

std::vector<QTable> build_initial_qtables(const Dragonfly& topo, const NetConfig& cfg) {
  std::vector<QTable> tables;
  tables.reserve(static_cast<std::size_t>(topo.num_routers()));
  for (int r = 0; r < topo.num_routers(); ++r) {
    tables.emplace_back(topo.num_groups(), topo.params().a, topo.radix());
  }
  const double lc = unloaded_hop_cost(cfg, false);
  const double gc = unloaded_hop_cost(cfg, true);
  for (int r = 0; r < topo.num_routers(); ++r) {
    QTable& table = tables[static_cast<std::size_t>(r)];
    const int my_group = topo.group_of_router(r);
    for (int port = 0; port < topo.radix(); ++port) {
      const bool terminal = topo.is_terminal_port(port);
      const Dragonfly::Wire wire = terminal ? Dragonfly::Wire{} : topo.wire(r, port);
      for (int gd = 0; gd < topo.num_groups(); ++gd) {
        if (terminal) {
          table.set_global(gd, port, kUnreachable);
          continue;
        }
        const int peer = wire.peer_router;
        const int peer_group = topo.group_of_router(peer);
        const double first = wire.global ? gc : lc;
        double rem;
        if (peer_group == gd) {
          rem = lc;  // expected final local hop
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
        table.set_global(gd, port, rem >= kUnreachable ? kUnreachable : first + rem);
      }
      for (int dl = 0; dl < topo.params().a; ++dl) {
        if (terminal) {
          table.set_local(dl, port, kUnreachable);
          continue;
        }
        if (dl == topo.local_index(r)) {
          table.set_local(dl, port, 0.0);
          continue;
        }
        const bool direct = !wire.global && topo.local_index(wire.peer_router) == dl &&
                            topo.group_of_router(wire.peer_router) == my_group;
        table.set_local(dl, port, direct ? lc : 3.0 * lc);
      }
    }
  }
  return tables;
}

QAdaptiveRouting::QAdaptiveRouting(Engine& engine, const Dragonfly& topo, const NetConfig& cfg,
                                   QAdaptiveParams params, std::uint64_t seed,
                                   const std::vector<QTable>* initial)
    : topo_(&topo),
      cfg_(&cfg),
      params_(params),
      engine_(&engine),
      rng_(seed, 0x0ADA97151ull),
      tables_(initial != nullptr ? *initial : build_initial_qtables(topo, cfg)) {
  assert(static_cast<int>(tables_.size()) == topo.num_routers() &&
         "initial Q-tables built for a different system shape");
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
    const QTable& table = tables_[static_cast<std::size_t>(router.id())];
    const double ser = static_cast<double>(cfg_->packet_serialization());
    double best = std::numeric_limits<double>::infinity();
    chosen = scratch_.front();
    for (const int p : scratch_) {
      const double q = my_group == dst_group ? table.local_q(topo.local_index(dst_router), p)
                                             : table.global_q(dst_group, p);
      const double score = q + params_.queue_weight * static_cast<double>(router.occupancy(p)) * ser;
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
  const QTable& table = tables_[static_cast<std::size_t>(router_id)];
  const int dst_group = topo.group_of_router(dst_router);
  const int my_group = topo.group_of_router(router_id);
  if (my_group == dst_group) {
    const int direct = topo.local_port_to(router_id, topo.local_index(dst_router));
    return table.local_q(topo.local_index(dst_router), direct);
  }
  // Minimum over the same candidate set route() would use.
  double best = kUnreachable;
  for_each_admissible(router_id, dst_group, pkt,
                      [&](int p) { best = std::min(best, table.global_q(dst_group, p)); });
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
  const int dst_group = topo_->group_of_router(dst_router);
  const bool local_row = topo_->group_of_router(prev) == dst_group;
  const int row = local_row ? topo_->local_index(dst_router) : dst_group;

  const SimTime reverse = LinkMap::port_latency(*topo_, *cfg_, prev_port);
  const std::uint64_t a = static_cast<std::uint64_t>(prev) |
                          (static_cast<std::uint64_t>(prev_port) << 16) |
                          (static_cast<std::uint64_t>(row) << 32) |
                          (static_cast<std::uint64_t>(local_row ? 1 : 0) << 48);
  engine_->schedule_at(now + reverse, *this, kFeedback, a,
                       static_cast<std::uint64_t>(sample));
}

void QAdaptiveRouting::handle(Engine&, const Event& event) {
  assert(event.kind == kFeedback);
  const int router = static_cast<int>(event.a & 0xffff);
  const int port = static_cast<int>((event.a >> 16) & 0xffff);
  const int row = static_cast<int>((event.a >> 32) & 0xffff);
  const bool local_row = ((event.a >> 48) & 1) != 0;
  const double sample = static_cast<double>(event.b);
  QTable& table = tables_[static_cast<std::size_t>(router)];
  if (local_row) {
    table.update_local(row, port, sample, params_.alpha);
  } else {
    table.update_global(row, port, sample, params_.alpha);
  }
  ++feedback_signals_;
}

}  // namespace dfly::routing
