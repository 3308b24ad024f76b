#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/config.hpp"
#include "net/routing_iface.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "topo/dragonfly.hpp"

namespace dfly::routing {

/// Q-adaptive hyperparameters (defaults follow the HPDC'21 setup in spirit:
/// moderate learning rate, small exploration, queue-aware tie-breaking).
struct QAdaptiveParams {
  double alpha{0.2};        ///< learning rate
  double epsilon{0.01};     ///< exploration probability per decision
  double queue_weight{1.0}; ///< weight of the instantaneous local queue penalty

  /// Equality (config round-trip tests).
  bool operator==(const QAdaptiveParams&) const = default;
};

/// Q-adaptive routing: multi-agent reinforcement-learning routing where each
/// router keeps a two-level Q-table of estimated delivery times and forwards
/// packets along the minimum-estimate admissible port.
///
/// Learning loop (paper Fig 2): (1) router x receives a packet, (2) reads
/// its table and forwards it, (3) the downstream router y receives it and
/// (4) sends back, one reverse-wire latency later, a feedback signal with
/// the measured one-hop delay plus y's own best remaining estimate; x folds
/// it into Q_x via an exponential moving average. Tables are initialised
/// with unloaded topology estimates and train online during the run — no
/// pre-trained state, matching §V's fairness constraint.
///
/// Admissible candidate ports follow the same constrained path DFA as the
/// adaptive policies (at most one intermediate group), so Q-adaptive is
/// loop-free by construction and differs from UGAL/PAR only in *what
/// information* drives the choice: learned system-wide congestion instead of
/// local queue depth.
///
/// Q-tables (Kang, Wang, Lan — HPDC'21): each router holds a two-level
/// table of remaining-delivery-time estimates (ps) per output port. Level 1
/// ("to group") has one row per destination group; level 2 ("in group") one
/// row per local index of the router's own group. All routers' tables live
/// in one flat per-cell array, `[router][g group rows, then a local rows]
/// [router ports]`, so a router's rows are one base-pointer computation away.
/// A row has no column for the p terminal ports, which no packet ever leaves
/// through on its way to another router.
/// The constructor fills it with the unloaded estimates in closed form from
/// the topology and NetConfig alone: nothing is shared between cells.
///
/// Const/mutable split: `params_` is immutable configuration; `tables_`
/// (and the Rng / feedback counters) are the per-cell learning state that
/// trains during the run.
class QAdaptiveRouting final : public RoutingAlgorithm, public Component {
 public:
  QAdaptiveRouting(Engine& engine, const Dragonfly& topo, const NetConfig& cfg,
                   QAdaptiveParams params, std::uint64_t seed);

  std::string name() const override { return "Q-adp"; }
  RouteDecision route(Router& router, Packet& pkt) override;
  void on_arrival(Router& router, Packet& pkt) override;

  void handle(Engine& engine, const Event& event) override;

  /// Router `router`'s estimate for leaving through `port` toward any node
  /// of group `dest_group`.
  double global_q(int router, int dest_group, int port) const {
    assert(!topo_->is_terminal_port(port));
    return tables_[entry(router, dest_group, port)];
  }
  /// Router `router`'s estimate for leaving through `port` toward the router
  /// with local index `dest_local` in its own group.
  double local_q(int router, int dest_local, int port) const {
    assert(!topo_->is_terminal_port(port));
    return tables_[entry(router, num_groups_ + dest_local, port)];
  }

  /// Folds one feedback sample into `router`'s estimate for `port` in `row`
  /// (a group row below g, else local row `row - g`) by the exponential
  /// moving average Q += alpha * (sample - Q). Returns the new estimate.
  double learn(int router, int row, int port, double sample);

  /// Bytes of every router's Q-table (the paper stresses they are light).
  std::size_t footprint_bytes() const { return tables_.size() * sizeof(double); }
  const QAdaptiveParams& params() const { return params_; }
  std::uint64_t feedback_signals() const { return feedback_signals_; }

 private:
  /// Index in `tables_` of `router`'s estimate for router port `port` in
  /// `row`.
  std::size_t entry(int router, int row, int port) const {
    return static_cast<std::size_t>(router) * router_stride_ +
           static_cast<std::size_t>(row) * row_width_ +
           static_cast<std::size_t>(port - first_port_);
  }

  /// The row a router of group `my_group` reads toward `dst_router` (of group
  /// `dst_group`): its local row inside the group, else the group's row.
  int row_toward(int my_group, int dst_group, int dst_router) const {
    return my_group == dst_group ? num_groups_ + topo_->local_index(dst_router) : dst_group;
  }

  /// Best remaining-time estimate from `router` for a packet heading to
  /// destination router `dst` (phase-aware candidate set).
  double best_estimate(int router_id, int dst_router, const Packet& pkt) const;

  /// Admissible candidate ports for `pkt` at `router`, each listed once.
  void candidates(Router& router, const Packet& pkt, std::vector<int>& out) const;

  /// Calls `visit(port)` for each port the packet's route phase admits at
  /// `router_id`, a router outside the destination group `dst_group`.
  template <typename Visit>
  void for_each_admissible(int router_id, int dst_group, const Packet& pkt, Visit&& visit) const;

  // Immutable parameterisation (shared-plan side of the const/mutable split).
  const Dragonfly* topo_;
  const NetConfig* cfg_;
  const QAdaptiveParams params_;
  const int num_groups_;
  const int first_port_;             ///< the first router port, p
  const std::size_t row_width_;      ///< router ports per row, radix - p
  const std::size_t router_stride_;  ///< (g + a) * row_width_ entries per router
  // Mutable per-cell learning state.
  Engine* engine_;
  Rng rng_;
  std::vector<double> tables_;
  mutable std::vector<int> scratch_;
  std::uint64_t feedback_signals_{0};
};

}  // namespace dfly::routing
