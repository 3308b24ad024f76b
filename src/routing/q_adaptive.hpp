#pragma once

#include <memory>
#include <vector>

#include "net/config.hpp"
#include "net/routing_iface.hpp"
#include "routing/q_table.hpp"
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

/// The unloaded initial Q-table estimates depend only on topology and
/// NetConfig, so they are precomputed once per system shape (SystemBlueprint
/// shares one copy across every cell) and copied into each QAdaptiveRouting
/// instance's mutable tables.
std::vector<QTable> build_initial_qtables(const Dragonfly& topo, const NetConfig& cfg);

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
/// Const/mutable split: `params_` and the blueprint-shared initial estimates
/// are immutable configuration; `tables_` (and the Rng / feedback counters)
/// are the per-cell learning state that trains during the run.
class QAdaptiveRouting final : public RoutingAlgorithm, public Component {
 public:
  /// `initial` (optional) is a blueprint-shared precomputed initial-table
  /// set; pass nullptr to compute the unloaded estimates locally. The
  /// resulting tables are identical either way.
  QAdaptiveRouting(Engine& engine, const Dragonfly& topo, const NetConfig& cfg,
                   QAdaptiveParams params, std::uint64_t seed,
                   const std::vector<QTable>* initial = nullptr);

  std::string name() const override { return "Q-adp"; }
  RouteDecision route(Router& router, Packet& pkt) override;
  void on_arrival(Router& router, Packet& pkt) override;

  void handle(Engine& engine, const Event& event) override;

  const QTable& table(int router) const { return tables_[static_cast<std::size_t>(router)]; }
  const QAdaptiveParams& params() const { return params_; }
  std::uint64_t feedback_signals() const { return feedback_signals_; }

 private:
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
  // Mutable per-cell learning state.
  Engine* engine_;
  Rng rng_;
  std::vector<QTable> tables_;
  mutable std::vector<int> scratch_;
  std::uint64_t feedback_signals_{0};
};

}  // namespace dfly::routing
