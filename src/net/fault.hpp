#pragma once

#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {

/// One degraded directed link: the wire behind output `port` of `router`
/// serialises packets `slowdown` times slower and adds `extra_latency` of
/// propagation delay. Models production link faults (Slingshot links retrain
/// to a lower lane count after errors) rather than hard cuts: connectivity is
/// preserved, so every routing policy still has a legal path and the study
/// measures how well each policy *steers around* the fault.
struct LinkFault {
  int router{-1};
  int port{-1};
  int slowdown{1};
  SimTime extra_latency{0};

  /// Equality (config round-trip tests).
  bool operator==(const LinkFault&) const = default;
};

/// A set of link faults applied to a Network after construction.
class FaultPlan {
 public:
  FaultPlan() = default;

  void add(LinkFault fault) { faults_.push_back(fault); }
  void merge(const FaultPlan& other);

  bool empty() const { return faults_.empty(); }
  std::size_t size() const { return faults_.size(); }
  const std::vector<LinkFault>& faults() const { return faults_; }

  /// Equality (config round-trip tests).
  bool operator==(const FaultPlan&) const = default;

  /// Degrade every global link between `group_a` and `group_b`, in both
  /// directions (the common field failure: one cable, two directions).
  static FaultPlan degrade_global(const Dragonfly& topo, int group_a, int group_b,
                                  int slowdown, SimTime extra_latency = 0);

  /// Degrade a uniformly random `fraction` of the system's global links
  /// (each direction drawn independently). Deterministic for a given seed.
  static FaultPlan degrade_random_globals(const Dragonfly& topo, double fraction,
                                          int slowdown, SimTime extra_latency,
                                          std::uint64_t seed);

  /// Degrade every local link of router `router` (a failing switch ASIC:
  /// its intra-group connectivity survives but at reduced speed).
  static FaultPlan degrade_router_locals(const Dragonfly& topo, int router,
                                         int slowdown, SimTime extra_latency = 0);

 private:
  std::vector<LinkFault> faults_;
};

/// Parse a fault-plan spec: comma-separated `router:port:slowdown[:extra_ns]`
/// entries, e.g. "12:11:8" or "0:14:4:500,8:12:4:500". Throws
/// std::invalid_argument on malformed entries or non-positive slowdowns.
FaultPlan parse_fault_plan(const std::string& spec);

}  // namespace dfly
