#pragma once

#include "sim/time.hpp"

/// End-to-end congestion control (ECN marking + source throttling).
///
/// The paper's related work (§II-C) cites congestion control as the heavier
/// alternative to routing-based interference mitigation: "when congestion
/// happens, the message generation rate is throttled to drain the network"
/// (De Sensi et al. SC'20 on Slingshot; McGlohon et al. PMBS'21 through
/// simulation). This module implements that mechanism so benches can compare
/// throttling against adaptive/Q-adaptive routing on identical workloads:
///
///  - routers mark packets (ECN) when the chosen output port's occupancy —
///    queued packets plus downstream slots in flight — exceeds a threshold;
///  - the destination NIC reflects each mark back to the source as a small
///    congestion notification after an unloaded-path return delay (the
///    notification itself is modelled as contention-free, like dedicated
///    control-plane bandwidth);
///  - the source NIC paces injection at `rate x link speed`, applying
///    multiplicative decrease per notification and additive increase on a
///    timer (AIMD), with a floor so flows never fully stall.
namespace dfly {

struct CongestionControlConfig {
  bool enabled{false};
  /// Mark when the output port's occupancy (packets queued here + credits
  /// in flight downstream) is at least this many packets. The default sits
  /// at 2/3 of the 30-packet paper buffer.
  int ecn_threshold_packets{20};
  /// Multiplicative decrease applied per received notification.
  double md_factor{0.5};
  /// Additive increase step applied every `ai_period` while throttled.
  double ai_step{0.05};
  SimTime ai_period{5 * kUs};
  /// Injection-rate floor (fraction of link rate).
  double min_rate{0.05};
  /// Ignore further notifications for this long after a decrease, so one
  /// congestion episode does not trigger a cascade of cuts (per-source
  /// reaction time, like RoCE CNP coalescing).
  SimTime decrease_guard{2 * kUs};

  /// Equality (part of the SystemBlueprint cache key).
  bool operator==(const CongestionControlConfig&) const = default;
};

}  // namespace dfly
