#pragma once

#include <cstdint>
#include <vector>

/// Quality-of-service traffic classes.
///
/// The paper's related work (§II-C) discusses QoS as the main alternative to
/// routing for interference mitigation: "separating traffic flows of
/// different applications or communication types into isolated channels"
/// (Brown et al. ISC'21, Mubarak et al. ISC'19, Wilke & Kenny CLUSTER'20).
/// This module implements that mechanism so the benches can compare
/// QoS-based isolation against routing-based mitigation on the same
/// workload mixes:
///
///  - every application is assigned a traffic class;
///  - router output ports arbitrate between classes with deficit-weighted
///    round-robin (DWRR), so class i receives bandwidth proportional to
///    weight[i] whenever it has demand, independent of other classes' load;
///  - within a class, requests keep the base FIFO order.
///
/// Classes share virtual channels (VC index stays the deadlock-avoidance
/// hop ladder); isolation is in *bandwidth*, not buffer space — this models
/// weighted traffic shaping as deployed on Slingshot rather than fully
/// partitioned per-class buffers.
namespace dfly {

/// QoS knobs, carried inside NetConfig. num_classes == 1 disables QoS and
/// keeps the base FIFO arbitration byte-for-byte.
struct QosConfig {
  int num_classes{1};
  /// Relative bandwidth weight per class; missing entries default to 1.
  std::vector<int> weights{};
  /// DWRR quantum granted per replenish round, in packets per weight unit.
  int quantum_packets{1};

  bool enabled() const { return num_classes > 1; }

  int weight_of(int cls) const {
    if (cls < 0 || cls >= static_cast<int>(weights.size())) return 1;
    const int w = weights[static_cast<std::size_t>(cls)];
    return w < 1 ? 1 : w;
  }

  /// Equality (part of the SystemBlueprint cache key).
  bool operator==(const QosConfig&) const = default;
};

/// Application -> traffic class assignment, shared by all NICs of one
/// network. Unassigned applications ride in class 0.
class TrafficClassMap {
 public:
  explicit TrafficClassMap(int num_apps)
      : class_of_app_(static_cast<std::size_t>(num_apps < 1 ? 1 : num_apps), 0) {}

  void assign(int app_id, int traffic_class) {
    if (app_id < 0) return;
    if (app_id >= static_cast<int>(class_of_app_.size())) {
      class_of_app_.resize(static_cast<std::size_t>(app_id) + 1, 0);
    }
    class_of_app_[static_cast<std::size_t>(app_id)] =
        static_cast<std::uint8_t>(traffic_class < 0 ? 0 : traffic_class);
  }

  std::uint8_t klass(int app_id) const {
    if (app_id < 0 || app_id >= static_cast<int>(class_of_app_.size())) return 0;
    return class_of_app_[static_cast<std::size_t>(app_id)];
  }

  int num_apps() const { return static_cast<int>(class_of_app_.size()); }

 private:
  std::vector<std::uint8_t> class_of_app_;
};

}  // namespace dfly
