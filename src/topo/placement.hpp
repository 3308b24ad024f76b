#pragma once

#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {

/// Job placement policies studied in the interference literature.
/// The paper uses random placement throughout (§V); contiguous and linear are
/// provided for the placement-ablation benches.
enum class PlacementPolicy {
  kRandom,      ///< uniformly random free nodes (paper default)
  kContiguous,  ///< pack jobs group by group (isolation, fragmentation-prone)
  kLinear,      ///< first free nodes in id order
};

const char* to_string(PlacementPolicy policy);
PlacementPolicy placement_from_string(const std::string& name);
/// Every policy name placement_from_string accepts, in enum order (the
/// single source for --list-placements and plan-axis validation).
const std::vector<std::string>& all_placements();

/// Allocates nodes to jobs one request at a time over a fixed machine.
/// Deterministic given the Rng state. Each allocation draws from the free
/// node ids in id order, found by one scan of the used-node bitmap.
class Placer {
 public:
  Placer(const Dragonfly& topo, PlacementPolicy policy, Rng rng);

  /// Allocate `count` nodes; returns the node ids in rank order.
  /// Throws std::runtime_error when not enough nodes are free.
  std::vector<int> allocate(int count);

  /// Release previously allocated nodes.
  void release(const std::vector<int>& nodes);

  int free_nodes() const { return free_count_; }

 private:
  const Dragonfly* topo_;
  PlacementPolicy policy_;
  Rng rng_;
  std::vector<bool> used_;
  int free_count_;
};

}  // namespace dfly
