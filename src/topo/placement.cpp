#include "topo/placement.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace dfly {

const char* to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRandom: return "random";
    case PlacementPolicy::kContiguous: return "contiguous";
    case PlacementPolicy::kLinear: return "linear";
  }
  return "?";
}

PlacementPolicy placement_from_string(const std::string& name) {
  if (name == "random") return PlacementPolicy::kRandom;
  if (name == "contiguous") return PlacementPolicy::kContiguous;
  if (name == "linear") return PlacementPolicy::kLinear;
  throw std::invalid_argument("unknown placement policy: " + name);
}

const std::vector<std::string>& all_placements() {
  static const std::vector<std::string> names{"random", "contiguous", "linear"};
  return names;
}

Placer::Placer(const Dragonfly& topo, PlacementPolicy policy, Rng rng)
    : topo_(&topo),
      policy_(policy),
      rng_(rng),
      used_(static_cast<std::size_t>(topo.num_nodes()), false),
      free_count_(topo.num_nodes()) {}

std::vector<int> Placer::allocate(int count) {
  if (count > free_count_) {
    throw std::runtime_error("Placer: not enough free nodes");
  }
  std::vector<int> free_ids;
  free_ids.reserve(static_cast<std::size_t>(free_count_));
  for (int n = 0; n < topo_->num_nodes(); ++n) {
    if (!used_[static_cast<std::size_t>(n)]) free_ids.push_back(n);
  }

  std::vector<int> chosen;
  chosen.reserve(static_cast<std::size_t>(count));
  switch (policy_) {
    case PlacementPolicy::kLinear:
    case PlacementPolicy::kContiguous:
      // Node ids already enumerate group-by-group, router-by-router, so the
      // first free ids are the most contiguous choice available.
      chosen.assign(free_ids.begin(), free_ids.begin() + count);
      break;
    case PlacementPolicy::kRandom: {
      // Partial Fisher-Yates over the free list.
      for (int i = 0; i < count; ++i) {
        const auto j = i + static_cast<int>(rng_.next_below(free_ids.size() - static_cast<std::size_t>(i)));
        std::swap(free_ids[static_cast<std::size_t>(i)], free_ids[static_cast<std::size_t>(j)]);
        chosen.push_back(free_ids[static_cast<std::size_t>(i)]);
      }
      break;
    }
  }
  for (int n : chosen) {
    used_[static_cast<std::size_t>(n)] = true;
  }
  free_count_ -= count;
  return chosen;
}

void Placer::release(const std::vector<int>& nodes) {
  for (int n : nodes) {
    if (!used_[static_cast<std::size_t>(n)]) {
      throw std::runtime_error("Placer: releasing a node that is not allocated");
    }
    used_[static_cast<std::size_t>(n)] = false;
  }
  free_count_ += static_cast<int>(nodes.size());
}

}  // namespace dfly
