#pragma once

#include <vector>

#include "sim/rng.hpp"
#include "topo/dragonfly.hpp"

namespace dfly {

/// A fully resolved router-level path (sequence of router ids, src first,
/// destination router last). Used by tests and by path-diversity analysis;
/// the routers themselves make hop-by-hop decisions at run time.
using RouterPath = std::vector<int>;

/// Static path helpers over a Dragonfly. All functions are pure with respect
/// to the topology; randomised variants draw from the caller's Rng so that
/// runs stay reproducible. Hop counts and path diversity come from a scan of
/// the gateway lists between the two groups. No simulation code queries the
/// oracle — routers decide hop by hop — so it serves tests and analysis.
class PathOracle {
 public:
  explicit PathOracle(const Dragonfly& topo) : topo_(&topo) {}

  /// Minimal path between two routers: <= 3 hops (local, global, local).
  /// When several gateway routers exist, `rng` picks among them uniformly;
  /// pass nullptr to always take the first gateway (deterministic).
  RouterPath minimal(int src_router, int dst_router, Rng* rng = nullptr) const;

  /// Valiant path through intermediate group `int_group` (must differ from
  /// both endpoint groups unless equal to one of them, in which case this
  /// degenerates to minimal). Visits `int_router` in the intermediate group
  /// when >= 0 (UGALn/PAR style), otherwise routes through the landing
  /// gateway only (UGALg style).
  RouterPath valiant(int src_router, int dst_router, int int_group,
                     int int_router = -1, Rng* rng = nullptr) const;

  /// Number of minimal router paths between two routers (path diversity).
  int count_minimal(int src_router, int dst_router) const;

  /// Hop count of the minimal path (0 if same router).
  int minimal_hops(int src_router, int dst_router) const;

 private:
  /// Append the minimal hops from `from` to `to` onto `path` (not including
  /// `from`, which must already be the last element).
  void append_minimal(RouterPath& path, int to, Rng* rng) const;

  const Dragonfly* topo_;
};

}  // namespace dfly
