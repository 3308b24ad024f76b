#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dfly {

/// How a group's a*h global-link slots map onto destination groups
/// (Hastings et al., "Comparing global link arrangements for Dragonfly
/// networks", CLUSTER'15). Both arrangements give every group pair the same
/// number of links; they differ in *which router* inside each group holds
/// the link to a given peer group, which shifts local-link load under
/// adversarial traffic.
enum class GlobalArrangement {
  kRelative,  ///< slot s of group G reaches group (G + 1 + s mod (g-1)) mod g
  kAbsolute,  ///< slot s of group G reaches group s' (= s mod (g-1), skipping G)
};

const char* to_string(GlobalArrangement arrangement);
GlobalArrangement arrangement_from_string(const std::string& name);

/// Canonical Dragonfly parameters (Kim et al., ISCA'08 notation):
///   p = compute nodes per router
///   a = routers per group (fully connected by local links)
///   h = global links per router
///   g = number of groups (fully connected by global links)
///
/// The paper's system is p=4, a=8, h=4, g=33: 1,056 nodes, 264 routers,
/// 32 global links per group (exactly one per group pair since g = a*h + 1).
struct DragonflyParams {
  int p{4};
  int a{8};
  int h{4};
  int g{33};
  GlobalArrangement arrangement{GlobalArrangement::kRelative};

  int routers_per_group() const { return a; }
  int num_groups() const { return g; }
  int num_routers() const { return a * g; }
  int num_nodes() const { return p * a * g; }
  int radix() const { return p + (a - 1) + h; }  ///< ports per router

  /// The paper's 1,056-node system.
  static DragonflyParams paper() { return DragonflyParams{4, 8, 4, 33}; }
  /// A small 72-node system (g=9,a=4,h=2,p=2) for tests.
  static DragonflyParams tiny() { return DragonflyParams{2, 4, 2, 9}; }

  /// Equality (part of the SystemBlueprint cache key).
  bool operator==(const DragonflyParams&) const = default;
};

/// One endpoint of a global link: a router and its global-port index.
struct GlobalEndpoint {
  int router{-1};
  int global_port{-1};  ///< in [0, h)
};

/// Dragonfly wiring: id arithmetic for nodes/routers/groups and the global
/// link arrangement ("relative" arrangement: group G's global slot s connects
/// to group (G + 1 + s mod (g-1)) % g). Requires a*h to be a multiple of
/// (g-1) so that every group pair gets the same number of links.
///
/// Port layout per router (radix = p + a-1 + h):
///   [0, p)              terminal ports (one per attached node)
///   [p, p + a-1)        local ports (to every other router in the group)
///   [p + a-1, radix)    global ports
class Dragonfly {
 public:
  explicit Dragonfly(DragonflyParams params);

  const DragonflyParams& params() const { return params_; }
  int num_nodes() const { return params_.num_nodes(); }
  int num_routers() const { return params_.num_routers(); }
  int num_groups() const { return params_.g; }
  int radix() const { return params_.radix(); }
  int links_per_group_pair() const { return links_per_pair_; }

  // --- id arithmetic -------------------------------------------------------
  int group_of_router(int router) const { return router / params_.a; }
  int local_index(int router) const { return router % params_.a; }
  int router_id(int group, int local_idx) const { return group * params_.a + local_idx; }
  int router_of_node(int node) const { return node / params_.p; }
  int group_of_node(int node) const { return group_of_router(router_of_node(node)); }
  int node_id(int router, int terminal) const { return router * params_.p + terminal; }
  int terminal_port_of_node(int node) const { return node % params_.p; }

  // --- port classification -------------------------------------------------
  bool is_terminal_port(int port) const { return port < params_.p; }
  bool is_local_port(int port) const { return port >= params_.p && port < params_.p + params_.a - 1; }
  bool is_global_port(int port) const { return port >= params_.p + params_.a - 1; }
  int first_local_port() const { return params_.p; }
  int first_global_port() const { return params_.p + params_.a - 1; }

  /// Local port on `router` that reaches the router with local index
  /// `peer_local` in the same group. Precondition: peer_local != local_index.
  int local_port_to(int router, int peer_local) const;
  /// Local index reached through local port `port` of `router`.
  int local_peer_of_port(int router, int port) const;

  /// Global port k of `router` as a port number.
  int global_port(int k) const { return first_global_port() + k; }

  // --- global wiring -------------------------------------------------------
  /// The far end of global link (router, global-port k).
  GlobalEndpoint global_peer(int router, int k) const;
  /// Destination group of global port k of `router`.
  int group_reached_by(int router, int k) const;
  /// All global-link endpoints in `src_group` that lead to `dst_group`.
  const std::vector<GlobalEndpoint>& gateways(int src_group, int dst_group) const;

  /// Generic neighbor resolution: for a non-terminal `port` of `router`,
  /// the (router, port) on the other side of the wire.
  struct Wire {
    int peer_router{-1};
    int peer_port{-1};
    bool global{false};
  };
  Wire wire(int router, int port) const;

 private:
  DragonflyParams params_;
  int links_per_pair_{0};
  // gateways_[src_group * g + dst_group] = endpoints in src_group toward dst.
  std::vector<std::vector<GlobalEndpoint>> gateways_;
  std::vector<GlobalEndpoint> empty_;
};

}  // namespace dfly
