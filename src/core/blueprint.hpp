#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mutex.hpp"

#include "mpi/job.hpp"
#include "net/config.hpp"
#include "net/fault.hpp"
#include "net/link.hpp"
#include "routing/q_adaptive.hpp"
#include "routing/q_table.hpp"
#include "routing/ugal.hpp"
#include "sim/time.hpp"
#include "stats/link_stats.hpp"
#include "topo/dragonfly.hpp"
#include "topo/path.hpp"
#include "topo/placement.hpp"

/// The immutable "plan" of a simulation cell.
///
/// Every paper figure sweeps many (config, seed) cells over the *same*
/// 1,056-node Dragonfly; historically each cell rebuilt identical topology,
/// wiring, path, placement and routing-parameter state from scratch, and that
/// per-cell constant was the reason the `--jobs` worker cap existed. A
/// SystemBlueprint factors the read-only half out: everything cells of the
/// same *shape* share — the Dragonfly wiring tables, the resolved per-port
/// wiring plan, precomputed minimal-path structures, the placement candidate
/// pool, NetConfig/protocol/QoS/fault plan, and the routing factory's static
/// parameterisation (including Q-adaptive's unloaded initial estimates) —
/// into one hash-keyed snapshot built once per unique shape and shared
/// across SubmissionQueue workers via shared_ptr.
///
/// Blueprints are deeply immutable after build(): nothing in this class
/// mutates during a run (const-enforced), so concurrent cells can read one
/// instance without synchronisation. Mutable per-cell state — router/NIC
/// buffers, packet pool, stats, Q-tables, UGAL queue reads, Rng streams —
/// stays in the cell (see core/arena.hpp for how *that* half is recycled).
///
/// Sharing is behaviour-preserving by construction: a blueprint's content is
/// a pure function of the shape, so output is byte-identical whether each
/// cell builds its own copy or many cells share one. A Study on a thread
/// with no cache bound builds a private copy; tests use that as the
/// reference for the shared path.
namespace dfly {

struct StudyConfig;

/// The shape of a cell: every StudyConfig field that determines blueprint
/// content. Seed, scale, observability and time limit are deliberately
/// absent — they parameterise the mutable per-cell state only.
struct BlueprintKey {
  DragonflyParams topo{};
  NetConfig net{};
  std::string routing;
  PlacementPolicy placement{PlacementPolicy::kRandom};
  mpi::ProtocolConfig protocol{};
  routing::UgalParams ugal{};
  routing::QAdaptiveParams qadp{};
  std::vector<LinkFault> faults;

  bool operator==(const BlueprintKey&) const = default;
  std::size_t hash() const;

  static BlueprintKey of(const StudyConfig& config);
};

/// One immutable, shareable system plan. Build with SystemBlueprint::build()
/// (or through a BlueprintCache); hold by shared_ptr<const SystemBlueprint>.
class SystemBlueprint {
 public:
  /// Resolved wiring of one router output port: the far end of the wire, its
  /// propagation latency and its statistics class. Terminal ports carry
  /// peer_router == -1 (the peer is the NIC of node node_id(router, port)).
  struct PortPlan {
    std::int32_t peer_router{-1};
    std::int16_t peer_port{-1};
    bool global{false};
    SimTime latency{0};
    LinkClass cls{LinkClass::kTerminal};
  };

  /// Build the full plan for one config shape. Pure: equal shapes produce
  /// blueprints with identical content.
  static std::shared_ptr<const SystemBlueprint> build(const StudyConfig& config);

  const BlueprintKey& key() const { return key_; }
  const Dragonfly& topo() const { return topo_; }
  const LinkMap& links() const { return links_; }
  const NetConfig& net() const { return key_.net; }
  const mpi::ProtocolConfig& protocol() const { return key_.protocol; }
  const FaultPlan& faults() const { return faults_; }
  const std::string& routing_name() const { return key_.routing; }
  const routing::UgalParams& ugal() const { return key_.ugal; }
  const routing::QAdaptiveParams& qadp() const { return key_.qadp; }

  /// Wiring plan entry for output `port` of `router`.
  const PortPlan& port(int router, int port) const {
    return ports_[static_cast<std::size_t>(router) * static_cast<std::size_t>(radix_) +
                  static_cast<std::size_t>(port)];
  }

  /// Precomputed minimal-path tables. Construct `PathOracle(topo(), &paths())`
  /// to answer hop-count/diversity queries off the tables; equivalence with
  /// the on-demand gateway scans is test-enforced (tests/topo/test_path.cpp).
  /// No simulation hot path queries the oracle today — routers decide hop by
  /// hop — so this exists for analysis/report consumers and costs ~1 ms per
  /// shape to build.
  const PathPlan& paths() const { return paths_; }

  /// The machine's full node enumeration in id order (Placer candidate pool).
  const std::vector<int>& placement_pool() const { return placement_pool_; }

  /// Shared unloaded initial Q-tables — non-null only when the shape's
  /// routing is "Q-adp" (pass to RoutingContext::qinit).
  const std::vector<QTable>* initial_qtables() const {
    return qinit_.empty() ? nullptr : &qinit_;
  }

  /// Wall-clock spent constructing this blueprint (bench_memory reports it).
  double build_ms() const { return build_ms_; }

  /// Rough resident footprint of the shared tables, for bench reporting.
  std::size_t footprint_bytes() const;

 private:
  explicit SystemBlueprint(BlueprintKey key);

  BlueprintKey key_;
  Dragonfly topo_;
  LinkMap links_;
  int radix_;
  FaultPlan faults_;
  std::vector<PortPlan> ports_;
  PathPlan paths_;
  std::vector<int> placement_pool_;
  std::vector<QTable> qinit_;
  double build_ms_{0};
};

/// Concurrent blueprint cache: one instance is shared by every worker of a
/// SubmissionQueue, so all cells of the same shape get the same
/// shared_ptr. get_or_build holds the lock across a build — the common race
/// is every worker asking for the *same* first shape, and blocking the
/// others is exactly what prevents duplicate builds.
class BlueprintCache {
 public:
  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    double build_ms_total{0};
  };

  BlueprintCache() = default;
  BlueprintCache(const BlueprintCache&) = delete;
  BlueprintCache& operator=(const BlueprintCache&) = delete;

  std::shared_ptr<const SystemBlueprint> get_or_build(const StudyConfig& config);

  Stats stats() const;
  std::size_t size() const;

  /// The cache bound to the calling thread (nullptr when none is bound or
  /// blueprint sharing is globally disabled at bind time). SubmissionQueue
  /// binds one cache across all its workers; Study picks it up automatically.
  static BlueprintCache* current();

 private:
  mutable Mutex mutex_;
  // hash -> entries with that hash (collisions resolved by key equality).
  // Workers race get_or_build on the same shapes, so both the table and the
  // stats are provably lock-protected (see core/thread_annotations.hpp).
  std::unordered_map<std::size_t, std::vector<std::shared_ptr<const SystemBlueprint>>> by_hash_
      GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);
};

/// RAII binding of a cache to the calling thread (see BlueprintCache::
/// current()). Restores the previous binding on destruction, so bindings
/// nest. Binding nullptr is a no-op placeholder (keeps call sites branchless).
class ScopedBlueprintCacheBinding {
 public:
  explicit ScopedBlueprintCacheBinding(BlueprintCache* cache);
  ~ScopedBlueprintCacheBinding();
  ScopedBlueprintCacheBinding(const ScopedBlueprintCacheBinding&) = delete;
  ScopedBlueprintCacheBinding& operator=(const ScopedBlueprintCacheBinding&) = delete;

 private:
  BlueprintCache* previous_;
};

}  // namespace dfly
