#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mutex.hpp"

#include "net/config.hpp"
#include "net/link.hpp"
#include "sim/time.hpp"
#include "stats/link_stats.hpp"
#include "topo/dragonfly.hpp"

/// The immutable "plan" of a simulation cell.
///
/// Every paper figure sweeps many (config, seed) cells over the *same*
/// 1,056-node Dragonfly, and each cell needs the same read-only tables. A
/// SystemBlueprint builds them once per machine: the Dragonfly wiring
/// tables, the link classes and latencies, the resolved per-port wiring
/// plan and the NetConfig. It holds nothing routing-specific, so every
/// routing on one machine shares one blueprint (Q-adp fills its initial
/// Q-tables per cell, in closed form). SubmissionQueue workers share one
/// through a BlueprintCache, via shared_ptr. Routing, placement, MPI
/// protocol, UGAL and Q-adp parameters and link faults are per-cell
/// StudyConfig fields; the Study reads them from its config, never from the
/// blueprint.
///
/// Blueprints are deeply immutable after build(): nothing in this class
/// mutates during a run (const-enforced), so concurrent cells can read one
/// instance without synchronisation. Mutable per-cell state — router/NIC
/// buffers, packet pool, stats, Q-tables, UGAL queue reads, Rng streams —
/// stays in the cell (see core/arena.hpp for how *that* half is recycled).
///
/// Sharing is behaviour-preserving by construction: the content is built
/// from the BlueprintKey alone (the private build takes nothing else), so
/// output is byte-identical whether each cell builds its own copy or many
/// cells share one. A Study on a thread with no cache bound builds a private
/// copy; tests use that as the reference for the shared path.
namespace dfly {

struct StudyConfig;

/// Everything SystemBlueprint's build reads: the machine and its net config.
struct BlueprintKey {
  DragonflyParams topo{};
  NetConfig net{};

  bool operator==(const BlueprintKey&) const = default;

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

  /// Build the plan for `config`'s key (BlueprintKey::of). Pure: configs
  /// with equal keys produce blueprints with identical content.
  static std::shared_ptr<const SystemBlueprint> build(const StudyConfig& config);

  const BlueprintKey& key() const { return key_; }
  const Dragonfly& topo() const { return topo_; }
  const LinkMap& links() const { return links_; }
  const NetConfig& net() const { return key_.net; }

  /// Wiring plan entry for output `port` of `router`.
  const PortPlan& port(int router, int port) const {
    return ports_[static_cast<std::size_t>(router) * static_cast<std::size_t>(radix_) +
                  static_cast<std::size_t>(port)];
  }

  /// Wall-clock spent constructing this blueprint (bench_memory reports it).
  double build_ms() const { return build_ms_; }

  /// Rough resident footprint of the shared tables, for bench reporting.
  std::size_t footprint_bytes() const;

 private:
  friend class BlueprintCache;

  explicit SystemBlueprint(BlueprintKey key);
  /// The build proper: it reads nothing but `key`.
  static std::shared_ptr<const SystemBlueprint> build(BlueprintKey key);

  BlueprintKey key_;
  Dragonfly topo_;
  LinkMap links_;
  int radix_;
  std::vector<PortPlan> ports_;
  double build_ms_{0};
};

/// Concurrent blueprint cache: one instance is shared by every worker of a
/// SubmissionQueue, so all cells with the same key get the same
/// shared_ptr. get_or_build holds the lock across a build — the common race
/// is every worker asking for the *same* first key, and blocking the
/// others is exactly what prevents duplicate builds. A campaign holds a
/// handful of keys, so lookup is a linear scan comparing keys.
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

  /// The cache bound to the calling thread (nullptr when none is bound).
  /// SubmissionQueue binds one cache across all its workers; Study picks it
  /// up automatically.
  static BlueprintCache* current();

 private:
  mutable Mutex mutex_;
  // Workers race get_or_build on the same keys, so both the entries and the
  // stats are provably lock-protected (see core/thread_annotations.hpp).
  std::vector<std::shared_ptr<const SystemBlueprint>> entries_ GUARDED_BY(mutex_);
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
