#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/blueprint.hpp"
#include "mpi/job.hpp"
#include "net/network.hpp"
#include "routing/factory.hpp"
#include "sim/engine.hpp"
#include "topo/dragonfly.hpp"
#include "topo/placement.hpp"
#include "trace/trace.hpp"

namespace dfly {

class SimArena;

/// Everything that defines one simulation run (paper §III configuration).
struct StudyConfig {
  DragonflyParams topo{DragonflyParams::paper()};
  NetConfig net{};
  std::string routing{"PAR"};
  PlacementPolicy placement{PlacementPolicy::kRandom};
  std::uint64_t seed{42};
  /// Iteration-count divisor applied to workloads built via add_app.
  int scale{1};
  mpi::ProtocolConfig protocol{};
  NetworkObservability observability{};
  routing::UgalParams ugal{};
  routing::QAdaptiveParams qadp{};
  /// Link faults applied to the network before any traffic starts
  /// (degraded serialisation / extra propagation latency per wire).
  FaultPlan faults{};
  /// Hard stop for the simulation clock (guards against motif deadlocks).
  SimTime time_limit{2 * kSec};
  /// Cooperative wall-clock watchdog for run(): > 0 arms an Engine deadline
  /// of this many real seconds, after which the run is abandoned with
  /// WallDeadlineExceeded (see sim/engine.hpp). 0 = no watchdog. Campaign
  /// plans set this per cell via plan.cell_timeout_s (core/plan.hpp) so a
  /// hung cell is recorded as a timeout instead of stalling the campaign.
  /// Like seed/scale/time_limit, this never affects the blueprint.
  double wall_limit_s{0};
};

/// Per-application results of a finished run.
struct AppReport {
  std::string app;
  int app_id{0};
  int nodes{0};
  // Application-level metrics (§V).
  double comm_mean_ms{0};  ///< mean per-rank communication time
  double comm_std_ms{0};   ///< σ across ranks (Fig 4 whiskers)
  double comm_max_ms{0};
  double exec_ms{0};
  double total_msg_mb{0};
  double injection_rate_gbs{0};
  double peak_ingress_bytes{0};
  // Network-level metrics (§V-B, §VI).
  double lat_mean_us{0};
  double lat_p50_us{0};
  double lat_p95_us{0};
  double lat_p99_us{0};
  std::uint64_t packets{0};
  double nonminimal_fraction{0};
  double mean_hops{0};
};

/// Whole-run results.
struct Report {
  std::string routing;
  bool completed{false};  ///< all ranks of all jobs finished
  SimTime makespan{0};
  std::vector<AppReport> apps;
  // System-wide metrics (Fig 11-13).
  double sys_lat_mean_us{0};
  double sys_lat_p50_us{0};
  double sys_lat_p95_us{0};
  double sys_lat_p99_us{0};
  double agg_throughput_gb_per_ms{0};
  double local_stall_ms{0};   ///< mean per-group local-link stall
  double global_stall_ms{0};  ///< mean per-global-link stall
  double congestion_mean{0};
  double congestion_max{0};
  double congestion_imbalance{0};
  /// Jain's fairness index over per-app achieved injection rates (GB/s):
  /// (sum x)^2 / (n sum x^2). 1 = every app injects at the same rate, 1/n =
  /// one app monopolises the network. Apps have intrinsically different
  /// demands (Table I), so compare this *across routings on the same mix*
  /// rather than against 1.0. 0 when fewer than two apps moved traffic.
  double jain_fairness{0};
  std::uint64_t events_executed{0};

  const AppReport& app(const std::string& name) const;
};

/// One experiment: builds the system, places jobs, runs them concurrently,
/// and summarises application- and network-level metrics. This is the
/// paper's contribution surface: everything in §V/§VI is a Study with a
/// particular job mix.
///
/// A Study is one simulation cell: it owns its Engine, Network, PacketPool,
/// stats and every Rng stream, and touches no mutable globals. Whole
/// Studies therefore run concurrently on SubmissionQueue workers (one Study
/// per worker at a time); a single Study is not itself thread-safe.
///
/// Storage reuse: when a SimArena is bound to the calling thread (or passed
/// explicitly) and not already held by another Study, this Study borrows the
/// arena's carried storage — router/NIC buffers, ranks, packet pool, stats
/// blocks — and returns it on destruction, so a worker's
/// second-and-later cells re-initialise in place instead of re-growing from
/// empty. Reuse never changes simulation output (see core/arena.hpp).
///
/// Plan sharing: the immutable half of the cell — topology, link and
/// per-port wiring tables, net config and, for Q-adp, the initial Q-tables —
/// lives in a SystemBlueprint (core/blueprint.hpp), keyed by topology, net
/// config and whether Q-tables are needed. Routing, placement, protocol,
/// UGAL/Q-adp parameters and faults are read from the Study's own config.
/// The Study resolves the blueprint in this order: an explicit `blueprint`
/// argument (its key must match the config's), the thread-bound
/// BlueprintCache (SubmissionQueue binds one across all workers, so cells
/// with the same key share one snapshot), else a private build. Sharing
/// never changes simulation output.
class Study {
 public:
  /// `arena` overrides the thread-bound SimArena::current(); pass nullptr to
  /// use the thread binding (the normal sweep path). Reuse is skipped when
  /// no arena is passed or bound, or the arena is already held. `blueprint`
  /// overrides cache resolution; it must have been built from a config with
  /// the same BlueprintKey (throws std::invalid_argument otherwise).
  explicit Study(StudyConfig config, SimArena* arena = nullptr,
                 std::shared_ptr<const SystemBlueprint> blueprint = nullptr);
  ~Study();

  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  /// Add one of the nine paper applications, sized to `max_nodes` (or all
  /// remaining free nodes when max_nodes == 0). Returns the app id.
  int add_app(const std::string& name, int max_nodes = 0);

  /// Add a custom motif on exactly `nodes` nodes. The Study keeps ownership.
  int add_motif(std::unique_ptr<mpi::Motif> motif, int nodes, const std::string& label);

  /// Assign an application to a QoS traffic class (call before run();
  /// NetConfig::qos.num_classes must be > 1 for classes to take effect).
  void set_traffic_class(int app_id, int traffic_class);

  /// Record every application-level send of `app_id` into a MessageTrace
  /// (call before run(); retrieve with trace() afterwards).
  void record_trace(int app_id);
  /// The recorded trace of `app_id` (throws if recording was not enabled).
  const trace::MessageTrace& trace(int app_id) const;

  /// Run every job to completion (all jobs start at t = 0).
  Report run();

  // --- raw access for benches/tests -----------------------------------------
  Engine& engine() { return engine_; }
  Network& network() { return *network_; }
  const Dragonfly& topo() const { return blueprint_->topo(); }
  /// The immutable plan this cell runs against (possibly shared).
  const std::shared_ptr<const SystemBlueprint>& blueprint() const { return blueprint_; }
  mpi::Job& job(int app_id) { return *jobs_[static_cast<std::size_t>(app_id)]; }
  int num_jobs() const { return static_cast<int>(jobs_.size()); }
  const StudyConfig& config() const { return config_; }
  int free_nodes() const { return placer_.free_nodes(); }
  RoutingAlgorithm& routing() { return *routing_; }
  /// The arena this Study borrowed storage from (null = building fresh).
  SimArena* arena() const { return arena_; }

  /// Build the report for the current state (run() calls this at the end).
  Report report() const;

  /// Dump the run's observability data through the coalescing CSV writer
  /// (the paper's §III IO module): `<prefix>_apps.csv` (per-application
  /// metrics), `<prefix>_congestion.csv` (Fig 12 matrix rows), and
  /// `<prefix>_stall.csv` (Fig 11 per-group stall). Call after run().
  void write_csv(const std::string& prefix) const;

 private:
  struct PendingJob {
    std::unique_ptr<mpi::Motif> motif;
    std::string label;
    std::vector<int> nodes;
    int traffic_class{0};
    bool record_trace{false};
  };

  void build();  ///< instantiate routing, network and jobs (first run() step)

  StudyConfig config_;
  std::shared_ptr<const SystemBlueprint> blueprint_;  ///< immutable shared plan
  SimArena* arena_{nullptr};
  Engine engine_;
  Placer placer_;
  std::vector<PendingJob> pending_;
  std::unique_ptr<RoutingAlgorithm> routing_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<mpi::MpiSystem> mpi_system_;
  std::vector<std::unique_ptr<mpi::Motif>> motifs_;
  std::vector<std::unique_ptr<mpi::Job>> jobs_;
  std::vector<std::unique_ptr<trace::MessageTrace>> traces_;  ///< index = app id, may be null
  bool ran_{false};
};

}  // namespace dfly
