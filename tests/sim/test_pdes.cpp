// Tests for the group-partitioned parallel engine (sim/pdes.hpp and
// sim/partition.hpp): partition shape and lookahead, the --cell-threads
// resolution and oversubscription caps, exact sequential-replay ordering on
// synthetic same-time floods (the canonical-tie-break property), and the
// Study-level byte-identity fuzz — dirty arena + shared blueprint cache,
// thread counts 1/2/4, reports compared byte for byte against fresh
// sequential runs. Every suite name starts with Pdes so the CI TSan leg can
// select the multi-threaded fixtures with -R "Pdes".

#include "sim/pdes.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/blueprint.hpp"
#include "core/json_report.hpp"
#include "core/parallel.hpp"
#include "core/study.hpp"
#include "net/fault.hpp"
#include "routing/factory.hpp"
#include "sim/partition.hpp"
#include "sim/rng.hpp"

namespace dfly {
namespace {

StudyConfig tiny_config(const std::string& routing, std::uint64_t seed) {
  StudyConfig config;
  config.topo = DragonflyParams::tiny();  // 72 nodes, 9 groups
  config.routing = routing;
  config.seed = seed;
  config.scale = 64;
  return config;
}

// --- partition ---------------------------------------------------------------

TEST(PdesPartition, AssignsContiguousGroupBlocks) {
  const auto bp = SystemBlueprint::build(tiny_config("MIN", 1));
  const CellPartition part = CellPartition::build(*bp, 3);
  ASSERT_EQ(part.num_domains, 3);
  const Dragonfly& topo = bp->topo();
  // Routers of one group share a domain; domains are non-decreasing in
  // group order (contiguous blocks), and every domain is non-empty.
  std::vector<int> routers_in(3, 0);
  std::vector<std::int32_t> group_domain(static_cast<std::size_t>(topo.num_groups()), -1);
  std::int32_t prev = 0;
  for (int r = 0; r < topo.num_routers(); ++r) {
    const std::int32_t d = part.domain_of_router(r);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, 3);
    std::int32_t& of_group = group_domain[static_cast<std::size_t>(topo.group_of_router(r))];
    if (of_group < 0) of_group = d;
    EXPECT_EQ(d, of_group) << "router " << r << " not in its group's domain";
    EXPECT_GE(d, prev) << "domains must be contiguous group blocks";
    prev = d;
    ++routers_in[static_cast<std::size_t>(d)];
  }
  for (int d = 0; d < 3; ++d) EXPECT_GT(routers_in[static_cast<std::size_t>(d)], 0);
  // Nodes follow their router.
  for (int n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_EQ(part.domain_of_node(n), part.domain_of_router(topo.router_of_node(n)));
  }
}

TEST(PdesPartition, DomainCountClampsToGroups) {
  const auto bp = SystemBlueprint::build(tiny_config("MIN", 1));
  EXPECT_EQ(CellPartition::build(*bp, 100).num_domains, 9);  // tiny() has 9 groups
  const CellPartition single = CellPartition::build(*bp, 1);
  EXPECT_EQ(single.num_domains, 1);
  EXPECT_EQ(single.lookahead, 0) << "one domain has no cross-domain links";
}

TEST(PdesPartition, LookaheadIsMinCrossDomainPlanLatency) {
  const auto bp = SystemBlueprint::build(tiny_config("MIN", 1));
  const CellPartition part = CellPartition::build(*bp, 4);
  ASSERT_GT(part.num_domains, 1);
  ASSERT_GT(part.lookahead, 0) << "groups are only joined by latency-bearing links";
  // No cross-domain wire may be faster than the lookahead, and at least one
  // must meet it exactly (it IS the minimum).
  const Dragonfly& topo = bp->topo();
  bool met = false;
  for (int r = 0; r < topo.num_routers(); ++r) {
    for (int port = 0; port < topo.radix(); ++port) {
      const SystemBlueprint::PortPlan& plan = bp->port(r, port);
      if (plan.peer_router < 0) continue;
      if (part.domain_of_router(r) == part.domain_of_router(plan.peer_router)) continue;
      EXPECT_GE(plan.latency, part.lookahead);
      met = met || plan.latency == part.lookahead;
    }
  }
  EXPECT_TRUE(met);
}

// --- knob resolution and caps ------------------------------------------------

class CellThreadsEnvGuard {
 public:
  CellThreadsEnvGuard() {
    const char* saved = std::getenv("DFSIM_CELL_THREADS");
    if (saved != nullptr) saved_ = saved;
    had_ = saved != nullptr;
  }
  ~CellThreadsEnvGuard() {
    if (had_) {
      ::setenv("DFSIM_CELL_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("DFSIM_CELL_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_{false};
};

TEST(PdesResolve, ExplicitThenEnvThenSequential) {
  CellThreadsEnvGuard guard;
  ::setenv("DFSIM_CELL_THREADS", "3", 1);
  EXPECT_EQ(resolve_cell_threads(2), 2);  // explicit wins
  EXPECT_EQ(resolve_cell_threads(0), 3);  // env next
  ::unsetenv("DFSIM_CELL_THREADS");
  EXPECT_EQ(resolve_cell_threads(0), 1);  // default: sequential
}

TEST(PdesResolve, MalformedEnvThrows) {
  CellThreadsEnvGuard guard;
  for (const char* bad : {"", "abc", "4x", "0", "-2", "2 "}) {
    ::setenv("DFSIM_CELL_THREADS", bad, 1);
    EXPECT_THROW(resolve_cell_threads(0), std::invalid_argument) << bad;
    EXPECT_EQ(resolve_cell_threads(2), 2) << bad;  // explicit bypasses
  }
}

TEST(PdesResolve, OversubscriptionTightensJobCaps) {
  // More domains per cell -> bigger per-cell budget -> at most as many
  // concurrent cells; both caps stay usable (>= 1).
  EXPECT_LE(memory_jobs_cap(4), memory_jobs_cap(1));
  EXPECT_GE(memory_jobs_cap(4), 1);
  EXPECT_LE(hardware_jobs(4), hardware_jobs(1));
  EXPECT_GE(hardware_jobs(4), 1);
}

TEST(PdesResolve, RoutingEligibility) {
  // Per-packet policies reading only the deciding router's own state can be
  // partitioned; stateful/shared-table policies fall back to sequential.
  for (const char* name : {"MIN", "VALg", "VALn", "UGALg", "UGALn", "PAR"}) {
    EXPECT_TRUE(routing::is_cell_parallel(name)) << name;
  }
  for (const char* name : {"Q-adp", "FlowUGAL", "AppAware", "nonsense"}) {
    EXPECT_FALSE(routing::is_cell_parallel(name)) << name;
  }
}

// --- exact-replay ordering on synthetic floods -------------------------------

constexpr SimTime kLookahead = 10;

/// What a component observed: everything of the Event except seq (immediate
/// in-window events legitimately carry a provisional seq while executing —
/// the determinism contract is about order and payload, which this captures).
struct Rec {
  SimTime when;
  std::uint32_t kind;
  std::uint64_t a, b;
  bool operator==(const Rec&) const = default;
};

/// Record-only sink (the cross-domain tie-break observation point).
class RecordSink final : public Component {
 public:
  std::vector<Rec>* log{nullptr};
  void handle(Engine&, const Event& event) override {
    log->push_back({event.when, event.kind, event.a, event.b});
  }
};

/// Same-time flood generator: every event with a > 0 fans out to its
/// same-domain peers at the SAME timestamp (exercising the provisional-seq
/// batch path and its retroactive re-sequencing), to itself a little later
/// (in- or out-of-window depending on where the window boundary falls), and
/// across domains at exactly +lookahead (the tightest legal cross-domain
/// distance). Payloads tag creator and fan-out index so any reordering
/// changes some component's observed sequence.
class Flood final : public Component {
 public:
  int id{0};
  std::vector<Flood*> locals;
  std::vector<Flood*> remotes;
  Component* sink{nullptr};
  std::vector<Rec>* log{nullptr};

  void handle(Engine& engine, const Event& event) override {
    log->push_back({event.when, event.kind, event.a, event.b});
    if (event.a == 0) return;
    for (std::size_t i = 0; i < locals.size(); ++i) {
      engine.schedule_at(event.when, *locals[i], 1, event.a - 1, tag(i));
    }
    engine.schedule_in(3, *this, 2, event.a - 1, tag(99));
    for (std::size_t i = 0; i < remotes.size(); ++i) {
      engine.schedule_at(event.when + kLookahead, *remotes[i], 3, event.a - 1, tag(i));
    }
    if (sink != nullptr) {
      engine.schedule_at(event.when + kLookahead, *sink, 4, event.a - 1, tag(7));
    }
  }

 private:
  std::uint64_t tag(std::size_t i) const {
    return static_cast<std::uint64_t>(id) * 1000 + i;
  }
};

struct FloodResult {
  std::vector<std::vector<Rec>> logs;  // [flood 0..n-1, sink]
  std::uint64_t executed{0};
  SimTime now{0};
  EngineStats stats;
};

/// Run the flood net on `domains` domains with `per_domain` floods each —
/// through a PdesCell/PdesRunner when `parallel`, else on the plain engine —
/// and return everything observable.
FloodResult run_flood(std::int32_t domains, int per_domain, bool parallel,
                      SimTime time_limit, std::uint64_t generations = 3) {
  const std::size_t n = static_cast<std::size_t>(domains) * static_cast<std::size_t>(per_domain);
  FloodResult result;
  result.logs.resize(n + 1);
  std::vector<std::unique_ptr<Flood>> floods;
  RecordSink sink;
  sink.set_pdes_domain(0);
  sink.log = &result.logs[n];
  for (std::size_t i = 0; i < n; ++i) {
    floods.push_back(std::make_unique<Flood>());
    floods.back()->id = static_cast<int>(i);
    floods.back()->set_pdes_domain(static_cast<std::int32_t>(i) / per_domain);
    floods.back()->log = &result.logs[i];
    floods.back()->sink = &sink;
  }
  for (const auto& f : floods) {
    for (const auto& peer : floods) {
      if (peer.get() == f.get()) continue;
      if (peer->pdes_domain() == f->pdes_domain()) {
        f->locals.push_back(peer.get());
      } else {
        f->remotes.push_back(peer.get());
      }
    }
  }

  Engine engine;
  const auto seed_events = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(5, *floods[i], 0, generations, 5000 + i);
    }
  };
  if (parallel) {
    CellPartition part;
    part.num_domains = domains;
    part.lookahead = kLookahead;
    PdesCell cell(engine, std::move(part), /*arena=*/nullptr);
    cell.begin_setup();
    seed_events();
    PdesRunner(cell, time_limit).run();
    cell.finish();
    EXPECT_EQ(cell.stats().num_domains, domains);
    if (domains > 1) {
      EXPECT_GT(cell.stats().windows, 0u);
    }
  } else {
    seed_events();
    engine.run(time_limit);
  }
  result.executed = engine.executed();
  result.now = engine.now();
  result.stats = engine.stats();
  return result;
}

void expect_same(const FloodResult& parallel, const FloodResult& sequential) {
  EXPECT_EQ(parallel.executed, sequential.executed);
  EXPECT_EQ(parallel.now, sequential.now);
  EXPECT_EQ(parallel.stats.scheduled_by_kind, sequential.stats.scheduled_by_kind);
  EXPECT_EQ(parallel.stats.executed_by_kind, sequential.stats.executed_by_kind);
  ASSERT_EQ(parallel.logs.size(), sequential.logs.size());
  for (std::size_t c = 0; c < parallel.logs.size(); ++c) {
    EXPECT_EQ(parallel.logs[c], sequential.logs[c]) << "component " << c
                                                    << " observed a different sequence";
  }
}

TEST(PdesOrder, TwoDomainSameTimeFloodReplaysSequentialOrder) {
  const SimTime limit = kSec;
  expect_same(run_flood(2, 2, /*parallel=*/true, limit),
              run_flood(2, 2, /*parallel=*/false, limit));
}

TEST(PdesOrder, ThreeDomainSameTimeFloodReplaysSequentialOrder) {
  const SimTime limit = kSec;
  expect_same(run_flood(3, 2, /*parallel=*/true, limit),
              run_flood(3, 2, /*parallel=*/false, limit));
}

TEST(PdesOrder, TimeLimitTruncatesExactlyLikeSequential) {
  // A limit landing mid-cascade (between the seed wave at t=5 and later
  // cross-domain waves): events at exactly the limit execute, later ones
  // don't, byte-for-byte like Engine::run(limit).
  for (const SimTime limit : {SimTime{5}, SimTime{15}, SimTime{18}, SimTime{21}}) {
    expect_same(run_flood(2, 2, true, limit, /*generations=*/4),
                run_flood(2, 2, false, limit, /*generations=*/4));
  }
}

TEST(PdesOrder, CrossDomainSameTimeTieBreakIsCreationOrder) {
  // Floods with zero generations left still record; with generations = 1
  // each seed fires exactly one cross-domain wave into the shared sink, all
  // at t = 5 + lookahead: the sink's order must be the sequential creation
  // order (covered by expect_same, asserted explicitly here).
  const FloodResult par = run_flood(2, 2, true, kSec, /*generations=*/1);
  const FloodResult seq = run_flood(2, 2, false, kSec, /*generations=*/1);
  expect_same(par, seq);
  const std::vector<Rec>& sink = par.logs.back();
  ASSERT_EQ(sink.size(), 4u);  // one kind-4 record per seed flood
  for (const Rec& rec : sink) EXPECT_EQ(rec.when, 5 + kLookahead);
  for (std::size_t i = 0; i < sink.size(); ++i) {
    EXPECT_EQ(sink[i].b, i * 1000 + 7) << "tie at t=" << 5 + kLookahead
                                       << " must break in creation order";
  }
}

TEST(PdesOrder, EmptyRunCompletesImmediately) {
  Engine engine;
  CellPartition part;
  part.num_domains = 2;
  part.lookahead = kLookahead;
  PdesCell cell(engine, std::move(part), nullptr);
  cell.begin_setup();
  PdesRunner(cell, kSec).run();
  cell.finish();
  EXPECT_EQ(engine.executed(), 0u);
  EXPECT_EQ(cell.stats().windows, 0u);
}

// --- Study-level byte identity ----------------------------------------------

Report run_study_cell(const StudyConfig& config, const std::string& app, int nodes,
                      SimArena* arena) {
  Study study(config, arena);
  study.add_app(app, nodes);
  return study.run();
}

TEST(PdesStudy, ParallelCellEngagesAndFallsBackAsDocumented) {
  StudyConfig eligible = tiny_config("MIN", 3);
  eligible.cell_threads = 2;
  {
    Study study(eligible);
    study.add_app("UR", 24);
    study.run();
    ASSERT_NE(study.pdes(), nullptr) << "MIN + cell_threads=2 must run partitioned";
    EXPECT_EQ(study.pdes()->stats().num_domains, 2);
    EXPECT_GT(study.pdes()->stats().windows, 0u);
    EXPECT_GT(study.pdes()->stats().cross_domain_events, 0u);
  }
  StudyConfig stateful = tiny_config("Q-adp", 3);
  stateful.cell_threads = 2;
  {
    Study study(stateful);
    study.add_app("UR", 24);
    study.run();
    EXPECT_EQ(study.pdes(), nullptr) << "Q-adp shares a Q-table: sequential fallback";
  }
  StudyConfig observed = tiny_config("MIN", 3);
  observed.cell_threads = 2;
  observed.observability.keep_packet_records = true;
  {
    Study study(observed);
    study.add_app("UR", 24);
    study.run();
    EXPECT_EQ(study.pdes(), nullptr) << "per-packet records need the global order";
  }
}

// Cells of deliberately different shapes — routings (parallel-eligible and
// fallback), apps, node counts, QoS classes, link faults — run back-to-back
// at cell_threads 2 and 4 through ONE dirty arena and ONE shared blueprint
// cache; every report must match a fresh sequential run byte for byte. This
// is the dirty-state motif of test_arena.cpp pointed at the parallel engine:
// leaked domain state, a stale shard, or a mis-sequenced merge shows up as a
// mismatch in some cell.
TEST(PdesStudy, ByteIdentityFuzzAcrossThreadCountsAndCellShapes) {
  const std::vector<std::string> apps{"UR", "FFT3D", "Halo3D", "LU"};
  const std::vector<std::string> routings{"MIN", "UGALg", "PAR", "Q-adp"};
  const std::vector<int> node_counts{16, 24, 32};
  const Dragonfly topo(DragonflyParams::tiny());

  struct Cell {
    StudyConfig config;
    std::string app;
    int nodes;
  };
  Rng rng(20260808);
  std::vector<Cell> cells;
  for (int i = 0; i < 6; ++i) {
    Cell cell;
    cell.config = tiny_config(routings[rng.next_below(routings.size())],
                              200 + rng.next_below(1000));
    cell.app = apps[rng.next_below(apps.size())];
    cell.nodes = node_counts[rng.next_below(node_counts.size())];
    if (rng.next_bernoulli(0.25)) cell.config.net.qos.num_classes = 2;
    if (rng.next_bernoulli(0.33)) {
      // Degrading a global link only ADDS latency, so the plan-derived
      // lookahead stays a safe lower bound — assert identity under it.
      cell.config.faults = FaultPlan::degrade_global(topo, 0, 5, /*slowdown=*/4,
                                                     /*extra_latency=*/500);
    }
    cells.push_back(std::move(cell));
  }

  // Sequential references first (fresh, no arena), then the parallel sweeps
  // through one arena + cache with the dirty-state carried cell to cell.
  std::vector<std::string> reference;
  for (const Cell& cell : cells) {
    reference.push_back(
        report_to_json(run_study_cell(cell.config, cell.app, cell.nodes, nullptr)));
  }
  for (const int threads : {2, 4}) {
    SimArena arena;
    BlueprintCache cache;
    ScopedBlueprintCacheBinding binding(&cache);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      StudyConfig config = cells[i].config;
      config.cell_threads = threads;
      const std::string report =
          report_to_json(run_study_cell(config, cells[i].app, cells[i].nodes, &arena));
      EXPECT_EQ(report, reference[i])
          << "cell " << i << " (" << cells[i].app << " on " << cells[i].config.routing
          << ", seed " << cells[i].config.seed << ") diverged at cell_threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace dfly
