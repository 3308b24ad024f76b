// Tests for the immutable SystemBlueprint (core/blueprint.hpp): which config
// fields make the key (and which reach plan_cell_hash instead), build
// purity, the concurrent cache's hit/miss behaviour, Study integration
// (explicit / thread-bound / private resolution and the key check),
// byte-identical output with sharing on vs off, and the dirty-state fuzz
// (deliberately different cells through ONE cache).

#include "core/blueprint.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/arena.hpp"
#include "core/json_report.hpp"
#include "core/plan.hpp"
#include "core/study.hpp"
#include "routing/factory.hpp"
#include "sim/rng.hpp"

namespace dfly {
namespace {

StudyConfig tiny_config(const std::string& routing = "MIN", std::uint64_t seed = 42) {
  StudyConfig config;
  config.topo = DragonflyParams::tiny();
  config.routing = routing;
  config.seed = seed;
  config.scale = 64;
  return config;
}

Report run_cell(const StudyConfig& config, const std::string& app, int nodes,
                std::shared_ptr<const SystemBlueprint> blueprint = nullptr) {
  Study study(config, nullptr, std::move(blueprint));
  study.add_app(app, nodes);
  return study.run();
}

// --- field-count guard -------------------------------------------------------
//
// BlueprintKey::of() copies fields out of StudyConfig by hand, so a new
// StudyConfig field is silently not part of the key — correct for per-cell
// knobs like seed or wall_limit_s, a cache-poisoning bug if the blueprint
// build would read it. The private build takes only the key, so it cannot
// read such a field without it being added there. This static_assert fails
// compilation when a field is added, forcing the author to classify it in
// the perturbation table below.

/// Converts to anything except T itself (so T's copy constructor can never
/// swallow the probe), declared-only: used in unevaluated requires-clauses.
template <class T>
struct AnyFieldBut {
  template <class U>
    requires(!std::is_same_v<std::remove_cvref_t<U>, T>)
  constexpr operator U() const noexcept;
};

/// Number of fields of aggregate T: the largest N for which T can be
/// brace-initialised with N probe arguments.
template <class T, class... Probe>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Probe{}...}; }) {
    return field_count<T, Probe..., AnyFieldBut<T>>();
  } else {
    return sizeof...(Probe) - 1;
  }
}

static_assert(field_count<StudyConfig>() == 13,
              "StudyConfig changed: classify the new field in "
              "PerturbationSweepCoversEveryField (tests/core/test_blueprint.cpp); if the "
              "blueprint build reads it, add it to BlueprintKey and BlueprintKey::of()");

std::uint64_t cell_hash_of(const StudyConfig& config) {
  PlanCell cell;
  cell.config = config;
  return plan_cell_hash(cell);
}

// --- key ---------------------------------------------------------------------

TEST(BlueprintKey, SeedScaleAndObservabilityAreNotShape) {
  StudyConfig a = tiny_config("UGALg", 1);
  StudyConfig b = tiny_config("UGALg", 999);
  b.scale = 1;
  b.observability.keep_packet_records = true;
  b.time_limit = kSec;
  EXPECT_EQ(BlueprintKey::of(a), BlueprintKey::of(b));
}

TEST(BlueprintKey, EveryShapeFieldChangesTheKey) {
  // The key is exactly what the build reads: topology and net config.
  const BlueprintKey base = BlueprintKey::of(tiny_config());
  {
    StudyConfig c = tiny_config();
    c.topo = DragonflyParams{2, 4, 2, 5};
    EXPECT_FALSE(BlueprintKey::of(c) == base);
  }
  {
    StudyConfig c = tiny_config();
    c.net.buffer_packets = 7;
    EXPECT_FALSE(BlueprintKey::of(c) == base);
  }
}

TEST(BlueprintKey, PerturbationSweepCoversEveryField) {
  // One perturbation per StudyConfig field, each classified by whether it
  // must change the blueprint key and whether it must change plan_cell_hash
  // (the cell identity journals store). The count assertion ties the table
  // to the static_assert above: a new field cannot compile without also
  // being classified here.
  struct Perturbation {
    const char* field;
    void (*apply)(StudyConfig&);
    bool in_key;
    bool in_cell_hash;
  };
  const std::vector<Perturbation> fields{
      {"topo", [](StudyConfig& c) { c.topo = DragonflyParams{2, 4, 2, 5}; }, true, true},
      {"net", [](StudyConfig& c) { c.net.buffer_packets = 7; }, true, true},
      {"routing", [](StudyConfig& c) { c.routing = "Q-adp"; }, false, true},
      {"placement", [](StudyConfig& c) { c.placement = PlacementPolicy::kContiguous; }, false,
       true},
      {"protocol", [](StudyConfig& c) { c.protocol.eager_threshold = 1024; }, false, true},
      {"ugal", [](StudyConfig& c) { c.ugal.bias = 99; }, false, true},
      {"qadp", [](StudyConfig& c) { c.qadp.alpha = 0.9; }, false, true},
      {"faults", [](StudyConfig& c) { c.faults = parse_fault_plan("0:2:4"); }, false, true},
      {"seed", [](StudyConfig& c) { c.seed = 999; }, false, true},
      {"scale", [](StudyConfig& c) { c.scale = 3; }, false, true},
      {"observability", [](StudyConfig& c) { c.observability.keep_packet_records = true; },
       false, false},
      {"time_limit", [](StudyConfig& c) { c.time_limit = kSec; }, false, true},
      {"wall_limit_s", [](StudyConfig& c) { c.wall_limit_s = 5.0; }, false, true},
  };
  ASSERT_EQ(fields.size(), field_count<StudyConfig>())
      << "every StudyConfig field must appear in the perturbation table";

  const BlueprintKey base_key = BlueprintKey::of(tiny_config());
  const std::uint64_t base_hash = cell_hash_of(tiny_config());
  for (const Perturbation& p : fields) {
    StudyConfig c = tiny_config();
    p.apply(c);
    EXPECT_EQ(!(BlueprintKey::of(c) == base_key), p.in_key)
        << "field '" << p.field << (p.in_key ? "' ignored by" : "' leaked into")
        << " the blueprint key";
    EXPECT_EQ(cell_hash_of(c) != base_hash, p.in_cell_hash)
        << "field '" << p.field << (p.in_cell_hash ? "' ignored by" : "' leaked into")
        << " plan_cell_hash";
  }
}

// --- build purity ------------------------------------------------------------

TEST(SystemBlueprint, BuildIsPureForEqualShapes) {
  const StudyConfig config = tiny_config("Q-adp");
  const auto a = SystemBlueprint::build(config);
  const auto b = SystemBlueprint::build(config);
  ASSERT_NE(a, b);  // distinct snapshots...
  EXPECT_EQ(a->key(), b->key());
  EXPECT_EQ(a->footprint_bytes(), b->footprint_bytes());
  const Dragonfly& topo = a->topo();
  for (int r = 0; r < topo.num_routers(); ++r) {
    for (int p = 0; p < topo.radix(); ++p) {
      // ...with identical content (the wiring plan is a pure function of
      // the key).
      EXPECT_EQ(a->port(r, p).peer_router, b->port(r, p).peer_router);
      EXPECT_EQ(a->port(r, p).peer_port, b->port(r, p).peer_port);
      EXPECT_EQ(a->port(r, p).latency, b->port(r, p).latency);
    }
  }
}

TEST(SystemBlueprint, PortPlanMatchesTopologyWiring) {
  const auto bp = SystemBlueprint::build(tiny_config());
  const Dragonfly& topo = bp->topo();
  for (int r = 0; r < topo.num_routers(); ++r) {
    for (int p = 0; p < topo.radix(); ++p) {
      const SystemBlueprint::PortPlan& plan = bp->port(r, p);
      if (topo.is_terminal_port(p)) {
        EXPECT_EQ(plan.peer_router, -1);
        EXPECT_EQ(plan.cls, LinkClass::kTerminal);
        continue;
      }
      const Dragonfly::Wire wire = topo.wire(r, p);
      EXPECT_EQ(plan.peer_router, wire.peer_router);
      EXPECT_EQ(plan.peer_port, wire.peer_port);
      EXPECT_EQ(plan.global, wire.global);
    }
  }
}

TEST(SystemBlueprint, RouterPortPeersPointBackWithEqualLatency) {
  // Routers return credits for input port p over output port p's own wire,
  // so every router-router port must be one half of a symmetric pair: the
  // peer's plan points back at this port with the same latency and class.
  for (const GlobalArrangement arrangement :
       {GlobalArrangement::kRelative, GlobalArrangement::kAbsolute}) {
    for (DragonflyParams params : {DragonflyParams::tiny(), DragonflyParams::paper()}) {
      params.arrangement = arrangement;
      StudyConfig config = tiny_config();
      config.topo = params;
      const auto bp = SystemBlueprint::build(config);
      const Dragonfly& topo = bp->topo();
      int router_ports = 0;
      for (int r = 0; r < topo.num_routers(); ++r) {
        for (int p = 0; p < topo.radix(); ++p) {
          const SystemBlueprint::PortPlan& plan = bp->port(r, p);
          if (plan.peer_router < 0) continue;
          ++router_ports;
          const SystemBlueprint::PortPlan& back = bp->port(plan.peer_router, plan.peer_port);
          ASSERT_EQ(back.peer_router, r) << "router " << r << " port " << p;
          ASSERT_EQ(back.peer_port, p) << "router " << r << " port " << p;
          ASSERT_EQ(back.latency, plan.latency) << "router " << r << " port " << p;
          ASSERT_EQ(back.cls, plan.cls) << "router " << r << " port " << p;
        }
      }
      EXPECT_EQ(router_ports, topo.num_routers() * (topo.radix() - params.p));
    }
  }
}

// --- NetConfig validation ----------------------------------------------------

/// The message of the invalid_argument `net` raises, or "" if none.
std::string net_config_error(const NetConfig& net, int radix = DragonflyParams::tiny().radix()) {
  try {
    validate_net_config(net, radix);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(NetConfigValidation, AcceptsDefaultsAndTheEdgesOfEachRange) {
  EXPECT_EQ(net_config_error(NetConfig{}), "");
  NetConfig edges;
  edges.num_vcs = 255;
  edges.buffer_packets = 1;
  edges.packet_bytes = 1;
  edges.flit_bytes = 1;
  edges.link_gbps = 0.001;
  edges.local_latency = 0;
  edges.global_latency = 0;
  edges.terminal_latency = 0;
  edges.router_latency = 0;
  EXPECT_EQ(net_config_error(edges, 128), "");  // 128 * 255 = 32640 queues
  NetConfig one_vc;
  one_vc.num_vcs = 1;
  EXPECT_EQ(net_config_error(one_vc, 255), "");
}

TEST(NetConfigValidation, RejectsVcCountsOutsideOneTo255) {
  for (const int vcs : {0, -1, 256}) {
    NetConfig net;
    net.num_vcs = vcs;
    EXPECT_NE(net_config_error(net).find("net.num_vcs"), std::string::npos) << vcs;
  }
}

TEST(NetConfigValidation, RejectsRadixAbove255) {
  NetConfig net;
  net.num_vcs = 1;
  EXPECT_NE(net_config_error(net, 256).find("radix"), std::string::npos);
}

TEST(NetConfigValidation, RejectsMoreInputQueuesThanAnInt16Index) {
  NetConfig net;
  net.num_vcs = 255;
  EXPECT_NE(net_config_error(net, 129).find("net.num_vcs"), std::string::npos);  // 32895
}

TEST(NetConfigValidation, RejectsBufferPacketsBelowOne) {
  for (const int packets : {0, -3}) {
    NetConfig net;
    net.buffer_packets = packets;
    EXPECT_NE(net_config_error(net).find("net.buffer_packets"), std::string::npos) << packets;
  }
}

TEST(NetConfigValidation, RejectsPacketBytesBelowOne) {
  NetConfig net;
  net.packet_bytes = 0;
  EXPECT_NE(net_config_error(net).find("net.packet_bytes"), std::string::npos);
}

TEST(NetConfigValidation, RejectsFlitBytesBelowOne) {
  NetConfig net;
  net.flit_bytes = -128;
  EXPECT_NE(net_config_error(net).find("net.flit_bytes"), std::string::npos);
}

TEST(NetConfigValidation, RejectsLinkRatesThatAreNotPositive) {
  for (const double gbps : {0.0, -200.0, std::numeric_limits<double>::quiet_NaN()}) {
    NetConfig net;
    net.link_gbps = gbps;
    EXPECT_NE(net_config_error(net).find("net.link_gbps"), std::string::npos) << gbps;
  }
}

TEST(NetConfigValidation, RejectsNegativeLatencies) {
  NetConfig local;
  local.local_latency = -kNs;
  EXPECT_NE(net_config_error(local).find("net.local_latency_ns"), std::string::npos);
  NetConfig global;
  global.global_latency = -kNs;
  EXPECT_NE(net_config_error(global).find("net.global_latency_ns"), std::string::npos);
  NetConfig terminal;
  terminal.terminal_latency = -1;
  EXPECT_NE(net_config_error(terminal).find("net.terminal_latency"), std::string::npos);
  NetConfig router;
  router.router_latency = -kNs;
  EXPECT_NE(net_config_error(router).find("net.router_latency_ns"), std::string::npos);
}

TEST(NetConfigValidation, BlueprintBuildAndStudyRunTheCheck) {
  StudyConfig config = tiny_config();
  config.net.num_vcs = 0;
  EXPECT_THROW(SystemBlueprint::build(config), std::invalid_argument);
  try {
    Study study(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("net.num_vcs"), std::string::npos) << error.what();
  }
}

// --- cache -------------------------------------------------------------------

TEST(BlueprintCache, SameShapeSharesOneSnapshot) {
  BlueprintCache cache;
  const auto a = cache.get_or_build(tiny_config("UGALg", 1));
  const auto b = cache.get_or_build(tiny_config("UGALg", 2));  // seed is not shape
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.size(), 1u);
  const BlueprintCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GE(stats.build_ms_total, 0.0);
}

TEST(BlueprintCache, DifferentShapesGetDifferentSnapshots) {
  BlueprintCache cache;
  StudyConfig other_machine = tiny_config("PAR");
  other_machine.topo = DragonflyParams{2, 4, 2, 5};
  const auto par = cache.get_or_build(tiny_config("PAR"));
  const auto qadp = cache.get_or_build(tiny_config("Q-adp"));  // same machine
  const auto other = cache.get_or_build(other_machine);
  EXPECT_EQ(par, qadp);
  EXPECT_NE(par, other);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(BlueprintCache, RoutingsWithoutQTablesShareOneSnapshot) {
  // Routing, placement, protocol, UGAL bias and faults are read by the cell,
  // not by the blueprint build: all of these share the first build, Q-adp
  // too (it fills its initial Q-tables per cell).
  BlueprintCache cache;
  const auto first = cache.get_or_build(tiny_config("MIN"));
  StudyConfig ugal = tiny_config("UGALg");
  ugal.placement = PlacementPolicy::kLinear;
  ugal.ugal.bias = 5;
  StudyConfig par = tiny_config("PAR");
  par.protocol.eager_threshold = 1024;
  par.faults = parse_fault_plan("0:2:4");
  EXPECT_EQ(cache.get_or_build(ugal), first);
  EXPECT_EQ(cache.get_or_build(par), first);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);

  EXPECT_EQ(cache.get_or_build(tiny_config("Q-adp")), first);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BlueprintCache, EveryRoutingSharesOneSnapshot) {
  // The blueprint holds nothing routing-specific: every routing on one
  // machine runs off the first build, byte-identical to a private one.
  BlueprintCache cache;
  std::vector<std::string> shared;
  {
    ScopedBlueprintCacheBinding binding(&cache);
    for (const std::string& routing : routing::all_routings()) {
      shared.push_back(report_to_json(run_cell(tiny_config(routing, 3), "UR", 16)));
    }
  }
  ASSERT_EQ(routing::all_routings().size(), 9u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 8u);
  for (std::size_t i = 0; i < shared.size(); ++i) {
    const std::string& routing = routing::all_routings()[i];
    EXPECT_EQ(shared[i], report_to_json(run_cell(tiny_config(routing, 3), "UR", 16))) << routing;
  }
}

TEST(BlueprintCache, ThreadBindingNestsAndRestores) {
  EXPECT_EQ(BlueprintCache::current(), nullptr);
  BlueprintCache outer, inner;
  {
    ScopedBlueprintCacheBinding bind_outer(&outer);
    EXPECT_EQ(BlueprintCache::current(), &outer);
    {
      ScopedBlueprintCacheBinding bind_inner(&inner);
      EXPECT_EQ(BlueprintCache::current(), &inner);
      ScopedBlueprintCacheBinding noop(nullptr);  // null binding: keep current
      EXPECT_EQ(BlueprintCache::current(), &inner);
    }
    EXPECT_EQ(BlueprintCache::current(), &outer);
  }
  EXPECT_EQ(BlueprintCache::current(), nullptr);
}

// --- Study integration -------------------------------------------------------

TEST(StudyBlueprint, BoundCacheIsPickedUpAndShared) {
  BlueprintCache cache;
  ScopedBlueprintCacheBinding binding(&cache);
  const StudyConfig config = tiny_config("UGALg");
  Study first(config);
  Study second(config);
  EXPECT_EQ(first.blueprint(), second.blueprint());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(StudyBlueprint, ExplicitBlueprintIsUsedVerbatim) {
  const StudyConfig config = tiny_config("UGALg");
  const auto bp = SystemBlueprint::build(config);
  StudyConfig other_seed = config;
  other_seed.seed = 777;  // seed is not shape: the same plan serves it
  Study study(other_seed, nullptr, bp);
  EXPECT_EQ(study.blueprint(), bp);
}

TEST(StudyBlueprint, ShapeMismatchThrows) {
  // A blueprint built for another net config must be refused.
  const auto bp = SystemBlueprint::build(tiny_config("PAR"));
  StudyConfig other_net = tiny_config("PAR");
  other_net.net.buffer_packets = 7;
  EXPECT_THROW(Study(other_net, nullptr, bp), std::invalid_argument);
}

// --- output equivalence ------------------------------------------------------

TEST(StudyBlueprint, SharedPlanOutputIsByteIdenticalToPrivate) {
  const StudyConfig config = tiny_config("PAR", 7);
  BlueprintCache cache;
  std::string shared_json, repeat_json;
  {
    ScopedBlueprintCacheBinding binding(&cache);
    shared_json = report_to_json(run_cell(config, "FFT3D", 32));
    repeat_json = report_to_json(run_cell(config, "FFT3D", 32));  // cache hit
  }
  const std::string private_json = report_to_json(run_cell(config, "FFT3D", 32));
  EXPECT_EQ(shared_json, private_json);
  EXPECT_EQ(repeat_json, private_json);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(StudyBlueprint, DirtyStateFuzzAcrossShapesThroughOneCache) {
  // Deliberately different cells scheduled through ONE blueprint cache (and
  // one arena, as a SubmissionQueue worker would): every report must match a
  // fresh cache-less, arena-less run of the same cell. Placement, faults and
  // UGAL bias vary too: cells that differ only there share one blueprint, so
  // they check that the cell reads them from its own config. Seeded so the
  // "random" schedule is reproducible.
  const std::vector<std::string> apps{"UR", "FFT3D", "Halo3D", "CosmoFlow"};
  const std::vector<std::string> routings{"MIN", "UGALg", "PAR", "Q-adp"};
  const std::vector<int> node_counts{16, 24, 32, 48};
  const std::vector<PlacementPolicy> placements{
      PlacementPolicy::kRandom, PlacementPolicy::kContiguous, PlacementPolicy::kLinear};

  Rng rng(20260729);
  struct Cell {
    StudyConfig config;
    std::string app;
    int nodes;
  };
  std::vector<Cell> cells;
  for (int i = 0; i < 8; ++i) {
    Cell cell;
    cell.config = tiny_config(routings[rng.next_below(routings.size())],
                              /*seed=*/100 + rng.next_below(1000));
    cell.app = apps[rng.next_below(apps.size())];
    cell.nodes = node_counts[rng.next_below(node_counts.size())];
    if (rng.next_bernoulli(0.25)) {
      cell.config.net.qos.num_classes = 2;  // flip the DWRR arbitration shape
    }
    if (rng.next_bernoulli(0.25)) {
      cell.config.topo = DragonflyParams{2, 4, 2, 5};  // different machine
      cell.nodes = 16;
    }
    if (rng.next_bernoulli(0.5)) {
      cell.config.observability.keep_packet_records = true;
    }
    cell.config.placement = placements[rng.next_below(placements.size())];
    if (rng.next_bernoulli(0.5)) {
      cell.config.faults = parse_fault_plan("0:2:4:200,1:3:2");  // local links of group 0
    }
    if (rng.next_bernoulli(0.5)) cell.config.ugal.bias = 4;
    cells.push_back(std::move(cell));
  }

  BlueprintCache cache;
  std::vector<std::string> shared;
  {
    SimArena arena;
    ScopedArenaBinding arena_binding(&arena);
    ScopedBlueprintCacheBinding cache_binding(&cache);
    for (const Cell& cell : cells) {
      shared.push_back(report_to_json(run_cell(cell.config, cell.app, cell.nodes)));
    }
  }
  EXPECT_GT(cache.stats().misses, 0u);
  EXPECT_GT(cache.stats().hits, 0u);  // some cells did share a blueprint
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Report fresh = run_cell(cells[i].config, cells[i].app, cells[i].nodes);
    EXPECT_EQ(shared[i], report_to_json(fresh))
        << "cell " << i << " (" << cells[i].app << " on " << cells[i].config.routing
        << ", seed " << cells[i].config.seed << ") diverged under blueprint sharing";
  }
}

}  // namespace
}  // namespace dfly
