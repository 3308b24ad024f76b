// Tests for the immutable SystemBlueprint (core/blueprint.hpp): key/hash
// semantics, build purity, the concurrent cache's hit/miss behaviour, Study
// integration (explicit / thread-bound / private resolution and the shape
// check), byte-identical output with sharing on vs off, and the dirty-state
// fuzz (deliberately different cell shapes through ONE cache).

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
#include "core/study.hpp"
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
// BlueprintKey::of() copies shape fields out of StudyConfig by hand, so a new
// StudyConfig field silently defaults to "not shape" — correct for knobs like
// seed or wall_limit_s, but a cache-poisoning bug if the field changes the
// built network. These static_asserts pin both field counts: adding a field
// fails compilation right here, forcing the author to classify it in the
// perturbation table below (and, if it is shape, add it to BlueprintKey, of()
// and hash()).

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
              "StudyConfig changed: classify the new field as shape or non-shape in "
              "PerturbationSweepCoversEveryField (tests/core/test_blueprint.cpp); if it is "
              "shape, add it to BlueprintKey, BlueprintKey::of() and BlueprintKey::hash()");
static_assert(field_count<BlueprintKey>() == 8,
              "BlueprintKey changed: update BlueprintKey::of(), BlueprintKey::hash(), the "
              "shape perturbation list in tests/core/test_blueprint.cpp, and the non-shape "
              "comment in core/blueprint.hpp");

// --- key / hash --------------------------------------------------------------

TEST(BlueprintKey, SeedScaleAndObservabilityAreNotShape) {
  StudyConfig a = tiny_config("UGALg", 1);
  StudyConfig b = tiny_config("UGALg", 999);
  b.scale = 1;
  b.observability.keep_packet_records = true;
  b.time_limit = kSec;
  EXPECT_EQ(BlueprintKey::of(a), BlueprintKey::of(b));
  EXPECT_EQ(BlueprintKey::of(a).hash(), BlueprintKey::of(b).hash());
}

TEST(BlueprintKey, EveryShapeFieldChangesTheKey) {
  const BlueprintKey base = BlueprintKey::of(tiny_config());
  {
    StudyConfig c = tiny_config();
    c.routing = "UGALg";
    EXPECT_FALSE(BlueprintKey::of(c) == base);
  }
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
  {
    StudyConfig c = tiny_config();
    c.placement = PlacementPolicy::kContiguous;
    EXPECT_FALSE(BlueprintKey::of(c) == base);
  }
  {
    StudyConfig c = tiny_config();
    c.protocol.eager_threshold = 1024;
    EXPECT_FALSE(BlueprintKey::of(c) == base);
  }
  {
    StudyConfig c = tiny_config();
    c.ugal.bias = 99;
    EXPECT_FALSE(BlueprintKey::of(c) == base);
  }
  {
    StudyConfig c = tiny_config();
    c.qadp.alpha = 0.9;
    EXPECT_FALSE(BlueprintKey::of(c) == base);
  }
  {
    StudyConfig c = tiny_config();
    c.faults = parse_fault_plan("0:2:4");
    EXPECT_FALSE(BlueprintKey::of(c) == base);
  }
}

TEST(BlueprintKey, PerturbationSweepCoversEveryField) {
  // One perturbation per StudyConfig field, each classified shape (must
  // change key AND hash) or non-shape (must change neither). The count
  // assertion at the bottom ties the table to the static_assert above: a new
  // field cannot compile without also being classified here.
  struct Perturbation {
    const char* field;
    void (*apply)(StudyConfig&);
  };
  const std::vector<Perturbation> shape{
      {"topo", [](StudyConfig& c) { c.topo = DragonflyParams{2, 4, 2, 5}; }},
      {"net", [](StudyConfig& c) { c.net.buffer_packets = 7; }},
      {"routing", [](StudyConfig& c) { c.routing = "UGALg"; }},
      {"placement", [](StudyConfig& c) { c.placement = PlacementPolicy::kContiguous; }},
      {"protocol", [](StudyConfig& c) { c.protocol.eager_threshold = 1024; }},
      {"ugal", [](StudyConfig& c) { c.ugal.bias = 99; }},
      {"qadp", [](StudyConfig& c) { c.qadp.alpha = 0.9; }},
      {"faults", [](StudyConfig& c) { c.faults = parse_fault_plan("0:2:4"); }},
  };
  const std::vector<Perturbation> non_shape{
      {"seed", [](StudyConfig& c) { c.seed = 999; }},
      {"scale", [](StudyConfig& c) { c.scale = 3; }},
      {"observability", [](StudyConfig& c) { c.observability.keep_packet_records = true; }},
      {"time_limit", [](StudyConfig& c) { c.time_limit = kSec; }},
      {"wall_limit_s", [](StudyConfig& c) { c.wall_limit_s = 5.0; }},
  };
  ASSERT_EQ(shape.size() + non_shape.size(), field_count<StudyConfig>())
      << "every StudyConfig field must appear in exactly one perturbation list";
  ASSERT_EQ(shape.size(), field_count<BlueprintKey>())
      << "every BlueprintKey field must have a shape perturbation";

  const BlueprintKey base = BlueprintKey::of(tiny_config());
  for (const Perturbation& p : shape) {
    StudyConfig c = tiny_config();
    p.apply(c);
    const BlueprintKey key = BlueprintKey::of(c);
    EXPECT_FALSE(key == base) << "shape field '" << p.field << "' ignored by operator==";
    EXPECT_NE(key.hash(), base.hash())
        << "shape field '" << p.field << "' ignored by BlueprintKey::hash()";
  }
  for (const Perturbation& p : non_shape) {
    StudyConfig c = tiny_config();
    p.apply(c);
    const BlueprintKey key = BlueprintKey::of(c);
    EXPECT_TRUE(key == base) << "non-shape field '" << p.field << "' leaked into the key";
    EXPECT_EQ(key.hash(), base.hash())
        << "non-shape field '" << p.field << "' leaked into the hash";
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
      // the shape).
      EXPECT_EQ(a->port(r, p).peer_router, b->port(r, p).peer_router);
      EXPECT_EQ(a->port(r, p).peer_port, b->port(r, p).peer_port);
      EXPECT_EQ(a->port(r, p).latency, b->port(r, p).latency);
    }
  }
  EXPECT_EQ(a->paths().min_hops, b->paths().min_hops);
  EXPECT_EQ(a->paths().group_paths, b->paths().group_paths);
  ASSERT_NE(a->initial_qtables(), nullptr);
  ASSERT_NE(b->initial_qtables(), nullptr);
  ASSERT_EQ(a->initial_qtables()->size(), b->initial_qtables()->size());
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

TEST(SystemBlueprint, InitialQTablesOnlyForQAdaptive) {
  EXPECT_EQ(SystemBlueprint::build(tiny_config("MIN"))->initial_qtables(), nullptr);
  EXPECT_NE(SystemBlueprint::build(tiny_config("Q-adp"))->initial_qtables(), nullptr);
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
  const auto a = cache.get_or_build(tiny_config("MIN"));
  const auto b = cache.get_or_build(tiny_config("PAR"));
  EXPECT_NE(a, b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
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
  const auto bp = SystemBlueprint::build(tiny_config("MIN"));
  EXPECT_THROW(Study(tiny_config("UGALg"), nullptr, bp), std::invalid_argument);
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
  // Deliberately different cell shapes scheduled through ONE blueprint cache
  // (and one arena, as a SubmissionQueue worker would): every report must
  // match a fresh cache-less, arena-less run of the same cell. Seeded so the
  // "random" schedule is reproducible.
  const std::vector<std::string> apps{"UR", "FFT3D", "Halo3D", "CosmoFlow"};
  const std::vector<std::string> routings{"MIN", "UGALg", "PAR", "Q-adp"};
  const std::vector<int> node_counts{16, 24, 32, 48};

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
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Report fresh = run_cell(cells[i].config, cells[i].app, cells[i].nodes);
    EXPECT_EQ(shared[i], report_to_json(fresh))
        << "cell " << i << " (" << cells[i].app << " on " << cells[i].config.routing
        << ", seed " << cells[i].config.seed << ") diverged under blueprint sharing";
  }
}

}  // namespace
}  // namespace dfly
