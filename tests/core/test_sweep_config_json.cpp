// Tests for SeedSweep (core/sweep.hpp), ConfigFile (core/config_file.hpp)
// and the JSON report writer (core/json_report.hpp).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config_file.hpp"
#include "core/json_report.hpp"
#include "core/plan.hpp"
#include "core/sweep.hpp"
#include "workloads/synthetic.hpp"

namespace dfly {
namespace {

Report run_shift(std::uint64_t seed, const std::string& routing = "PAR") {
  StudyConfig config;
  config.topo = DragonflyParams::tiny();
  config.routing = routing;
  config.seed = seed;
  Study study(std::move(config));
  workloads::ShiftParams p;
  p.iterations = 40;
  study.add_motif(std::make_unique<workloads::ShiftMotif>(p), 20, "Shift");
  return study.run();
}

/// A sweep as the CLI runs one: a seeds-axis plan of run_shift cells,
/// aggregated in seed order.
SweepSummary sweep_shift(const SeedSweep& sweep) {
  ExperimentPlan plan;
  plan.mode = PlanMode::kCustom;
  plan.seeds = sweep.seeds();
  plan.custom = [](const PlanCell& cell) { return run_shift(cell.config.seed); };
  CollectSink sink;
  EXPECT_TRUE(run_plan(plan, sink).all_ok());
  return SeedSweep::aggregate(sink.reports());
}

// --- SeedSweep ---------------------------------------------------------------

TEST(SeedSweep, AggregatesAcrossSeeds) {
  const SeedSweep sweep(100, 5);
  ASSERT_EQ(sweep.seeds().size(), 5u);
  EXPECT_EQ(sweep.seeds()[4], 104u);
  const SweepSummary summary = sweep_shift(sweep);
  EXPECT_EQ(summary.runs, 5);
  EXPECT_EQ(summary.completed_runs, 5);
  ASSERT_EQ(summary.apps.size(), 1u);
  EXPECT_EQ(summary.apps[0].app, "Shift");
  EXPECT_GT(summary.apps[0].comm_ms.mean, 0.0);
  EXPECT_EQ(summary.apps[0].comm_ms.n, 5);
  EXPECT_GE(summary.apps[0].comm_ms.max, summary.apps[0].comm_ms.min);
  // CI must be positive when there is run-to-run variation (random
  // placement differs per seed) and bounded by the spread.
  EXPECT_GE(summary.apps[0].comm_ms.ci95_half, 0.0);
  EXPECT_GT(summary.makespan_ms.mean, 0.0);
}

// seeds() on a temporary returns the list by value, so a range-for over it
// iterates a live vector instead of a destroyed sweep's storage.
static_assert(std::is_same_v<decltype(SeedSweep(1, 2).seeds()), std::vector<std::uint64_t>>);
static_assert(std::is_same_v<decltype(std::declval<const SeedSweep&>().seeds()),
                             const std::vector<std::uint64_t>&>);

TEST(SeedSweep, SeedsOfATemporaryAreSafeToIterate) {
  std::vector<std::uint64_t> seen;
  for (const std::uint64_t seed : SeedSweep(42, 3).seeds()) seen.push_back(seed);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{42, 43, 44}));
}

TEST(SeedSweep, SingleSeedHasZeroCi) {
  const SeedSweep sweep(7, 1);
  const SweepSummary summary = sweep_shift(sweep);
  EXPECT_EQ(summary.apps[0].comm_ms.n, 1);
  EXPECT_EQ(summary.apps[0].comm_ms.ci95_half, 0.0);
  EXPECT_EQ(summary.apps[0].comm_ms.stddev, 0.0);
}

TEST(SeedSweep, IdenticalSeedsGiveZeroSpread) {
  const SeedSweep sweep(std::vector<std::uint64_t>{42, 42, 42});
  const SweepSummary summary = sweep_shift(sweep);
  EXPECT_NEAR(summary.apps[0].comm_ms.stddev, 0.0, 1e-9);
  EXPECT_EQ(summary.makespan_ms.min, summary.makespan_ms.max);
}

TEST(SeedSweep, Validation) {
  EXPECT_THROW(SeedSweep(std::vector<std::uint64_t>{}), std::invalid_argument);
  EXPECT_THROW(SeedSweep(1, 0), std::invalid_argument);
  EXPECT_THROW(SeedSweep::aggregate({}), std::invalid_argument);
  const SweepSummary summary = SeedSweep::aggregate({run_shift(1)});
  EXPECT_THROW(summary.app("nope"), std::out_of_range);
  EXPECT_NO_THROW(summary.app("Shift"));

  // Same app count, different apps: {UR} and {FFT3D} must not be averaged.
  Report ur;
  ur.apps.push_back(AppReport{.app = "UR"});
  Report fft;
  fft.apps.push_back(AppReport{.app = "FFT3D"});
  EXPECT_THROW(SeedSweep::aggregate({ur, fft}), std::invalid_argument);
  EXPECT_THROW(SeedSweep::aggregate({ur, Report{}}), std::invalid_argument);
  EXPECT_NO_THROW(SeedSweep::aggregate({ur, ur}));
}

// --- ConfigFile ----------------------------------------------------------------

TEST(ConfigFile, ParsesTypedValues) {
  const ConfigFile cfg = ConfigFile::parse(R"(
# comment
; alt comment
routing = Q-adp
topo.g = 17
net.link_gbps = 100.5
cc.enabled = yes
qos.weights = 4, 2,1
)");
  EXPECT_EQ(cfg.get_string("routing"), "Q-adp");
  EXPECT_EQ(cfg.get_int("topo.g"), 17);
  EXPECT_DOUBLE_EQ(cfg.get_double("net.link_gbps"), 100.5);
  EXPECT_TRUE(cfg.get_bool("cc.enabled"));
  EXPECT_EQ(cfg.get_int_list("qos.weights"), (std::vector<int>{4, 2, 1}));
  // Fallbacks.
  EXPECT_EQ(cfg.get_int("missing", 9), 9);
  EXPECT_FALSE(cfg.get_bool("missing"));
  EXPECT_TRUE(cfg.get_int_list("missing").empty());
}

TEST(ConfigFile, SyntaxAndTypeErrors) {
  EXPECT_THROW(ConfigFile::parse("novalue\n"), std::runtime_error);
  EXPECT_THROW(ConfigFile::parse("= 3\n"), std::runtime_error);
  const ConfigFile cfg = ConfigFile::parse("x = abc\nb = maybe\n");
  EXPECT_THROW(cfg.get_int("x"), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("x"), std::invalid_argument);
  EXPECT_THROW(cfg.get_bool("b"), std::invalid_argument);
}

TEST(ConfigFile, DuplicateKeyErrorNamesBothLines) {
  try {
    ConfigFile::parse("routing = PAR\n# comment\nrouting = MIN\n");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("duplicate key 'routing'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
}

TEST(ConfigFile, TracksSourceLinesAndNamesThemInValueErrors) {
  const ConfigFile cfg = ConfigFile::parse("\n# header\nseed = 42\n\ntopo.g = nine\n");
  EXPECT_EQ(cfg.line_of("seed"), 3);
  EXPECT_EQ(cfg.line_of("topo.g"), 5);
  EXPECT_EQ(cfg.line_of("missing"), 0);
  try {
    cfg.get_int("topo.g");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 5"), std::string::npos) << error.what();
  }
  // Programmatically-set keys have no line; errors fall back to the key name.
  ConfigFile direct;
  direct.set("x", "abc");
  try {
    direct.get_int("x");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("key 'x'"), std::string::npos) << error.what();
  }
}

TEST(ConfigFile, StringLists) {
  const ConfigFile cfg = ConfigFile::parse("names = PAR, Q-adp ,MIN\nempty_item = a,,b\n");
  EXPECT_EQ(cfg.get_string_list("names"), (std::vector<std::string>{"PAR", "Q-adp", "MIN"}));
  EXPECT_TRUE(cfg.get_string_list("missing").empty());
  EXPECT_THROW(cfg.get_string_list("empty_item"), std::invalid_argument);
}

TEST(ConfigFile, SeedListsAndRangeSyntax) {
  const ConfigFile cfg = ConfigFile::parse("seeds = 42..46,100, 7\nsingle = 3..3\n");
  EXPECT_EQ(cfg.get_seed_list("seeds"),
            (std::vector<std::uint64_t>{42, 43, 44, 45, 46, 100, 7}));
  EXPECT_EQ(cfg.get_seed_list("single"), (std::vector<std::uint64_t>{3}));
  EXPECT_TRUE(cfg.get_seed_list("missing").empty());

  // Negative items must be rejected, not wrapped to huge values by stoull.
  for (const char* bad : {"9..3", "1..", "..4", "x..4", "1..y", "forty", "-1", "-1..3"}) {
    const ConfigFile broken = ConfigFile::parse("# pad\nseeds = " + std::string(bad) + "\n");
    try {
      broken.get_seed_list("seeds");
      FAIL() << "expected invalid_argument for '" << bad << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
          << bad << ": " << error.what();
    }
  }
}

TEST(ConfigFile, EmitRoundTripsExactly) {
  const ConfigFile cfg = ConfigFile::parse("b = 2\na = 1\nqos.weights = 4,1\n");
  const ConfigFile again = ConfigFile::parse(cfg.emit());
  EXPECT_EQ(cfg.values(), again.values());
  EXPECT_EQ(cfg.emit(), "a = 1\nb = 2\nqos.weights = 4,1\n");  // sorted keys
}

TEST(ConfigFile, LoadFromDisk) {
  const std::string path = std::string(::testing::TempDir()) + "/dfly_test.cfg";
  {
    std::ofstream out(path);
    out << "routing = UGALn\nseed = 77\n";
  }
  const ConfigFile cfg = ConfigFile::load(path);
  EXPECT_EQ(cfg.get_string("routing"), "UGALn");
  EXPECT_EQ(cfg.get_int("seed"), 77);
  std::remove(path.c_str());
  EXPECT_THROW(ConfigFile::load("/nonexistent/x.cfg"), std::runtime_error);
}

TEST(ApplyConfig, OverlaysOntoStudyConfig) {
  const ConfigFile cfg = ConfigFile::parse(R"(
topo.p = 2
topo.a = 4
topo.h = 2
topo.g = 9
routing = Q-adp
placement = contiguous
seed = 123
scale = 4
net.buffer_packets = 12
qos.num_classes = 2
qos.weights = 3,1
cc.enabled = true
qadp.alpha = 0.5
ugal.bias = 10
)");
  const StudyConfig out = apply_config(StudyConfig{}, cfg);
  EXPECT_EQ(out.topo.g, 9);
  EXPECT_EQ(out.topo.num_nodes(), 72);
  EXPECT_EQ(out.routing, "Q-adp");
  EXPECT_EQ(out.placement, PlacementPolicy::kContiguous);
  EXPECT_EQ(out.seed, 123u);
  EXPECT_EQ(out.scale, 4);
  EXPECT_EQ(out.net.buffer_packets, 12);
  EXPECT_EQ(out.net.qos.num_classes, 2);
  EXPECT_EQ(out.net.qos.weights, (std::vector<int>{3, 1}));
  EXPECT_TRUE(out.net.cc.enabled);
  EXPECT_DOUBLE_EQ(out.qadp.alpha, 0.5);
  EXPECT_EQ(out.ugal.bias, 10);
}

TEST(ApplyConfig, UnknownKeyThrows) {
  const ConfigFile cfg = ConfigFile::parse("routng = PAR\n");  // typo
  try {
    apply_config(StudyConfig{}, cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("routng"), std::string::npos);
  }
}

TEST(ApplyConfig, ScaleBelowOneIsRejectedNamingTheKey) {
  // Workloads clamp an iteration divisor below 1 to 1, so `scale = 0` used to
  // run at paper volume while the report recorded 0.
  for (const char* text : {"scale = 0\n", "scale = -1\n"}) {
    try {
      apply_config(StudyConfig{}, ConfigFile::parse(text));
      FAIL() << "expected invalid_argument for " << text;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("line 1"), std::string::npos) << what;
      EXPECT_NE(what.find("'scale' must be >= 1"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(apply_config(StudyConfig{}, ConfigFile::parse("scale = 1\n")).scale, 1);
}

// The full parse -> apply -> re-emit -> parse loop, for EVERY accepted key:
// a StudyConfig with no field left at its default must survive the trip with
// every key byte-equal. apply_config and config_to_file walk one shared key
// table, so this test pins both directions at once.
TEST(ApplyConfig, RoundTripsEveryAcceptedKey) {
  StudyConfig config;
  config.topo = DragonflyParams{3, 6, 3, 10};
  config.topo.arrangement = GlobalArrangement::kAbsolute;
  config.routing = "Q-adp";
  config.placement = PlacementPolicy::kContiguous;
  config.seed = 123456789012345ull;
  config.scale = 7;
  config.time_limit = 1234 * kMs;
  config.net.flit_bytes = 32;
  config.net.packet_bytes = 512;
  config.net.buffer_packets = 17;
  config.net.num_vcs = 5;
  config.net.link_gbps = 87.5;
  config.net.local_latency = 33 * kNs;
  config.net.global_latency = 451 * kNs;
  config.net.router_latency = 9 * kNs;
  config.protocol.eager_threshold = 12345;
  config.protocol.control_bytes = 16;
  config.net.qos.num_classes = 3;
  config.net.qos.weights = {5, 2, 1};
  config.net.qos.quantum_packets = 6;
  config.net.cc.enabled = true;
  config.net.cc.ecn_threshold_packets = 11;
  config.net.cc.md_factor = 0.625;
  config.net.cc.ai_step = 0.0325;
  config.net.cc.min_rate = 0.07;
  config.qadp.alpha = 0.35;
  config.qadp.epsilon = 0.002;
  config.qadp.queue_weight = 1.75;
  config.ugal.bias = 4;
  config.ugal.nonmin_weight = 3;
  config.ugal.min_candidates = 3;
  config.ugal.nonmin_candidates = 4;
  config.faults.add(LinkFault{12, 11, 8, 500 * kNs});
  config.faults.add(LinkFault{0, 14, 4, 0});

  const ConfigFile emitted = config_to_file(config);
  const ConfigFile reparsed = ConfigFile::parse(emitted.emit());
  const StudyConfig rebuilt = apply_config(StudyConfig{}, reparsed);

  // Key-for-key equality of the re-emitted map proves every accepted key
  // made the round trip without loss...
  EXPECT_EQ(config_to_file(rebuilt).values(), emitted.values());
  // ...and the structural spot-checks pin the semantic fields too.
  EXPECT_EQ(rebuilt.topo, config.topo);
  EXPECT_EQ(rebuilt.net, config.net);
  EXPECT_EQ(rebuilt.routing, config.routing);
  EXPECT_EQ(rebuilt.placement, config.placement);
  EXPECT_EQ(rebuilt.seed, config.seed);
  EXPECT_EQ(rebuilt.scale, config.scale);
  EXPECT_EQ(rebuilt.time_limit, config.time_limit);
  EXPECT_EQ(rebuilt.protocol, config.protocol);
  EXPECT_EQ(rebuilt.qadp, config.qadp);
  EXPECT_EQ(rebuilt.ugal, config.ugal);
  EXPECT_EQ(rebuilt.faults, config.faults);
}

TEST(ApplyConfig, DefaultConfigRoundTripsAndOmitsEmptyFaults) {
  const ConfigFile emitted = config_to_file(StudyConfig{});
  EXPECT_FALSE(emitted.has("faults"));  // empty plan -> no key
  const StudyConfig rebuilt = apply_config(StudyConfig{}, ConfigFile::parse(emitted.emit()));
  EXPECT_EQ(config_to_file(rebuilt).values(), emitted.values());
}

TEST(ApplyConfig, NewHardeningKeysApply) {
  const ConfigFile cfg = ConfigFile::parse(
      "qadp.queue_weight = 2.5\nugal.min_candidates = 3\nugal.nonmin_candidates = 1\n"
      "protocol.control_bytes = 64\nfaults = 1:2:8:500,3:4:2\n");
  const StudyConfig out = apply_config(StudyConfig{}, cfg);
  EXPECT_DOUBLE_EQ(out.qadp.queue_weight, 2.5);
  EXPECT_EQ(out.ugal.min_candidates, 3);
  EXPECT_EQ(out.ugal.nonmin_candidates, 1);
  EXPECT_EQ(out.protocol.control_bytes, 64);
  ASSERT_EQ(out.faults.size(), 2u);
  EXPECT_EQ(out.faults.faults()[0], (LinkFault{1, 2, 8, 500 * kNs}));
  EXPECT_EQ(out.faults.faults()[1], (LinkFault{3, 4, 2, 0}));
}

TEST(ApplyConfig, ConfiguredStudyRuns) {
  const ConfigFile cfg = ConfigFile::parse(
      "topo.p = 2\ntopo.a = 4\ntopo.h = 2\ntopo.g = 9\nrouting = UGALg\n");
  Study study(apply_config(StudyConfig{}, cfg));
  workloads::ShiftParams p;
  p.iterations = 20;
  study.add_motif(std::make_unique<workloads::ShiftMotif>(p), 16, "S");
  EXPECT_TRUE(study.run().completed);
}

// --- JsonWriter / reports ---------------------------------------------------------

TEST(JsonWriter, BuildsNestedDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("dfly");
  w.key("n").value(3);
  w.key("pi").value(3.5);
  w.key("ok").value(true);
  w.key("nothing").null();
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("nested").begin_object().key("x").value("y").end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"dfly","n":3,"pi":3.5,"ok":true,"nothing":null,)"
            R"("list":[1,2],"nested":{"x":"y"}})");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("a\"b\\c\nd\te");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JsonWriter, MisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key in array
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), std::logic_error);  // unclosed
  }
  {
    JsonWriter w;
    w.begin_object();
    w.key("a");
    EXPECT_THROW(w.key("b"), std::logic_error);  // consecutive keys
  }
  {
    JsonWriter w;
    w.value(1);
    EXPECT_THROW(w.value(2), std::logic_error);  // two top-level values
  }
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(ReportJson, ContainsKeyMetrics) {
  const Report report = run_shift(5);
  const std::string json = report_to_json(report);
  EXPECT_NE(json.find("\"routing\":\"PAR\""), std::string::npos);
  EXPECT_NE(json.find("\"apps\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"comm_mean_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"completed\":true"), std::string::npos);
}

TEST(SweepJson, ContainsStats) {
  const SeedSweep sweep(50, 3);
  const SweepSummary summary = sweep_shift(sweep);
  const std::string json = sweep_to_json(summary);
  EXPECT_NE(json.find("\"runs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ci95_half\""), std::string::npos);
  EXPECT_NE(json.find("\"app\":\"Shift\""), std::string::npos);
}

TEST(SaveJson, RoundTripsToDisk) {
  const std::string path = std::string(::testing::TempDir()) + "/report.json";
  save_json(path, "{\"x\":1}");
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "{\"x\":1}");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dfly
