// Tests for the unified campaign core (core/plan.hpp): deterministic
// expansion, streaming sinks, jobs-independence, fault isolation, resume,
// sharding and config-file plans.

#include "core/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/json_report.hpp"
#include "core/mixed.hpp"

namespace dfly {
namespace {

StudyConfig tiny_config(const std::string& routing = "UGALg") {
  StudyConfig config;
  config.topo = DragonflyParams::tiny();
  config.routing = routing;
  config.scale = 64;
  return config;
}

ExperimentPlan tiny_single_plan() {
  ExperimentPlan plan;
  plan.base = tiny_config();
  plan.mode = PlanMode::kSingle;
  plan.jobs = {{"UR", 32}};
  return plan;
}

std::string jsonl_of(const ExperimentPlan& plan, int jobs) {
  std::ostringstream out;
  JsonlSink sink(out);
  run_plan(plan, sink, jobs);
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

Report tiny_experiment(std::uint64_t seed) {
  StudyConfig config = tiny_config();
  config.seed = seed;
  Study study(config);
  study.add_app("UR", 32);
  return study.run();
}

// --- expansion ---------------------------------------------------------------

TEST(PlanExpansion, NestingOrderIsVariantRoutingPlacementScaleSeed) {
  ExperimentPlan plan = tiny_single_plan();
  PlanVariant qos;
  qos.label = "qos2";
  qos.overrides.set("qos.num_classes", "2");
  plan.variants = {PlanVariant{"base", {}}, qos};
  plan.routings = {"MIN", "PAR"};
  plan.placements = {PlacementPolicy::kRandom, PlacementPolicy::kLinear};
  plan.scales = {64, 128};
  plan.seeds = {1, 2};

  const std::vector<PlanCell> cells = plan.expand();
  ASSERT_EQ(cells.size(), 32u);
  // Innermost axis: seed varies fastest...
  EXPECT_EQ(cells[0].config.seed, 1u);
  EXPECT_EQ(cells[1].config.seed, 2u);
  // ...then scale...
  EXPECT_EQ(cells[0].config.scale, 64);
  EXPECT_EQ(cells[2].config.scale, 128);
  // ...then placement...
  EXPECT_EQ(cells[0].config.placement, PlacementPolicy::kRandom);
  EXPECT_EQ(cells[4].config.placement, PlacementPolicy::kLinear);
  // ...then routing...
  EXPECT_EQ(cells[0].config.routing, "MIN");
  EXPECT_EQ(cells[8].config.routing, "PAR");
  // ...then variant (outermost).
  EXPECT_EQ(cells[0].variant, "base");
  EXPECT_EQ(cells[16].variant, "qos2");
  EXPECT_EQ(cells[16].config.net.qos.num_classes, 2);
  EXPECT_EQ(cells[0].config.net.qos.num_classes, 1);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].kind, PlanCellKind::kSingle);
    EXPECT_EQ(cells[i].jobs, plan.jobs);
  }
}

TEST(PlanExpansion, EmptyAxesUseTheBasePoint) {
  const ExperimentPlan plan = tiny_single_plan();
  const std::vector<PlanCell> cells = plan.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].config.routing, "UGALg");
  EXPECT_EQ(cells[0].config.seed, 42u);
  EXPECT_EQ(cells[0].variant, "");
}

TEST(PlanExpansion, PairwiseProductIsTargetMajorWithinAxisPoint) {
  ExperimentPlan plan;
  plan.base = tiny_config();
  plan.mode = PlanMode::kPairwise;
  plan.routings = {"MIN", "UGALg"};
  plan.targets = {"UR", "FFT3D"};
  plan.backgrounds = {"None", "CosmoFlow"};
  const std::vector<PlanCell> cells = plan.expand();
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells[0].target, "UR");
  EXPECT_EQ(cells[0].background, "None");
  EXPECT_EQ(cells[1].background, "CosmoFlow");
  EXPECT_EQ(cells[2].target, "FFT3D");
  EXPECT_EQ(cells[4].config.routing, "UGALg");
  for (const PlanCell& cell : cells) EXPECT_EQ(cell.kind, PlanCellKind::kPairwise);
}

TEST(PlanExpansion, MixedEmitsTheMixThenSolosInTable2Order) {
  ExperimentPlan plan;
  plan.base = tiny_config();
  plan.mode = PlanMode::kMixed;
  plan.routings = {"MIN", "PAR"};
  const std::vector<PlanCell> cells = plan.expand();
  const std::size_t stride = 1 + table2_mix().size();
  ASSERT_EQ(cells.size(), 2 * stride);
  EXPECT_EQ(cells[0].kind, PlanCellKind::kMixed);
  for (std::size_t a = 0; a < table2_mix().size(); ++a) {
    EXPECT_EQ(cells[1 + a].kind, PlanCellKind::kMixedSolo);
    EXPECT_EQ(cells[1 + a].target, table2_mix()[a].app);
  }
  EXPECT_EQ(cells[stride].kind, PlanCellKind::kMixed);
  EXPECT_EQ(cells[stride].config.routing, "PAR");

  plan.mixed_solos = false;
  EXPECT_EQ(plan.expand().size(), 2u);
}

TEST(PlanValidation, RejectsBadPlans) {
  ExperimentPlan plan = tiny_single_plan();
  plan.jobs.clear();
  EXPECT_THROW(plan.expand(), std::invalid_argument);  // single without jobs

  plan = tiny_single_plan();
  plan.jobs = {{"NoSuchApp", 8}};
  EXPECT_THROW(plan.expand(), std::invalid_argument);  // unknown app

  plan = tiny_single_plan();
  plan.routings = {"NoSuchRouting"};
  EXPECT_THROW(plan.expand(), std::invalid_argument);  // unknown routing

  plan = tiny_single_plan();
  plan.scales = {0};
  EXPECT_THROW(plan.expand(), std::invalid_argument);  // non-positive scale

  plan = ExperimentPlan{};
  plan.mode = PlanMode::kPairwise;
  EXPECT_THROW(plan.expand(), std::invalid_argument);  // pairwise without matrix

  plan = ExperimentPlan{};
  plan.mode = PlanMode::kCustom;
  EXPECT_THROW(plan.expand(), std::invalid_argument);  // custom without runner
}

// --- execution and sinks -----------------------------------------------------

TEST(PlanParallelDeterminism, JsonlByteIdenticalAtJobsOneAndFour) {
  ExperimentPlan plan = tiny_single_plan();
  plan.routings = {"MIN", "UGALg"};
  plan.seeds = {42, 43, 44};
  const std::string sequential = jsonl_of(plan, 1);
  const std::string parallel = jsonl_of(plan, 4);
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, parallel);
  // One self-contained line per cell.
  EXPECT_EQ(std::count(sequential.begin(), sequential.end(), '\n'), 6);
}

TEST(PlanParallelDeterminism, CollectSinkMatchesDirectCellRuns) {
  ExperimentPlan plan = tiny_single_plan();
  plan.seeds = {7, 8};
  CollectSink sink;
  const PlanOutcome outcome = run_plan(plan, sink, 4);
  EXPECT_EQ(outcome.cells, 2u);
  EXPECT_EQ(outcome.completed, 2u);
  ASSERT_EQ(sink.reports().size(), 2u);
  for (const PlanCell& cell : sink.cells()) {
    EXPECT_EQ(report_to_json(sink.reports()[cell.index]),
              report_to_json(run_plan_cell(plan, cell)));
  }
}

TEST(PlanSinks, StreamInCellOrderWithBeginAndEnd) {
  struct OrderSink final : PlanSink {
    std::vector<std::size_t> order;
    int begins{0}, ends{0};
    std::size_t expected{0};
    void begin(const ExperimentPlan&, const std::vector<PlanCell>& cells) override {
      ++begins;
      expected = cells.size();
    }
    void cell_done(const PlanCell& cell, const Report&) override { order.push_back(cell.index); }
    void end() override { ++ends; }
  } sink;
  ExperimentPlan plan = tiny_single_plan();
  plan.seeds = {1, 2, 3, 4, 5};
  run_plan(plan, sink, 4);
  EXPECT_EQ(sink.begins, 1);
  EXPECT_EQ(sink.ends, 1);
  ASSERT_EQ(sink.order.size(), 5u);
  EXPECT_EQ(sink.expected, 5u);
  for (std::size_t i = 0; i < sink.order.size(); ++i) EXPECT_EQ(sink.order[i], i);
}

TEST(PlanSinks, CsvEmitsHeaderAndOneRowPerApp) {
  ExperimentPlan plan;
  plan.base = tiny_config();
  plan.mode = PlanMode::kSingle;
  plan.jobs = {{"UR", 20}, {"CosmoFlow", 20}};
  std::ostringstream out;
  CsvSink sink(out);
  run_plan(plan, sink, 1);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("cell,kind,variant,routing,placement,seed,scale", 0), 0u);
  int rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    EXPECT_EQ(line.rfind("0,single,", 0), 0u);
  }
  EXPECT_EQ(rows, 2);  // one per app
}

TEST(PlanSinks, FileSinksRejectUnwritablePaths) {
  EXPECT_THROW(JsonlSink("/nonexistent-dir/x.jsonl"), std::runtime_error);
  EXPECT_THROW(CsvSink("/nonexistent-dir/x.csv"), std::runtime_error);
}

// --- fault isolation, retry, timeout -----------------------------------------

TEST(PlanParallelIsolation, ThrowingCellsAreRecordedAndSurvivorsMatchFreshRuns) {
  // Real simulation cells fuzzed with two throwing cells through ONE run_plan
  // call (shared arenas + blueprint cache engaged): the failures are recorded
  // and isolated, every other cell is delivered in order, and each survivor
  // is byte-identical to a fresh fully-private run — a poisoned worker arena
  // or a torn cache entry would break that.
  ExperimentPlan plan;
  plan.mode = PlanMode::kCustom;
  plan.seeds = {1, 2, 3, 4, 5, 6};
  plan.custom = [](const PlanCell& cell) -> Report {
    if (cell.config.seed == 3 || cell.config.seed == 5) {
      throw std::runtime_error("boom seed " + std::to_string(cell.config.seed));
    }
    return tiny_experiment(cell.config.seed);
  };
  CollectSink sink;
  const PlanOutcome outcome = run_plan(plan, sink, 4);

  EXPECT_EQ(outcome.cells, 6u);
  EXPECT_EQ(outcome.executed, 6u);
  EXPECT_EQ(outcome.completed, 4u);
  EXPECT_FALSE(outcome.all_ok());
  EXPECT_FALSE(outcome.worker_errors.any());
  ASSERT_EQ(outcome.failures.size(), 2u);
  EXPECT_EQ(outcome.failures[0].index, 2u);
  EXPECT_EQ(outcome.failures[1].index, 4u);
  EXPECT_NE(outcome.failures[0].message.find("boom seed 3"), std::string::npos);
  EXPECT_FALSE(outcome.failures[0].timeout);
  EXPECT_EQ(outcome.failures[0].attempts, 1);  // non-transient: no retry
  ASSERT_EQ(sink.failures().size(), 2u);
  EXPECT_EQ(sink.failures()[0].index, 2u);

  // The references run on this thread, where no arena or cache is bound.
  ASSERT_EQ(sink.reports().size(), 6u);
  for (const std::size_t i : {0u, 1u, 3u, 5u}) {
    EXPECT_EQ(report_to_json(sink.reports()[i]),
              report_to_json(tiny_experiment(plan.seeds[i])))
        << "survivor cell " << i;
  }
}

TEST(PlanExecution, TransientFailuresAreRetriedUntilSuccess) {
  std::atomic<int> attempts{0};
  ExperimentPlan plan;
  plan.mode = PlanMode::kCustom;
  plan.seeds = {7};
  plan.cell_retries = 3;
  plan.custom = [&attempts](const PlanCell&) -> Report {
    if (attempts.fetch_add(1) < 2) throw TransientCellError("transient pressure");
    Report report;
    report.completed = true;
    return report;
  };
  CollectSink sink;
  const PlanOutcome outcome = run_plan(plan, sink, 1);
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_TRUE(outcome.failures.empty());
  EXPECT_TRUE(outcome.all_ok());
}

TEST(PlanExecution, ExhaustedRetriesRecordTheAttemptCount) {
  std::atomic<int> attempts{0};
  ExperimentPlan plan;
  plan.mode = PlanMode::kCustom;
  plan.seeds = {7};
  plan.cell_retries = 1;
  plan.custom = [&attempts](const PlanCell&) -> Report {
    ++attempts;
    throw TransientCellError("still transient");
  };
  CollectSink sink;
  const PlanOutcome outcome = run_plan(plan, sink, 1);
  EXPECT_EQ(attempts.load(), 2);  // initial try + one retry
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].attempts, 2);
  EXPECT_FALSE(outcome.failures[0].timeout);
  EXPECT_NE(outcome.failures[0].message.find("still transient"), std::string::npos);
}

TEST(PlanExecution, NonTransientFailuresAreNotRetried) {
  std::atomic<int> attempts{0};
  ExperimentPlan plan;
  plan.mode = PlanMode::kCustom;
  plan.seeds = {7};
  plan.cell_retries = 5;
  plan.custom = [&attempts](const PlanCell&) -> Report {
    ++attempts;
    throw std::logic_error("deterministic bug");
  };
  CollectSink sink;
  const PlanOutcome outcome = run_plan(plan, sink, 1);
  EXPECT_EQ(attempts.load(), 1);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].attempts, 1);
}

TEST(PlanExecution, WatchdogRecordsTimeoutWithoutRetry) {
  // A real simulation cell with an already-expired wall budget: the Engine's
  // cooperative deadline fires on the first event, the cell is recorded as a
  // timeout, and — timeouts being final — the generous retry budget is never
  // consumed.
  ExperimentPlan plan = tiny_single_plan();
  plan.cell_timeout_s = 1e-9;
  plan.cell_retries = 5;
  CollectSink sink;
  const PlanOutcome outcome = run_plan(plan, sink, 1);
  EXPECT_EQ(outcome.completed, 0u);
  EXPECT_FALSE(outcome.all_ok());
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_TRUE(outcome.failures[0].timeout);
  EXPECT_EQ(outcome.failures[0].attempts, 1);
}

TEST(PlanSinks, ThrowingSinkBecomesARecordedSinkErrorFailure) {
  struct BadSink final : PlanSink {
    int ends{0};
    std::vector<std::size_t> delivered;
    void cell_done(const PlanCell& cell, const Report&) override {
      if (cell.index == 1) throw std::runtime_error("disk full");
      delivered.push_back(cell.index);
    }
    void end() override { ++ends; }
  } sink;
  ExperimentPlan plan;
  plan.mode = PlanMode::kCustom;
  plan.seeds = {1, 2, 3};
  plan.custom = [](const PlanCell&) {
    Report report;
    report.completed = true;
    return report;
  };
  const PlanOutcome outcome = run_plan(plan, sink, 1);
  EXPECT_EQ(sink.ends, 1);  // end() runs even after a sink write failed
  EXPECT_EQ(sink.delivered, (std::vector<std::size_t>{0, 2}));
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].index, 1u);
  EXPECT_TRUE(outcome.failures[0].sink_error);
  EXPECT_NE(outcome.failures[0].message.find("disk full"), std::string::npos);
  EXPECT_FALSE(outcome.all_ok());
}

// --- cell identity hash ------------------------------------------------------

TEST(PlanCellHash, StableAcrossExpansionsAndSensitiveToCellIdentity) {
  ExperimentPlan plan = tiny_single_plan();
  plan.seeds = {1, 2};
  const std::vector<PlanCell> first = plan.expand();
  const std::vector<PlanCell> second = plan.expand();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(plan_cell_hash(first[0]), plan_cell_hash(second[0]));
  EXPECT_EQ(plan_cell_hash(first[1]), plan_cell_hash(second[1]));
  EXPECT_NE(plan_cell_hash(first[0]), plan_cell_hash(first[1]));

  PlanCell tweaked = first[0];
  tweaked.config.scale *= 2;
  EXPECT_NE(plan_cell_hash(tweaked), plan_cell_hash(first[0]));
  tweaked = first[0];
  tweaked.index = 99;
  EXPECT_NE(plan_cell_hash(tweaked), plan_cell_hash(first[0]));
}

TEST(PlanCellHash, ValuesArePinnedForJournalCompatibility) {
  // Journals and daemon spools store plan_cell_hash, and --resume compares
  // it against a fresh expansion. These literals are the values earlier
  // builds wrote; a change to any of them means a journal written by an
  // older build no longer resumes. The cases vary one field each.
  const PlanCell base = tiny_single_plan().expand().at(0);
  struct Case {
    const char* name;
    void (*edit)(PlanCell&);
    std::uint64_t expected;
  };
  const Case cases[] = {
      {"base", [](PlanCell&) {}, 0x7405bd9218212895ull},
      {"routing PAR", [](PlanCell& c) { c.config.routing = "PAR"; }, 0xc631174117d2719cull},
      {"routing Q-adp", [](PlanCell& c) { c.config.routing = "Q-adp"; }, 0xa1c506d7628a2f4bull},
      {"placement linear",
       [](PlanCell& c) { c.config.placement = PlacementPolicy::kLinear; }, 0xc6659654ec628ae8ull},
      {"eager threshold", [](PlanCell& c) { c.config.protocol.eager_threshold = 4096; },
       0x9f143191aa9c4ad0ull},
      {"ugal bias", [](PlanCell& c) { c.config.ugal.bias = 3; }, 0xb23038c613b59adfull},
      {"qadp alpha", [](PlanCell& c) { c.config.qadp.alpha = 0.25; }, 0xd998ad4a017560feull},
      {"faults", [](PlanCell& c) { c.config.faults = parse_fault_plan("0:14:4:500,8:12:2"); },
       0x37d7499afbf733d3ull},
      {"variant", [](PlanCell& c) { c.variant = "qos"; }, 0x8e2165bbe7d0c7c7ull},
      {"seed", [](PlanCell& c) { c.config.seed = 7; }, 0xbfae2deb42ef7c14ull},
      {"scale", [](PlanCell& c) { c.config.scale = 128; }, 0x3ddb43e576862855ull},
      {"paper machine", [](PlanCell& c) { c.config.topo = DragonflyParams::paper(); },
       0x8569159e030a166aull},
      {"qos weights",
       [](PlanCell& c) {
         c.config.net.qos.num_classes = 2;
         c.config.net.qos.weights = {4, 1};
       },
       0x02730bedda8b967dull},
      {"congestion control",
       [](PlanCell& c) {
         c.config.net.cc.enabled = true;
         c.config.net.cc.ecn_threshold_packets = 10;
       },
       0x37d7ff0264e6eaa6ull},
      {"terminal latency", [](PlanCell& c) { c.config.net.terminal_latency = 40 * kNs; },
       0x5e7af8aa1dd37f86ull},
      {"pairwise cell",
       [](PlanCell& c) {
         c.kind = PlanCellKind::kPairwise;
         c.target = "FFT3D";
         c.background = "UR";
         c.jobs.clear();
       },
       0xac5157e8b506d6e1ull},
  };
  for (const Case& test : cases) {
    PlanCell cell = base;
    test.edit(cell);
    EXPECT_EQ(plan_cell_hash(cell), test.expected)
        << test.name << ": 0x" << std::hex << plan_cell_hash(cell);
  }
}

// --- sharding + merge --------------------------------------------------------

TEST(PlanSharding, ParseShardAcceptsKOverNAndRejectsJunk) {
  EXPECT_EQ(parse_shard("1/1").index, 0u);
  EXPECT_EQ(parse_shard("1/1").count, 1u);
  EXPECT_FALSE(parse_shard("1/1").active());
  const PlanShard shard = parse_shard("2/4");
  EXPECT_EQ(shard.index, 1u);
  EXPECT_EQ(shard.count, 4u);
  EXPECT_TRUE(shard.active());
  EXPECT_TRUE(shard.selects(1));
  EXPECT_FALSE(shard.selects(0));
  EXPECT_TRUE(shard.selects(5));
  for (const char* bad : {"", "0/4", "5/4", "1/0", "a/b", "1/", "/2", "-1/2", "1/2/3"}) {
    EXPECT_THROW(parse_shard(bad), std::invalid_argument) << bad;
  }
}

TEST(PlanParallelSharding, ShardUnionMergesByteIdenticalToFullRun) {
  ExperimentPlan plan = tiny_single_plan();
  plan.seeds = {1, 2, 3, 4, 5};
  const std::string full = jsonl_of(plan, 2);

  const std::string dir = ::testing::TempDir();
  std::vector<std::string> parts;
  std::size_t total_cells = 0;
  for (int k = 1; k <= 2; ++k) {
    const std::string path = dir + "/dfly_shard_" + std::to_string(k) + ".jsonl";
    JsonlSink sink(path);
    RunPlanOptions options;
    options.jobs = 2;
    options.shard = parse_shard(std::to_string(k) + "/2");
    const PlanOutcome outcome = run_plan(plan, sink, options);
    EXPECT_TRUE(outcome.all_ok()) << "shard " << k;
    total_cells += outcome.cells;
    parts.push_back(path);
  }
  EXPECT_EQ(total_cells, 5u);  // shards partition the expansion

  const std::string merged = dir + "/dfly_shard_merged.jsonl";
  EXPECT_EQ(merge_shard_jsonl(parts, merged, nullptr), 5u);
  EXPECT_EQ(read_file(merged), full);

  // Overlapping shards are a fatal reassembly error, not a silent overwrite.
  EXPECT_THROW(merge_shard_jsonl({parts[0], parts[0], parts[1]}, merged, nullptr),
               std::runtime_error);

  for (const std::string& path : parts) std::remove(path.c_str());
  std::remove(merged.c_str());
}

TEST(PlanSharding, MergeRejectsALineWithoutALeadingCellIndex) {
  const std::string dir = ::testing::TempDir();
  const std::string part = dir + "/dfly_shard_no_cell.jsonl";
  write_file(part, "{\"cell\":0}\n{\"seed\":1,\"cell\":1}\n");
  try {
    merge_shard_jsonl({part}, dir + "/dfly_shard_no_cell_merged.jsonl", nullptr);
    ADD_FAILURE() << "merged a line without a leading \"cell\" index";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "merge_shard_jsonl: " + part + ": line without a leading \"cell\" index");
  }
  std::remove(part.c_str());
}

TEST(PlanSharding, MergeRejectsANonNumericCellIndex) {
  const std::string dir = ::testing::TempDir();
  const std::string part = dir + "/dfly_shard_bad_cell.jsonl";
  write_file(part, "{\"cell\":\"7\"}\n");
  try {
    merge_shard_jsonl({part}, dir + "/dfly_shard_bad_cell_merged.jsonl", nullptr);
    ADD_FAILURE() << "merged a line with a non-numeric \"cell\" index";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "merge_shard_jsonl: " + part + ": malformed \"cell\" index");
  }
  std::remove(part.c_str());
}

// --- journal + resume --------------------------------------------------------

TEST(PlanParallelResume, TornCrashStateResumesByteIdentical) {
  ExperimentPlan plan = tiny_single_plan();
  plan.seeds = {1, 2, 3, 4};
  const std::string reference = jsonl_of(plan, 2);

  const std::string dir = ::testing::TempDir();
  const std::string jsonl = dir + "/dfly_resume.jsonl";
  const std::string journal = dir + "/dfly_resume.journal";
  std::remove(jsonl.c_str());
  std::remove(journal.c_str());

  // Uninterrupted journaled run: establishes the per-cell output offsets.
  {
    PlanJournal log(journal);
    JsonlSink sink(jsonl);
    RunPlanOptions options;
    options.jobs = 2;
    options.journal = &log;
    options.output_offset = [&sink] { return sink.bytes_written(); };
    const PlanOutcome outcome = run_plan(plan, sink, options);
    EXPECT_TRUE(outcome.all_ok());
  }
  const std::vector<JournalRecord> full_records = PlanJournal::recover(journal);
  ASSERT_EQ(full_records.size(), 4u);
  EXPECT_EQ(read_file(jsonl), reference);

  // Emulate kill -9 after cell 1: the output holds cells 0-1 plus a torn
  // prefix of cell 2's line (flushed but never journaled), and the journal
  // holds records 0-1 plus a record torn mid-write.
  const std::uint64_t safe = full_records[1].offset;
  ASSERT_GE(reference.size(), safe + 29);
  write_file(jsonl, reference.substr(0, safe) + reference.substr(safe, 29));
  write_file(journal, PlanJournal::format(full_records[0]) + "\n" +
                          PlanJournal::format(full_records[1]) + "\n" +
                          "{\"cell\":2,\"ok\":tr");

  // resume_output repairs the journal in place and truncates the output
  // back to the last journaled offset, cutting the orphan tail.
  const std::vector<JournalRecord> records = resume_output(journal, jsonl);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], full_records[0]);
  EXPECT_EQ(records[1], full_records[1]);

  PlanJournal log(journal);
  JsonlSink sink(jsonl, /*append=*/true);
  EXPECT_EQ(sink.bytes_written(), safe);
  RunPlanOptions options;
  options.jobs = 2;
  options.journal = &log;
  options.resume = &records;
  options.output_offset = [&sink] { return sink.bytes_written(); };
  const PlanOutcome outcome = run_plan(plan, sink, options);
  EXPECT_EQ(outcome.cells, 4u);
  EXPECT_EQ(outcome.resumed, 2u);
  EXPECT_EQ(outcome.executed, 2u);
  EXPECT_TRUE(outcome.all_ok());

  EXPECT_EQ(read_file(jsonl), reference);
  EXPECT_EQ(PlanJournal::recover(journal).size(), 4u);

  std::remove(jsonl.c_str());
  std::remove(journal.c_str());
}

TEST(PlanParallelResume, RefusesAJournalFromADifferentPlan) {
  ExperimentPlan plan = tiny_single_plan();
  plan.seeds = {1, 2};
  JournalRecord stale;
  stale.cell = 0;
  stale.ok = true;
  stale.completed = true;
  stale.hash = 0xdeadbeefu;  // no expansion of this plan hashes to this
  const std::vector<JournalRecord> records{stale};
  RunPlanOptions options;
  options.resume = &records;
  CollectSink sink;
  EXPECT_THROW(run_plan(plan, sink, options), std::runtime_error);
}

TEST(PlanExecution, CustomCellsSeeTheResolvedConfig) {
  ExperimentPlan plan;
  plan.mode = PlanMode::kCustom;
  plan.routings = {"MIN", "PAR"};
  plan.seeds = {5, 6};
  plan.custom = [](const PlanCell& cell) {
    Report report;
    report.routing = cell.config.routing + "/" + std::to_string(cell.config.seed);
    report.completed = true;
    return report;
  };
  CollectSink sink;
  run_plan(plan, sink, 1);
  ASSERT_EQ(sink.reports().size(), 4u);
  EXPECT_EQ(sink.reports()[0].routing, "MIN/5");
  EXPECT_EQ(sink.reports()[3].routing, "PAR/6");
}

// --- differently-shaped cells through one shared cache/arena -----------------

TEST(PlanParallelDeterminism, DifferentlyShapedVariantsThroughOneCacheMatchFreshRuns) {
  // Four shapes (two topologies x QoS on/off) and two routings fuzzed
  // through ONE run_plan call: every worker reuses its arena storage and the
  // shared BlueprintCache across shape changes. Each cell must still be
  // byte-identical to a fresh, fully-private run.
  ExperimentPlan plan;
  plan.base = tiny_config();
  plan.mode = PlanMode::kSingle;
  plan.jobs = {{"UR", 16}};
  PlanVariant smaller;
  smaller.label = "smaller";
  smaller.overrides.set("topo.g", "5");  // 40-node machine (a*h=8 = 2*(g-1))
  PlanVariant qos;
  qos.label = "qos";
  qos.overrides.set("qos.num_classes", "2");
  qos.overrides.set("qos.weights", "4,1");
  plan.variants = {PlanVariant{"base", {}}, smaller, qos};
  plan.routings = {"MIN", "Q-adp"};
  plan.seeds = {42, 43};

  CollectSink sink;
  run_plan(plan, sink, 4);

  // The references run on this thread, where no arena or cache is bound.
  for (const PlanCell& cell : sink.cells()) {
    EXPECT_EQ(report_to_json(sink.reports()[cell.index]),
              report_to_json(run_plan_cell(plan, cell)))
        << "cell " << cell.index << " variant=" << cell.variant;
  }
}

// --- config-file plans -------------------------------------------------------

TEST(PlanFromConfig, ParsesAxesModesAndVariants) {
  const ConfigFile file = ConfigFile::parse(R"(
topo.p = 2
topo.a = 4
topo.h = 2
topo.g = 9
scale = 64
plan.name = demo
plan.mode = pairwise
plan.routings = MIN, UGALg
plan.placements = random,linear
plan.scales = 64,128
plan.seeds = 42..44,100
plan.targets = UR
plan.backgrounds = None,CosmoFlow
plan.variant.base =
plan.variant.qos2 = qos.num_classes=2; qos.weights=4,1
)");
  const ExperimentPlan plan = plan_from_config(file);
  EXPECT_EQ(plan.name, "demo");
  EXPECT_EQ(plan.mode, PlanMode::kPairwise);
  EXPECT_EQ(plan.base.topo.g, 9);
  EXPECT_EQ(plan.base.scale, 64);
  EXPECT_EQ(plan.routings, (std::vector<std::string>{"MIN", "UGALg"}));
  EXPECT_EQ(plan.placements,
            (std::vector<PlacementPolicy>{PlacementPolicy::kRandom, PlacementPolicy::kLinear}));
  EXPECT_EQ(plan.scales, (std::vector<int>{64, 128}));
  EXPECT_EQ(plan.seeds, (std::vector<std::uint64_t>{42, 43, 44, 100}));
  EXPECT_EQ(plan.targets, (std::vector<std::string>{"UR"}));
  EXPECT_EQ(plan.backgrounds, (std::vector<std::string>{"None", "CosmoFlow"}));
  // Variants arrive in sorted label order (std::map key order).
  ASSERT_EQ(plan.variants.size(), 2u);
  EXPECT_EQ(plan.variants[0].label, "base");
  EXPECT_TRUE(plan.variants[0].overrides.values().empty());
  EXPECT_EQ(plan.variants[1].label, "qos2");
  EXPECT_EQ(plan.variants[1].overrides.get_int("qos.num_classes"), 2);
  EXPECT_EQ(plan.variants[1].overrides.get_int_list("qos.weights"),
            (std::vector<int>{4, 1}));
  // 2 variants x 2 routings x 2 placements x 2 scales x 4 seeds x 2 cells.
  EXPECT_EQ(plan.expand().size(), 128u);
}

TEST(PlanFromConfig, ParsesSingleModeJobLists) {
  const ConfigFile file = ConfigFile::parse(
      "plan.mode = single\nplan.jobs = FFT3D:528, Halo3D\n");
  const ExperimentPlan plan = plan_from_config(file);
  ASSERT_EQ(plan.jobs.size(), 2u);
  EXPECT_EQ(plan.jobs[0], (PlanJob{"FFT3D", 528}));
  EXPECT_EQ(plan.jobs[1], (PlanJob{"Halo3D", 0}));
}

TEST(PlanFromConfig, ParsesRobustnessKnobs) {
  const ExperimentPlan plan = plan_from_config(ConfigFile::parse(
      "plan.mode = single\nplan.jobs = UR\nplan.cell_timeout_s = 900\nplan.cell_retries = 4\n"));
  EXPECT_EQ(plan.cell_timeout_s, 900.0);
  EXPECT_EQ(plan.cell_retries, 4);

  // Defaults when unset: no watchdog, two transient retries.
  const ExperimentPlan defaults =
      plan_from_config(ConfigFile::parse("plan.mode = single\nplan.jobs = UR\n"));
  EXPECT_EQ(defaults.cell_timeout_s, 0.0);
  EXPECT_EQ(defaults.cell_retries, 2);

  EXPECT_THROW(plan_from_config(ConfigFile::parse(
                   "plan.mode = single\nplan.jobs = UR\nplan.cell_retries = -1\n")),
               std::invalid_argument);
  EXPECT_THROW(plan_from_config(ConfigFile::parse(
                   "plan.mode = single\nplan.jobs = UR\nplan.cell_timeout_s = -2\n")),
               std::invalid_argument);
}

TEST(PlanFromConfig, ErrorsNameTheOffendingLine) {
  // Unknown plan key, with its line number.
  try {
    plan_from_config(ConfigFile::parse("plan.mode = single\nplan.bogus = 1\n"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("plan.bogus"), std::string::npos);
  }
  // Bad seed range, with its line number.
  try {
    plan_from_config(ConfigFile::parse("# comment\nplan.seeds = 9..3\n"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos) << error.what();
  }
  // Bad mode.
  EXPECT_THROW(plan_from_config(ConfigFile::parse("plan.mode = everything\n")),
               std::invalid_argument);
  // Bad placement name.
  EXPECT_THROW(plan_from_config(ConfigFile::parse(
                   "plan.mode = single\nplan.jobs = UR\nplan.placements = diagonal\n")),
               std::invalid_argument);
  // Malformed job entry.
  EXPECT_THROW(plan_from_config(ConfigFile::parse(
                   "plan.mode = single\nplan.jobs = UR:many\n")),
               std::invalid_argument);
  // Zero/negative node counts used to slip through and fail (or worse,
  // misbehave) deep inside expansion; now the parser rejects them, naming
  // the line and the bare-APP "fill the machine" alternative.
  for (const char* jobs : {"UR:0", "UR:-5", "FFT3D:528,UR:0"}) {
    try {
      plan_from_config(
          ConfigFile::parse("plan.mode = single\nplan.jobs = " + std::string(jobs) + "\n"));
      FAIL() << "expected invalid_argument for plan.jobs = " << jobs;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(">= 1"), std::string::npos) << what;
    }
  }
  // Variant override without '='.
  EXPECT_THROW(plan_from_config(ConfigFile::parse(
                   "plan.mode = single\nplan.jobs = UR\nplan.variant.x = nonsense\n")),
               std::invalid_argument);
  // Base keys still go through apply_config's typo safety.
  EXPECT_THROW(plan_from_config(ConfigFile::parse("routng = PAR\nplan.jobs = UR\n")),
               std::invalid_argument);
}

TEST(PlanFromConfig, RemovedCellThreadsKeyIsRejectedByName) {
  // The intra-cell parallel engine is gone, and its cell_threads key with it:
  // a plan that still sets the key, in the file or through a --set override
  // (ConfigFile::set, as the CLI and the daemon apply them), fails naming it.
  const auto expect_rejected = [](const ConfigFile& file) {
    try {
      plan_from_config(file);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("unknown key 'cell_threads'"), std::string::npos)
          << error.what();
    }
  };
  expect_rejected(ConfigFile::parse("plan.mode = single\nplan.jobs = UR\ncell_threads = 2\n"));
  ConfigFile overridden = ConfigFile::parse("plan.mode = single\nplan.jobs = UR\n");
  overridden.set("cell_threads", "2");
  expect_rejected(overridden);
}

TEST(PlanFromConfig, InvalidNetConfigFailsItsCellNotTheProcess) {
  // net.num_vcs = 0 used to abort the whole process from inside the router;
  // NetConfig validation turns it into an ordinary, non-retried cell failure
  // that names the key, while the valid variant's cells still complete.
  const ExperimentPlan plan = plan_from_config(ConfigFile::parse(
      "topo.p = 2\ntopo.a = 4\ntopo.h = 2\ntopo.g = 9\nscale = 64\n"
      "plan.mode = single\nplan.jobs = UR:32\nplan.routings = MIN\n"
      "plan.variant.bad = net.num_vcs=0\nplan.variant.good =\n"));
  CollectSink sink;
  const PlanOutcome outcome = run_plan(plan, sink, 2);
  EXPECT_EQ(outcome.cells, 2u);
  EXPECT_EQ(outcome.completed, 1u);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].index, 0u);  // variants run in label order
  EXPECT_EQ(outcome.failures[0].attempts, 1);
  EXPECT_NE(outcome.failures[0].message.find("net.num_vcs"), std::string::npos)
      << outcome.failures[0].message;
  EXPECT_FALSE(outcome.worker_errors.any());
  ASSERT_EQ(sink.reports().size(), 2u);
  EXPECT_TRUE(sink.reports()[1].completed);
}

TEST(PlanFromConfig, VcOverrunFailsItsCellNotTheProcess) {
  // PAR paths take more router hops than three VCs cover. The process used
  // to abort once such a packet arrived; now the router whose decision picks
  // the missing VC throws, so the cell fails on its own, once (a logic error
  // is not retried), with net.num_vcs named. At jobs = 1 the next cell runs on the same worker and
  // reuses the arena the failed cell's Study returned; its line must still
  // match the same cell run alone on this thread, where nothing is bound.
  const ExperimentPlan plan = plan_from_config(ConfigFile::parse(
      "topo.p = 2\ntopo.a = 4\ntopo.h = 2\ntopo.g = 9\nscale = 64\n"
      "plan.mode = single\nplan.jobs = UR:72\nplan.routings = PAR\n"
      "plan.variant.overrun = net.num_vcs=3\nplan.variant.plain =\n"));
  CollectSink collect;
  std::ostringstream jsonl;
  JsonlSink lines(jsonl);
  TeeSink sink({&collect, &lines});
  const PlanOutcome outcome = run_plan(plan, sink, 1);
  EXPECT_EQ(outcome.cells, 2u);
  EXPECT_EQ(outcome.completed, 1u);
  ASSERT_EQ(outcome.failures.size(), 1u);
  EXPECT_EQ(outcome.failures[0].index, 0u);  // variants run in label order
  EXPECT_EQ(outcome.failures[0].attempts, 1);
  EXPECT_NE(outcome.failures[0].message.find("net.num_vcs 3"), std::string::npos)
      << outcome.failures[0].message;
  EXPECT_FALSE(outcome.worker_errors.any());
  EXPECT_EQ(collect.failures().size(), 1u);

  const PlanCell& survivor = collect.cells()[1];
  EXPECT_EQ(survivor.variant, "plain");
  EXPECT_EQ(jsonl.str(), plan_cell_jsonl(survivor, run_plan_cell(plan, survivor)) + "\n");
}

TEST(PlanFromConfig, FileRunMatchesProgrammaticPlan) {
  const std::string path = std::string(::testing::TempDir()) + "/dfly_plan.cfg";
  {
    std::ofstream out(path);
    out << "topo.p = 2\ntopo.a = 4\ntopo.h = 2\ntopo.g = 9\nscale = 64\n"
           "routing = UGALg\nplan.mode = single\nplan.jobs = UR:32\nplan.seeds = 42,43\n";
  }
  const ExperimentPlan from_file = load_plan(path);
  std::remove(path.c_str());

  ExperimentPlan programmatic = tiny_single_plan();
  programmatic.seeds = {42, 43};
  EXPECT_EQ(jsonl_of(from_file, 2), jsonl_of(programmatic, 2));
}

}  // namespace
}  // namespace dfly
