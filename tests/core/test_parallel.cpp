#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/blueprint.hpp"
#include "core/json_report.hpp"
#include "core/pairwise.hpp"
#include "core/plan.hpp"
#include "core/study.hpp"
#include "core/sweep.hpp"

namespace dfly {
namespace {

StudyConfig tiny_config(const std::string& routing = "UGALg") {
  StudyConfig config;
  config.topo = DragonflyParams::tiny();
  config.routing = routing;
  config.scale = 64;
  return config;
}

Report tiny_experiment(std::uint64_t seed) {
  StudyConfig config = tiny_config();
  config.seed = seed;
  Study study(config);
  study.add_app("UR", 32);
  return study.run();
}

// --- worker-count resolution -------------------------------------------------

TEST(ParallelJobs, ResolveJobsPrefersExplicitThenEnvThenFallback) {
  const char* saved = std::getenv("DFSIM_JOBS");
  const std::string saved_value = saved ? saved : "";

  ::setenv("DFSIM_JOBS", "7", 1);
  EXPECT_EQ(resolve_jobs(3, 1), 3);  // explicit wins
  EXPECT_EQ(resolve_jobs(0, 1), 7);  // env next
  {
    const SubmissionQueue queue(0);
    EXPECT_EQ(queue.jobs(), 7);
  }

  ::unsetenv("DFSIM_JOBS");
  EXPECT_EQ(resolve_jobs(0, 2), 2);
  EXPECT_EQ(resolve_jobs(0, 0), 1);  // fallback clamped to 1

  if (saved) {
    ::setenv("DFSIM_JOBS", saved_value.c_str(), 1);
  }
}

// A malformed DFSIM_JOBS fails loudly, full-string and positive-only, like
// any bad config value — never silently truncated ("4x" -> 4) or ignored.
TEST(ParallelJobs, ResolveJobsRejectsMalformedEnvLoudly) {
  const char* saved = std::getenv("DFSIM_JOBS");
  const std::string saved_value = saved ? saved : "";

  for (const char* bad : {"not-a-number", "4x", "", " 4", "0", "-3", "1e3",
                          "99999999999999999999"}) {
    ::setenv("DFSIM_JOBS", bad, 1);
    EXPECT_THROW(resolve_jobs(0, 5), std::invalid_argument) << bad;
    // An explicit request never consults the env, so it still works.
    EXPECT_EQ(resolve_jobs(3, 5), 3) << bad;
  }
  ::setenv("DFSIM_JOBS", "4x", 1);
  try {
    resolve_jobs(0, 5);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "DFSIM_JOBS must be a positive integer, got '4x'");
  }

  if (saved) {
    ::setenv("DFSIM_JOBS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("DFSIM_JOBS");
  }
}

TEST(ParallelJobs, HardwareJobsIsAtLeastOneAndMemoryCapped) {
  // The worker cap derives from available memory at kCellBudgetBytes per
  // in-flight cell (clamped to [1, 256]; 12 is the fallback when the
  // platform cannot report memory).
  const int cap = memory_jobs_cap();
  EXPECT_GE(cap, 1);
  EXPECT_LE(cap, 256);
  const int jobs = hardware_jobs();
  EXPECT_GE(jobs, 1);
  EXPECT_LE(jobs, cap);
}

// --- campaigns through run_plan: byte-identical for any worker count --------

/// A seed sweep as the CLI's --sweep runs it: a seeds-axis custom plan whose
/// reports aggregate in seed order.
SweepSummary run_sweep(int jobs) {
  ExperimentPlan plan;
  plan.mode = PlanMode::kCustom;
  plan.seeds = SeedSweep(42, 6).seeds();
  plan.custom = [](const PlanCell& cell) { return tiny_experiment(cell.config.seed); };
  CollectSink sink;
  EXPECT_TRUE(run_plan(plan, sink, jobs).all_ok());
  return SeedSweep::aggregate(sink.reports());
}

std::string sweep_json(int jobs) { return sweep_to_json(run_sweep(jobs)); }

std::string jsonl_of(const ExperimentPlan& plan, int jobs) {
  std::ostringstream out;
  JsonlSink sink(out);
  // No cell may fail; truncated (time-limited) cells still emit a line.
  EXPECT_TRUE(run_plan(plan, sink, jobs).failures.empty());
  return out.str();
}

/// Two routings x UR against {None, CosmoFlow} on the tiny machine.
ExperimentPlan tiny_pairwise_plan() {
  ExperimentPlan plan;
  plan.base = tiny_config();
  plan.mode = PlanMode::kPairwise;
  plan.routings = {"MIN", "UGALg"};
  plan.targets = {"UR"};
  plan.backgrounds = {"None", "CosmoFlow"};
  return plan;
}

// The acceptance bar for the parallel sweep: four workers must produce a
// SweepSummary whose JSON serialisation is byte-identical to a sequential
// run — same seeds, same cells, same aggregation order.
TEST(SweepParallelDeterminism, FourJobsByteIdenticalToSequential) {
  const SweepSummary sequential = run_sweep(1);
  const SweepSummary parallel = run_sweep(4);

  EXPECT_EQ(sweep_to_json(sequential), sweep_to_json(parallel));

  // Spot-check raw doubles bitwise via exact equality as well, in case the
  // JSON formatter ever rounds.
  EXPECT_EQ(sequential.makespan_ms.mean, parallel.makespan_ms.mean);
  EXPECT_EQ(sequential.makespan_ms.stddev, parallel.makespan_ms.stddev);
  EXPECT_EQ(sequential.sys_lat_p99_us.ci95_half, parallel.sys_lat_p99_us.ci95_half);
  EXPECT_EQ(sequential.completed_runs, parallel.completed_runs);
  ASSERT_EQ(sequential.apps.size(), parallel.apps.size());
  for (std::size_t a = 0; a < sequential.apps.size(); ++a) {
    EXPECT_EQ(sequential.apps[a].app, parallel.apps[a].app);
    EXPECT_EQ(sequential.apps[a].comm_ms.mean, parallel.apps[a].comm_ms.mean);
    EXPECT_EQ(sequential.apps[a].lat_p99_us.max, parallel.apps[a].lat_p99_us.max);
  }
}

// The reference for the determinism tests below: the same cells run one by
// one on the gtest thread, where no arena or blueprint cache is bound, so
// every cell builds fresh storage and a private plan. run_plan's workers
// always bind both; a state leak across a worker's cells, or a shared plan
// that differs from a private one, shows up as a byte difference.
void expect_unbound_thread() {
  EXPECT_EQ(SimArena::current(), nullptr);
  EXPECT_EQ(BlueprintCache::current(), nullptr);
}

/// run_sweep's cells run one by one on the calling thread.
std::string serial_sweep_json() {
  const SeedSweep sweep(42, 6);
  std::vector<Report> reports;
  for (const std::uint64_t seed : sweep.seeds()) reports.push_back(tiny_experiment(seed));
  return sweep_to_json(SeedSweep::aggregate(reports));
}

std::string unbound_jsonl(const ExperimentPlan& plan) {
  expect_unbound_thread();
  std::string out;
  for (const PlanCell& cell : plan.expand()) {
    out += plan_cell_jsonl(cell, run_plan_cell(plan, cell)) + '\n';
  }
  return out;
}

// Arena reuse must be invisible in the output: the sweep on one or four
// workers, each reusing its arena across cells, serialises to the same bytes
// as the cells run fresh on this thread — and so does one arena reused
// across every cell on this thread with no shared plan.
TEST(SweepParallelDeterminism, ArenaOnAndOffByteIdenticalForAnyWorkerCount) {
  expect_unbound_thread();
  const std::string fresh = serial_sweep_json();
  EXPECT_EQ(sweep_json(1), fresh);
  EXPECT_EQ(sweep_json(4), fresh);

  SimArena arena;
  const ScopedArenaBinding binding(&arena);
  EXPECT_EQ(serial_sweep_json(), fresh);
  EXPECT_EQ(arena.stats().cells, 6u);
}

// Blueprint sharing must be invisible in the output: with one or four
// workers reading the pool's shared plan, the sweep serialises to the same
// bytes as cells that each build a private plan — and so do fresh cells on
// this thread that share one cached plan.
TEST(SweepParallelDeterminism, BlueprintOnAndOffByteIdenticalForAnyWorkerCount) {
  expect_unbound_thread();
  const std::string private_plans = serial_sweep_json();
  EXPECT_EQ(sweep_json(1), private_plans);
  EXPECT_EQ(sweep_json(4), private_plans);

  BlueprintCache cache;
  const ScopedBlueprintCacheBinding binding(&cache);
  EXPECT_EQ(serial_sweep_json(), private_plans);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 5u);
}

TEST(PairwiseParallelDeterminism, BlueprintOnAndOffByteIdenticalForAnyWorkerCount) {
  const ExperimentPlan plan = tiny_pairwise_plan();
  const std::string private_plans = unbound_jsonl(plan);
  EXPECT_EQ(jsonl_of(plan, 1), private_plans);
  EXPECT_EQ(jsonl_of(plan, 4), private_plans);
}

TEST(MixedParallelDeterminism, BlueprintOnAndOffByteIdenticalForAnyWorkerCount) {
  // The Fig 10 mix needs the full 1,056-node machine (Table II node counts),
  // so cap the simulated clock hard: the comparison needs identical bytes,
  // not converged runs, and every truncated cell still exercises the shared
  // plan through build, placement and early traffic.
  ExperimentPlan plan;
  plan.base.topo = DragonflyParams::paper();
  plan.base.routing = "UGALg";
  plan.base.scale = 256;
  plan.base.time_limit = 20 * kUs;
  plan.mode = PlanMode::kMixed;
  plan.mixed_solos = true;

  const std::string private_plans = unbound_jsonl(plan);
  EXPECT_EQ(jsonl_of(plan, 1), private_plans);
  EXPECT_EQ(jsonl_of(plan, 4), private_plans);
}

TEST(PairwiseParallelDeterminism, CellBatchMatchesIndividualRuns) {
  const ExperimentPlan plan = tiny_pairwise_plan();
  CollectSink sink;
  ASSERT_TRUE(run_plan(plan, sink, 2).all_ok());
  ASSERT_EQ(sink.reports().size(), 4u);
  for (const PlanCell& cell : sink.cells()) {
    const PairwiseResult solo = run_pairwise(cell.config, cell.target, cell.background);
    EXPECT_EQ(report_to_json(sink.reports()[cell.index]), report_to_json(solo.full))
        << "cell " << cell.index;
  }
}

// A local run_plan builds a private pool with no more workers than cells:
// asking for eight workers on a two-cell plan starts two.
TEST(PlanParallelPool, PrivateQueueIsCappedAtTheCellCount) {
  ExperimentPlan plan;
  plan.mode = PlanMode::kCustom;
  plan.seeds = {1, 2};
  plan.custom = [](const PlanCell&) {
    Report report;
    report.completed = true;
    return report;
  };
  CollectSink sink;
  const PlanOutcome outcome = run_plan(plan, sink, 8);
  EXPECT_TRUE(outcome.all_ok());
  EXPECT_EQ(outcome.worker_errors.workers.size(), 2u);
}

// --- SubmissionQueue: the daemon's persistent pool ---------------------------

TEST(SubmissionQueue, RunsEveryIndexExactlyOnce) {
  SubmissionQueue queue(3);
  EXPECT_EQ(queue.jobs(), 3);
  std::vector<std::atomic<int>> hits(100);
  queue.run_indexed(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // The pool survives between submissions — a second batch reuses it.
  std::atomic<int> total{0};
  queue.run_indexed(17, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 17);
}

// More workers than the other pool tests and an index count that no worker
// count divides evenly, so the last partial round of claims is exercised.
TEST(SubmissionQueue, RunIndexedCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& hit : hits) hit = 0;
  SubmissionQueue(8).run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(SubmissionQueue, ConcurrentSubmissionsInterleaveAndBothComplete) {
  SubmissionQueue queue(2);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread first([&] { queue.run_indexed(40, [&](std::size_t) { a.fetch_add(1); }); });
  std::thread second([&] { queue.run_indexed(40, [&](std::size_t) { b.fetch_add(1); }); });
  first.join();
  second.join();
  EXPECT_EQ(a.load(), 40);
  EXPECT_EQ(b.load(), 40);
}

// Results land in slots indexed by task, so a table printed from them is in
// task order however the workers interleave.
TEST(SubmissionQueue, IndexedSlotsKeepTaskOrder) {
  std::vector<int> results(64);
  SubmissionQueue(4).run_indexed(results.size(), [&](std::size_t i) {
    results[i] = static_cast<int>(i * i);
  });
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], static_cast<int>(i * i));
}

TEST(SubmissionQueue, CollectModeAttemptsEveryIndexAndRecordsEachFailure) {
  // Nothing is rethrown and nothing is skipped: every index runs, and each
  // worker's failure count and first message land in the WorkerErrors.
  std::vector<std::atomic<int>> hits(64);
  for (auto& hit : hits) hit = 0;
  WorkerErrors errors;
  SubmissionQueue(4).run_indexed(
      hits.size(),
      [&](std::size_t i) {
        ++hits[i];
        if (i % 7 == 3) throw std::runtime_error("index " + std::to_string(i));
      },
      &errors);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (i % 7 == 3) ++expected;
  }
  EXPECT_EQ(errors.workers.size(), 4u);
  EXPECT_EQ(errors.total(), expected);
  EXPECT_TRUE(errors.any());
  EXPECT_NE(errors.summary().find("failure"), std::string::npos);
}

TEST(SubmissionQueue, CollectModeIsEmptyOnACleanRun) {
  WorkerErrors errors;
  SubmissionQueue(4).run_indexed(32, [](std::size_t) {}, &errors);
  EXPECT_FALSE(errors.any());
  EXPECT_EQ(errors.total(), 0u);
  EXPECT_TRUE(errors.summary().empty());
}

TEST(SubmissionQueue, CollectsExceptionsLikeParallelRunnerCollectMode) {
  SubmissionQueue queue(1);
  WorkerErrors errors;
  std::atomic<int> calls{0};
  queue.run_indexed(
      8,
      [&](std::size_t i) {
        calls.fetch_add(1);
        if (i == 2 || i == 5) throw std::runtime_error("boom at " + std::to_string(i));
      },
      &errors);
  EXPECT_EQ(calls.load(), 8);  // nothing rethrown, every cell attempted
  EXPECT_EQ(errors.total(), 2u);
  ASSERT_EQ(errors.workers.size(), 1u);
  EXPECT_EQ(errors.workers[0].failures, 2u);
  EXPECT_NE(errors.workers[0].first.find("boom at 2"), std::string::npos);
}

// One worker claims indices in ascending order and keeps going past each
// failure, so the message it keeps is the lowest failing index's.
TEST(SubmissionQueue, CollectModeSequentialKeepsGoingAndKeepsTheFirstMessage) {
  WorkerErrors errors;
  std::vector<std::size_t> order;  // written by the single worker only
  SubmissionQueue(1).run_indexed(
      8,
      [&](std::size_t i) {
        order.push_back(i);
        if (i == 2 || i == 5) throw std::runtime_error("boom at " + std::to_string(i));
      },
      &errors);
  const std::vector<std::size_t> ascending{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, ascending);
  EXPECT_EQ(errors.total(), 2u);
  ASSERT_EQ(errors.workers.size(), 1u);
  EXPECT_EQ(errors.workers[0].failures, 2u);
  EXPECT_NE(errors.workers[0].first.find("boom at 2"), std::string::npos);
  EXPECT_EQ(errors.workers[0].first.find("boom at 5"), std::string::npos);
}

// The reason the queue exists: campaigns submitted one after the other share
// ONE BlueprintCache, so the second campaign of a given shape starts from a
// cache hit instead of rebuilding the topology plan.
TEST(SubmissionQueue, SharesOneBlueprintCacheAcrossSubmissions) {
  SubmissionQueue queue(2);
  const auto run_campaign = [&queue] {
    queue.run_indexed(4, [](std::size_t i) { tiny_experiment(42 + i); });
  };
  run_campaign();
  const BlueprintCache::Stats after_first = queue.cache().stats();
  EXPECT_EQ(after_first.misses, 1u);  // one shape, built once
  EXPECT_GE(after_first.hits, 3u);

  run_campaign();
  const BlueprintCache::Stats after_second = queue.cache().stats();
  EXPECT_EQ(after_second.misses, 1u);  // no rebuild: the cache carried over
  EXPECT_GE(after_second.hits, after_first.hits + 4);
}

// Arena reuse and blueprint sharing never change bytes: a report produced on
// the persistent pool is identical to a cold private run.
TEST(SubmissionQueue, PooledRunByteIdenticalToPrivateRun) {
  SubmissionQueue queue(2);
  std::vector<std::string> pooled(3);
  queue.run_indexed(pooled.size(),
                    [&](std::size_t i) { pooled[i] = report_to_json(tiny_experiment(7 + i)); });
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i], report_to_json(tiny_experiment(7 + i))) << i;
  }
}

}  // namespace
}  // namespace dfly
