#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "sim/rng.hpp"

namespace dfly {
namespace {

class Recorder final : public Component {
 public:
  void handle(Engine& engine, const Event& event) override {
    log.push_back({engine.now(), event.kind, event.a});
  }
  struct Entry {
    SimTime when;
    std::uint32_t kind;
    std::uint64_t a;
  };
  std::vector<Entry> log;
};

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.executed(), 0u);
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(30, recorder, 3);
  engine.schedule_at(10, recorder, 1);
  engine.schedule_at(20, recorder, 2);
  engine.run();
  ASSERT_EQ(recorder.log.size(), 3u);
  EXPECT_EQ(recorder.log[0].kind, 1u);
  EXPECT_EQ(recorder.log[1].kind, 2u);
  EXPECT_EQ(recorder.log[2].kind, 3u);
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, SameTimeEventsFireInScheduleOrder) {
  Engine engine;
  Recorder recorder;
  for (std::uint64_t i = 0; i < 100; ++i) engine.schedule_at(5, recorder, 0, i);
  engine.run();
  ASSERT_EQ(recorder.log.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(recorder.log[i].a, i);
}

TEST(Engine, ScheduleInIsRelativeToNow) {
  Engine engine;
  Recorder recorder;
  // Fires at 100 and schedules the recorder 50 later.
  struct Relay final : Component {
    explicit Relay(Recorder& next) : next(next) {}
    void handle(Engine& engine, const Event&) override { engine.schedule_in(50, next, 7); }
    Recorder& next;
  } relay(recorder);
  engine.schedule_at(100, relay, 0);
  engine.run();
  ASSERT_EQ(recorder.log.size(), 1u);
  EXPECT_EQ(recorder.log[0].when, 150);
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(10, recorder, 1);
  engine.schedule_at(20, recorder, 2);
  engine.schedule_at(21, recorder, 3);
  engine.run(20);
  EXPECT_EQ(recorder.log.size(), 2u);
  EXPECT_EQ(engine.queued(), 1u);
  engine.run(21);
  EXPECT_EQ(recorder.log.size(), 3u);
}

TEST(Engine, WallDeadlineInThePastFiresBeforeTheFirstEvent) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(10, recorder, 1);
  engine.set_wall_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(engine.has_wall_deadline());
  EXPECT_THROW(engine.run(), WallDeadlineExceeded);
  // The check precedes dispatch, so the event is still queued...
  EXPECT_TRUE(recorder.log.empty());
  EXPECT_EQ(engine.queued(), 1u);
  // ...and a disarmed engine finishes the run normally.
  engine.clear_wall_deadline();
  EXPECT_FALSE(engine.has_wall_deadline());
  engine.run();
  ASSERT_EQ(recorder.log.size(), 1u);
  EXPECT_EQ(recorder.log[0].kind, 1u);
}

TEST(Engine, WallDeadlineAbandonsARunawayEventChain) {
  // A self-rescheduling chain never drains the queue: without the watchdog
  // run() would spin forever. With it armed the run is abandoned in bounded
  // real time and the engine stays tear-down-able.
  Engine engine;
  struct Chain final : Component {
    void handle(Engine& engine, const Event&) override { engine.schedule_in(1, *this, 0); }
  } chain;
  engine.schedule_at(0, chain, 0);
  engine.set_wall_deadline(std::chrono::steady_clock::now() + std::chrono::milliseconds(10));
  EXPECT_THROW(engine.run(), WallDeadlineExceeded);
  EXPECT_GT(engine.executed(), 0u);
}

TEST(Engine, EventsScheduledDuringExecutionAreProcessed) {
  Engine engine;
  // Each firing schedules the next one a tick later, ten firings in all.
  struct Recurse final : Component {
    void handle(Engine& engine, const Event&) override {
      if (++depth < 10) engine.schedule_at(engine.now() + 1, *this, 0);
    }
    int depth = 0;
  } recurse;
  engine.schedule_at(0, recurse, 0);
  engine.run();
  EXPECT_EQ(recurse.depth, 10);
  EXPECT_EQ(engine.now(), 9);
}

TEST(Engine, ClearDropsPendingEvents) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(10, recorder, 1);
  engine.clear();
  engine.run();
  EXPECT_TRUE(recorder.log.empty());
}

TEST(Engine, ExecutedCounterAdvances) {
  Engine engine;
  Recorder recorder;
  for (int i = 0; i < 17; ++i) engine.schedule_at(i, recorder, 0);
  engine.run();
  EXPECT_EQ(engine.executed(), 17u);
}

TEST(Engine, PayloadWordsAreDeliveredVerbatim) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(1, recorder, 42, 0xDEADBEEFCAFEBABEull);
  engine.run();
  ASSERT_EQ(recorder.log.size(), 1u);
  EXPECT_EQ(recorder.log[0].kind, 42u);
  EXPECT_EQ(recorder.log[0].a, 0xDEADBEEFCAFEBABEull);
}

TEST(Engine, NowStaysAtLastEventWhenQueueDrainsEarly) {
  // Documented semantics: the clock only advances with events; run(until)
  // does not bump now() to `until` when the queue empties first.
  Engine engine;
  Recorder recorder;
  engine.schedule_at(30, recorder, 1);
  engine.run(1000);
  EXPECT_EQ(engine.now(), 30);
  engine.run(2000);  // empty run: clock must not move
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, SameTimeFloodWithInterleavedSchedulingKeepsFifo) {
  // Handlers schedule more events at the *same* timestamp mid-batch; they
  // must fire after every already-scheduled same-time event (seq order).
  class Chainer final : public Component {
   public:
    explicit Chainer(int spawns) : spawns_(spawns) {}
    void handle(Engine& engine, const Event& event) override {
      order.push_back(event.a);
      if (spawns_ > 0) {
        --spawns_;
        engine.schedule_at(engine.now(), *this, 0, next_id++);
      }
    }
    std::vector<std::uint64_t> order;
    std::uint64_t next_id{100};

   private:
    int spawns_;
  };
  Engine engine;
  Chainer chainer(50);
  for (std::uint64_t i = 0; i < 100; ++i) engine.schedule_at(5, chainer, 0, i);
  engine.run();
  ASSERT_EQ(chainer.order.size(), 150u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(chainer.order[i], i);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(chainer.order[100 + i], 100 + i);
  EXPECT_EQ(engine.now(), 5);
}

TEST(Engine, RandomizedStressMatchesReferencePriorityQueue) {
  // Cross-check the event queue against std::priority_queue on (when, seq)
  // under interleaved schedule bursts and partial drains.
  struct Ref {
    SimTime when;
    std::uint64_t id;
  };
  const auto after = [](const Ref& x, const Ref& y) {
    return x.when > y.when || (x.when == y.when && x.id > y.id);
  };
  std::priority_queue<Ref, std::vector<Ref>, decltype(after)> reference(after);
  std::vector<Ref> expected;

  Engine engine;
  Recorder recorder;
  Rng rng(99);
  std::uint64_t next_id = 0;
  SimTime horizon = 0;
  for (int round = 0; round < 200; ++round) {
    const int burst = static_cast<int>(rng.next_below(40));
    for (int i = 0; i < burst; ++i) {
      const SimTime when = horizon + static_cast<SimTime>(rng.next_below(300));
      engine.schedule_at(when, recorder, 0, next_id);
      reference.push(Ref{when, next_id});
      ++next_id;
    }
    horizon += static_cast<SimTime>(rng.next_below(200));
    engine.run(horizon);
    while (!reference.empty() && reference.top().when <= horizon) {
      expected.push_back(reference.top());
      reference.pop();
    }
  }
  engine.run();
  while (!reference.empty()) {
    expected.push_back(reference.top());
    reference.pop();
  }
  ASSERT_EQ(recorder.log.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(recorder.log[i].when, expected[i].when) << "at event " << i;
    ASSERT_EQ(recorder.log[i].a, expected[i].id) << "at event " << i;
  }
}

TEST(Engine, ClearInsideHandlerDropsRestOfBatch) {
  class Clearer final : public Component {
   public:
    void handle(Engine& engine, const Event&) override {
      ++count;
      engine.clear();
    }
    int count{0};
  };
  Engine engine;
  Clearer clearer;
  Recorder recorder;
  engine.schedule_at(10, clearer, 0);
  for (int i = 0; i < 4; ++i) engine.schedule_at(10, recorder, 0);
  engine.schedule_at(20, recorder, 0);
  engine.run();
  EXPECT_EQ(clearer.count, 1);
  EXPECT_TRUE(recorder.log.empty());
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, RunResumesInterruptedSameTimeBatch) {
  // A handler throwing mid-batch must not strand or drop the rest of the
  // batch: the next run() dispatches the remaining same-time events before
  // anything later-timestamped.
  class Thrower final : public Component {
   public:
    void handle(Engine&, const Event&) override { throw std::runtime_error("boom"); }
  };
  Engine engine;
  Recorder recorder;
  Thrower thrower;
  engine.schedule_at(5, recorder, 0, 1);
  engine.schedule_at(5, thrower, 0);
  engine.schedule_at(5, recorder, 0, 2);
  engine.schedule_at(9, recorder, 0, 3);
  EXPECT_THROW(engine.run(), std::runtime_error);
  ASSERT_EQ(recorder.log.size(), 1u);
  EXPECT_EQ(engine.queued(), 2u);  // the stranded batch entry + the t=9 event
  engine.run();
  ASSERT_EQ(recorder.log.size(), 3u);
  EXPECT_EQ(recorder.log[1].a, 2u);  // batch remainder first...
  EXPECT_EQ(recorder.log[2].a, 3u);  // ...then the later event
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine engine;
  Recorder recorder;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    engine.schedule_at(static_cast<SimTime>(rng.next_below(1000)), recorder, 0);
  }
  engine.run();
  ASSERT_EQ(recorder.log.size(), 10000u);
  for (std::size_t i = 1; i < recorder.log.size(); ++i) {
    EXPECT_LE(recorder.log[i - 1].when, recorder.log[i].when);
  }
}

// --- Delay lanes vs. a std::priority_queue reference ----------------------
//
// A scheduling script runs twice: once on the Engine and once on a plain
// std::priority_queue ordered by (when, seq). Every handled event consumes
// the script's Rng in pop order, so the two runs draw the same children only
// while their pop orders agree, and any ordering slip shows up as a diverging
// log.

/// The seven delays (ps) that carry ~97% of a paper cell's schedules.
constexpr std::array<SimTime, 7> kNetworkDelays = {0,      20480,  30000, 50480,
                                                   150480, 300000, 420480};

struct Script {
  std::uint64_t seed{1};
  int initial{2000};  ///< events scheduled before the run, at t in [0, 1 us)
  std::uint64_t budget{60000};  ///< total events, initial ones included
  /// Delay of one child event.
  std::function<SimTime(Rng&)> delay;
  /// Event id whose handler calls clear() before spawning (none if unset).
  std::optional<std::uint64_t> clear_at;
};

struct Popped {
  SimTime when;
  std::uint64_t id;
  bool operator==(const Popped&) const = default;
};

/// One handled event's children: 0, 1 or 2, mean 1 while the budget lasts.
int children(Rng& rng, std::uint64_t next_id, const Script& script) {
  if (next_id >= script.budget) return 0;
  return static_cast<int>(rng.next_below(3));
}

class ScriptRunner final : public Component {
 public:
  explicit ScriptRunner(const Script& script) : script_(script), rng_(script.seed) {}

  /// Schedules the initial events relative to now(), so a reused engine
  /// replays the script shifted by its clock.
  void start(Engine& engine) {
    for (int i = 0; i < script_.initial; ++i) {
      engine.schedule_at(
          engine.now() + static_cast<SimTime>(rng_.next_below(static_cast<std::uint64_t>(kUs))),
          *this, 0, next_id_++);
    }
  }
  void handle(Engine& engine, const Event& event) override {
    log.push_back({engine.now(), event.a});
    if (script_.clear_at == event.a) engine.clear();
    for (int n = children(rng_, next_id_, script_); n > 0; --n) {
      engine.schedule_in(script_.delay(rng_), *this, 0, next_id_++);
    }
  }
  std::vector<Popped> log;

 private:
  const Script& script_;
  Rng rng_;
  std::uint64_t next_id_{0};
};

std::vector<Popped> run_on_engine(Engine& engine, const Script& script) {
  ScriptRunner runner(script);
  runner.start(engine);
  engine.run();
  EXPECT_TRUE(engine.empty());
  return runner.log;
}

std::vector<Popped> run_on_reference(const Script& script) {
  struct Ref {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t id;
  };
  const auto after = [](const Ref& x, const Ref& y) {
    return x.when > y.when || (x.when == y.when && x.seq > y.seq);
  };
  std::priority_queue<Ref, std::vector<Ref>, decltype(after)> queue(after);
  Rng rng(script.seed);
  std::uint64_t next_id = 0;
  std::uint64_t next_seq = 0;
  for (int i = 0; i < script.initial; ++i) {
    queue.push(Ref{static_cast<SimTime>(rng.next_below(static_cast<std::uint64_t>(kUs))),
                   next_seq++, next_id++});
  }
  std::vector<Popped> log;
  while (!queue.empty()) {
    const Ref top = queue.top();
    queue.pop();
    log.push_back({top.when, top.id});
    if (script.clear_at == top.id) {
      while (!queue.empty()) queue.pop();
    }
    for (int n = children(rng, next_id, script); n > 0; --n) {
      const SimTime delay = script.delay(rng);
      queue.push(Ref{top.when + delay, next_seq++, next_id++});
    }
  }
  return log;
}

void expect_same_order(const std::vector<Popped>& got, const std::vector<Popped>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "first divergence at pop " << i;
  }
}

/// The measured mix: a network delay 97% of the time, else one of ~10^6
/// distinct delays — far more than there are lanes, so the random tail both
/// overflows into the heap and keeps stealing lanes that run empty.
SimTime network_mix(Rng& rng) {
  if (rng.next_below(100) < 97) return kNetworkDelays[rng.next_below(kNetworkDelays.size())];
  return static_cast<SimTime>(rng.next_below(static_cast<std::uint64_t>(kUs))) + 1;
}

TEST(EngineLanes, NetworkDelayMixMatchesReferencePriorityQueue) {
  Script script;
  script.delay = network_mix;
  Engine engine;
  const std::vector<Popped> got = run_on_engine(engine, script);
  EXPECT_GT(got.size(), 50000u);
  expect_same_order(got, run_on_reference(script));
}

TEST(EngineLanes, DelayPoolWiderThanLaneCountMatchesReference) {
  // ~100 recurring delays: every lane stays bound while more delays than
  // lanes are pending, exercising overflow, lane stealing and the delay
  // table's deletion path on every few schedules.
  Script script;
  script.seed = 2;
  script.delay = [](Rng& rng) { return static_cast<SimTime>(rng.next_below(100)) * 1777; };
  Engine engine;
  expect_same_order(run_on_engine(engine, script), run_on_reference(script));
}

TEST(EngineLanes, ZeroAndBeyondInt32DelaysMatchReference) {
  constexpr SimTime kBig = static_cast<SimTime>(std::numeric_limits<std::int32_t>::max());
  Script script;
  script.seed = 3;
  script.budget = 20000;
  script.delay = [](Rng& rng) {
    switch (rng.next_below(4)) {
      case 0: return SimTime{0};
      case 1: return kBig + 1;
      case 2: return kBig * 4 + 3;
      default: return static_cast<SimTime>(rng.next_below(3)) * (kBig + 1);
    }
  };
  Engine engine;
  const std::vector<Popped> got = run_on_engine(engine, script);
  EXPECT_GT(got.back().when, kBig);
  expect_same_order(got, run_on_reference(script));
}

TEST(EngineLanes, ClearInsideHandlerMatchesReference) {
  // clear() mid-run drops events queued on lanes and on the overflow heap
  // alike; the handler's own children, scheduled after the clear, must then
  // start from fresh lanes without disturbing the order.
  Script script;
  script.seed = 4;
  script.delay = network_mix;
  script.clear_at = 30000;
  Engine engine;
  const std::vector<Popped> got = run_on_engine(engine, script);
  const std::vector<Popped> want = run_on_reference(script);
  EXPECT_LT(want.size(), 60000u);  // the clear really dropped events
  expect_same_order(got, want);
}

TEST(EngineLanes, ResetBetweenRoundsWithDifferentDelaySets) {
  // One engine, cleared between rounds whose delay sets differ: lanes bound
  // to the previous round's delays must not leak into the next one. The
  // clock carries over, so each round is compared shifted to its start.
  Script network;
  network.delay = network_mix;
  Script pool;
  pool.seed = 5;
  pool.delay = [](Rng& rng) { return static_cast<SimTime>(rng.next_below(40)) * 999 + 1; };
  Script single;
  single.seed = 6;
  single.delay = [](Rng&) { return SimTime{7}; };
  Engine engine;
  for (const Script* script : {&network, &pool, &single, &network}) {
    const SimTime origin = engine.now();
    std::vector<Popped> got = run_on_engine(engine, *script);
    for (Popped& popped : got) popped.when -= origin;
    expect_same_order(got, run_on_reference(*script));
    engine.clear();
    EXPECT_EQ(engine.queued(), 0u);
  }
}

}  // namespace
}  // namespace dfly
