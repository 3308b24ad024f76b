// Micro-benchmarks (google-benchmark): the discrete-event engine's event
// throughput and the end-to-end simulator packet rate. These bound how
// large a --scale the experiment benches can afford.
//
// Each BM_Engine<X> has a BM_Legacy<X> twin on the seed implementation's
// event queue (std::push_heap/std::pop_heap binary heap, one pop per event),
// so the Engine's queue — delay lanes merged by a binary heap of lane heads,
// in front of a 4-ary overflow heap — is *measured* against its predecessor,
// not asserted: compare items_per_second on the same workload. NetworkDelays
// draws delays from the mix a paper cell schedules (seven NetConfig sums
// carry ~97%); RandomHeap and SteadyState draw every delay at random, the
// lanes' worst case, where nearly all events take the overflow heap.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "core/blueprint.hpp"
#include "core/study.hpp"
#include "net/network.hpp"
#include "routing/factory.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dfly;

class NullComponent final : public Component {
 public:
  void handle(Engine& engine, const Event& event) override {
    if (event.a > 0) engine.schedule_in(10, *this, 0, event.a - 1);
  }
};

/// Surface the engine's per-kind schedule/pop counters (Engine::stats()) on
/// the benchmark so BENCH_engine.json records what each workload actually
/// ran: totals always, per-kind only where non-zero to keep the JSON small.
void report_engine_stats(benchmark::State& state, const EngineStats& stats) {
  state.counters["ev_scheduled"] =
      benchmark::Counter(static_cast<double>(stats.scheduled_total()));
  state.counters["ev_executed"] =
      benchmark::Counter(static_cast<double>(stats.executed_total()));
  for (std::size_t k = 0; k < stats.executed_by_kind.size(); ++k) {
    if (stats.executed_by_kind[k] == 0) continue;
    state.counters["ev_kind" + std::to_string(k)] =
        benchmark::Counter(static_cast<double>(stats.executed_by_kind[k]));
  }
}

/// Verbatim re-creation of the seed Engine's queue and dispatch loop: binary
/// min-heap of full 48-byte entries via the std::*_heap algorithms, one pop
/// + re-sift per event, and the seed's exact per-event bookkeeping (the
/// schedule assert, the executed counter, one Event construction, one
/// virtual dispatch).
class LegacyEngine {
 public:
  struct Sink {
    virtual ~Sink() = default;
    virtual void on_event(LegacyEngine& engine, const Event& event) = 0;
  };

  SimTime now() const { return now_; }

  void schedule_at(SimTime when, Sink& target, std::uint32_t kind, std::uint64_t a = 0,
                   std::uint64_t b = 0) {
    assert(when >= now_ && "cannot schedule into the past");
    heap_.push_back(Entry{when, next_seq_++, &target, kind, a, b});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  std::uint64_t run() {
    std::uint64_t count = 0;
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const Entry entry = heap_.back();
      heap_.pop_back();
      now_ = entry.when;
      ++executed_;
      ++count;
      const Event event{entry.when, entry.seq, nullptr, entry.kind, entry.a, entry.b};
      entry.target->on_event(*this, event);
    }
    return count;
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    Sink* target;
    std::uint32_t kind;
    std::uint64_t a, b;

    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  std::vector<Entry> heap_;
  SimTime now_{0};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
};

class LegacyNullSink final : public LegacyEngine::Sink {
 public:
  void on_event(LegacyEngine& engine, const Event& event) override {
    if (event.a > 0) engine.schedule_at(engine.now() + 10, *this, 0, event.a - 1);
  }
};

/// Pure engine overhead: schedule + dispatch of chained events.
void BM_EngineEventChain(benchmark::State& state) {
  EngineStats engine_stats;
  for (auto _ : state) {
    Engine engine;
    NullComponent component;
    const std::uint64_t chain = 100000;
    engine.schedule_at(0, component, 0, chain);
    engine.run();
    benchmark::DoNotOptimize(engine.executed());
    engine_stats = engine.stats();
  }
  report_engine_stats(state, engine_stats);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100001);
}
BENCHMARK(BM_EngineEventChain)->Unit(benchmark::kMillisecond);

/// Baseline for BM_EngineEventChain on the seed's binary heap.
void BM_LegacyEventChain(benchmark::State& state) {
  for (auto _ : state) {
    LegacyEngine engine;
    LegacyNullSink sink;
    const std::uint64_t chain = 100000;
    engine.schedule_at(0, sink, 0, chain);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100001);
}
BENCHMARK(BM_LegacyEventChain)->Unit(benchmark::kMillisecond);

/// Engine with a populated heap: random-time scheduling.
void BM_EngineRandomHeap(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine engine;
    NullComponent component;
    Rng rng(1);
    for (int i = 0; i < events; ++i) {
      engine.schedule_at(static_cast<SimTime>(rng.next_below(1000000)), component, 0, 0);
    }
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * events);
}
BENCHMARK(BM_EngineRandomHeap)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(30000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// Baseline for BM_EngineRandomHeap on the seed's binary heap.
void BM_LegacyRandomHeap(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LegacyEngine engine;
    LegacyNullSink sink;
    Rng rng(1);
    for (int i = 0; i < events; ++i) {
      engine.schedule_at(static_cast<SimTime>(rng.next_below(1000000)), sink, 0);
    }
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * events);
}
// 1k/5k/30k bracket the measured queue depth of a paper-topology FFT3D run
// (mean ~4.7k in-flight events, peak ~35k).
BENCHMARK(BM_LegacyRandomHeap)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(30000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// Steady-state schedule/pop throughput at constant queue depth: every
/// handled event schedules one replacement at a random future offset. This
/// is the shape of a real simulation cell (measured FFT3D run: mean ~4.7k
/// in-flight events, peak ~35k), unlike the bulk-load-then-drain of
/// BM_*RandomHeap.
class SteadyComponent final : public Component {
 public:
  explicit SteadyComponent(std::uint64_t seed) : rng_(seed) {}
  void handle(Engine& engine, const Event& event) override {
    if (event.a > 0) {
      engine.schedule_in(static_cast<SimTime>(rng_.next_below(100000)) + 1, *this, 0,
                         event.a - 1);
    }
  }

 private:
  Rng rng_;
};

void BM_EngineSteadyState(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const std::uint64_t rounds = 20;  // events per chain; total = depth * rounds
  EngineStats engine_stats;
  for (auto _ : state) {
    Engine engine;
    SteadyComponent component(1);
    Rng rng(2);
    for (int i = 0; i < depth; ++i) {
      engine.schedule_at(static_cast<SimTime>(rng.next_below(100000)), component, 0, rounds);
    }
    engine.run();
    engine_stats = engine.stats();
  }
  report_engine_stats(state, engine_stats);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * depth *
                          static_cast<std::int64_t>(rounds + 1));
}
BENCHMARK(BM_EngineSteadyState)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(30000)
    ->Unit(benchmark::kMillisecond);

class LegacySteadySink final : public LegacyEngine::Sink {
 public:
  explicit LegacySteadySink(std::uint64_t seed) : rng_(seed) {}
  void on_event(LegacyEngine& engine, const Event& event) override {
    if (event.a > 0) {
      engine.schedule_at(engine.now() + static_cast<SimTime>(rng_.next_below(100000)) + 1,
                         *this, 0, event.a - 1);
    }
  }

 private:
  Rng rng_;
};

/// Baseline for BM_EngineSteadyState on the seed's binary heap.
void BM_LegacySteadyState(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const std::uint64_t rounds = 20;
  for (auto _ : state) {
    LegacyEngine engine;
    LegacySteadySink sink(1);
    Rng rng(2);
    for (int i = 0; i < depth; ++i) {
      engine.schedule_at(static_cast<SimTime>(rng.next_below(100000)), sink, 0, rounds);
    }
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * depth *
                          static_cast<std::int64_t>(rounds + 1));
}
BENCHMARK(BM_LegacySteadyState)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(30000)
    ->Unit(benchmark::kMillisecond);

/// The measured delay mix of a paper cell: 97% of schedules use one of seven
/// delays (ps), the rest one of ~10^6 random ones. Pre-drawn into a table so
/// the Rng does not dominate the per-event cost.
class NetworkDelayMix {
 public:
  NetworkDelayMix() {
    static constexpr std::array<SimTime, 7> kDelays = {0,      20480,  30000, 50480,
                                                       150480, 300000, 420480};
    Rng rng(3);
    for (SimTime& delay : table_) {
      delay = rng.next_below(100) < 97
                  ? kDelays[rng.next_below(kDelays.size())]
                  : static_cast<SimTime>(rng.next_below(static_cast<std::uint64_t>(kUs))) + 1;
    }
  }
  SimTime next() { return table_[next_++ & (table_.size() - 1)]; }

 private:
  std::array<SimTime, 1 << 16> table_{};
  std::size_t next_{0};
};

class NetworkDelaysComponent final : public Component {
 public:
  void handle(Engine& engine, const Event& event) override {
    if (event.a > 0) engine.schedule_in(mix_.next(), *this, 0, event.a - 1);
  }

 private:
  NetworkDelayMix mix_;
};

/// Steady state at a cell's queue depth (2k: daemon_burst cells; 20k: the
/// 1,056-node paper cell) under the measured delay mix.
void BM_EngineNetworkDelays(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const std::uint64_t rounds = 20;
  EngineStats engine_stats;
  for (auto _ : state) {
    Engine engine;
    NetworkDelaysComponent component;
    Rng rng(2);
    for (int i = 0; i < depth; ++i) {
      const auto start = static_cast<SimTime>(rng.next_below(static_cast<std::uint64_t>(kUs)));
      engine.schedule_at(start, component, 0, rounds);
    }
    engine.run();
    engine_stats = engine.stats();
  }
  report_engine_stats(state, engine_stats);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * depth *
                          static_cast<std::int64_t>(rounds + 1));
}
BENCHMARK(BM_EngineNetworkDelays)->Arg(2000)->Arg(20000)->Unit(benchmark::kMillisecond);

class LegacyNetworkDelaysSink final : public LegacyEngine::Sink {
 public:
  void on_event(LegacyEngine& engine, const Event& event) override {
    if (event.a > 0) engine.schedule_at(engine.now() + mix_.next(), *this, 0, event.a - 1);
  }

 private:
  NetworkDelayMix mix_;
};

/// Baseline for BM_EngineNetworkDelays on the seed's binary heap.
void BM_LegacyNetworkDelays(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const std::uint64_t rounds = 20;
  for (auto _ : state) {
    LegacyEngine engine;
    LegacyNetworkDelaysSink sink;
    Rng rng(2);
    for (int i = 0; i < depth; ++i) {
      const auto start = static_cast<SimTime>(rng.next_below(static_cast<std::uint64_t>(kUs)));
      engine.schedule_at(start, sink, 0, rounds);
    }
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * depth *
                          static_cast<std::int64_t>(rounds + 1));
}
BENCHMARK(BM_LegacyNetworkDelays)->Arg(2000)->Arg(20000)->Unit(benchmark::kMillisecond);

/// Same-timestamp floods: many events per distinct time, the shape produced
/// by synchronised collectives: one lane per timestamp's delay.
void BM_EngineSameTimeFlood(benchmark::State& state) {
  const int timestamps = 1000;
  const int per_timestamp = static_cast<int>(state.range(0));
  EngineStats engine_stats;
  for (auto _ : state) {
    Engine engine;
    NullComponent component;
    for (int t = 0; t < timestamps; ++t) {
      for (int i = 0; i < per_timestamp; ++i) {
        engine.schedule_at(static_cast<SimTime>(t) * 100, component, 0, 0);
      }
    }
    engine.run();
    engine_stats = engine.stats();
  }
  report_engine_stats(state, engine_stats);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * timestamps *
                          per_timestamp);
}
BENCHMARK(BM_EngineSameTimeFlood)->Arg(16)->Arg(128)->Unit(benchmark::kMillisecond);

/// Baseline for BM_EngineSameTimeFlood on the seed's binary heap.
void BM_LegacySameTimeFlood(benchmark::State& state) {
  const int timestamps = 1000;
  const int per_timestamp = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LegacyEngine engine;
    LegacyNullSink sink;
    for (int t = 0; t < timestamps; ++t) {
      for (int i = 0; i < per_timestamp; ++i) {
        engine.schedule_at(static_cast<SimTime>(t) * 100, sink, 0);
      }
    }
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * timestamps *
                          per_timestamp);
}
BENCHMARK(BM_LegacySameTimeFlood)->Arg(16)->Arg(128)->Unit(benchmark::kMillisecond);

/// End-to-end packet rate: uniform-random traffic on the tiny system.
void BM_NetworkPacketRate(benchmark::State& state) {
  const std::string routing_name =
      state.range(0) == 0 ? "MIN" : (state.range(0) == 1 ? "UGALn" : "Q-adp");
  std::int64_t packets = 0;
  EngineStats engine_stats;
  // The immutable plan is loop-invariant: build it once outside the timed
  // region (pre-blueprint, the per-iteration Dragonfly build was timed; the
  // benchmark measures engine/network packet rate, not plan construction).
  StudyConfig bp_config;
  bp_config.topo = DragonflyParams::tiny();
  const auto bp = SystemBlueprint::build(bp_config);
  const Dragonfly& topo = bp->topo();
  for (auto _ : state) {
    Engine engine;
    routing::RoutingContext context{&engine, &topo, &bp->net(), 1};
    auto routing = routing::make_routing(routing_name, context);
    Network net(engine, *bp, *routing, 1, 1);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
      int dst = src;
      while (dst == src) {
        dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
      }
      net.send_message(src, dst, 2048, 0);
    }
    engine.run();
    packets += static_cast<std::int64_t>(net.packet_log().delivered_packets(0));
    engine_stats = engine.stats();
  }
  report_engine_stats(state, engine_stats);
  state.SetItemsProcessed(packets);
  state.SetLabel(routing_name);
}
BENCHMARK(BM_NetworkPacketRate)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

/// Full-stack rate: one FFT3D iteration on the paper topology.
void BM_StudyFft3dIteration(benchmark::State& state) {
  for (auto _ : state) {
    StudyConfig config;
    config.topo = DragonflyParams::paper();
    config.routing = "UGALg";
    config.scale = 13;  // exactly one FFT3D iteration
    Study study(config);
    study.add_app("FFT3D", 528);
    const Report report = study.run();
    benchmark::DoNotOptimize(report.events_executed);
  }
}
BENCHMARK(BM_StudyFft3dIteration)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
