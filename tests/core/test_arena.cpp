// Tests for the per-worker simulation arena (core/arena.hpp): the
// counting-allocator steady-state regression, bit-identical output with
// reuse on vs off, the dirty-state fuzz (deliberately different cell shapes
// back-to-back through one arena), and the acquire/release lifecycle.

#include "core/arena.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/json_report.hpp"
#include "core/study.hpp"
#include "mpi/coll.hpp"
#include "mpi/job.hpp"
#include "net/network.hpp"
#include "routing/factory.hpp"
#include "sim/rng.hpp"

// --- counting allocator ------------------------------------------------------
//
// Global operator new/delete overrides count every heap allocation made by
// this binary. The tests only ever compare *deltas* around single-threaded
// regions they fully control, so unrelated gtest allocations never leak into
// an assertion.

namespace {
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() { return g_allocations.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace dfly {
namespace {

// --- the zero-steady-state-allocation regression -----------------------------

/// Synthetic hot-path component: every event allocates a packet, parks it in
/// a fixed ring, releases the oldest once the ring is full, schedules a
/// follow-up event, and periodically sends a short-delay event to a no-op
/// component. All bookkeeping lives on the stack/in the fixture so the only
/// heap traffic is Engine/PacketPool growth.
class Churn final : public Component {
 public:
  struct Idle final : Component {
    void handle(Engine&, const Event&) override {}
  };

  PacketPool* pool{nullptr};
  Idle idle;
  std::array<std::uint32_t, 64> held{};
  std::size_t held_count{0};
  int follow_ups{0};

  void handle(Engine& engine, const Event& event) override {
    Packet& packet = pool->alloc();
    packet.bytes = static_cast<std::int32_t>(event.a % 4096);
    if (held_count == held.size()) {
      pool->release(pool->get(held[event.a % held.size()]));
      held[event.a % held.size()] = packet.id;
    } else {
      held[held_count++] = packet.id;
    }
    if (follow_ups > 0) {
      --follow_ups;
      // Two events at the same timestamp share one delay lane.
      engine.schedule_in(7, *this, 1, event.a + 1);
      engine.schedule_in(7, *this, 1, event.a + 2);
    }
    if (event.a % 50 == 0) engine.schedule_in(3, idle, 0);
  }
};

/// One synthetic cell on a reused engine and the arena's packet pool: take
/// the pool, churn events and packets, hand the pool back. Returns the
/// allocation-count delta of the steady-state region: scheduling, running,
/// packet churn and drain. Events are scheduled relative to now(), since the
/// engine's clock carries over from the previous round.
std::uint64_t run_synthetic_cell(Engine& engine, SimArena& arena) {
  SimArena::NetStorage net = arena.take_net();
  Churn churn;
  churn.pool = &net.pool;
  churn.follow_ups = 3000;
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1500; ++i) {
    engine.schedule_at(engine.now() + i * 11, churn, 1, static_cast<std::uint64_t>(i) * 3);
  }
  engine.run();
  // Drain the ring so the pool is idle when it goes back.
  for (std::size_t i = 0; i < churn.held_count; ++i) {
    net.pool.release(net.pool.get(churn.held[i]));
  }
  const std::uint64_t steady = allocation_count() - before;
  engine.clear();
  arena.return_net(std::move(net));
  return steady;
}

TEST(ArenaSteadyState, ZeroAllocationsOnSecondSameShapeCell) {
  SimArena arena;
  Engine engine;
  const std::uint64_t first = run_synthetic_cell(engine, arena);
  EXPECT_GT(first, 0u) << "warm-up cell must grow the engine and pool storage";
  // Later same-shape rounds re-initialise in place: the engine's lane blocks
  // and overflow heap survive clear(), and the packet slab comes back from
  // the arena, so the steady state touches the allocator ZERO times. Any new
  // per-event or per-packet allocation shows up here as a non-zero delta.
  const std::uint64_t second = run_synthetic_cell(engine, arena);
  EXPECT_EQ(second, 0u);
  const std::uint64_t third = run_synthetic_cell(engine, arena);
  EXPECT_EQ(third, 0u);
  EXPECT_GT(arena.stats().pool_peak_packets, 0u);
  EXPECT_GT(arena.stats().pool_capacity, 0u);
}

// --- full-Study reuse --------------------------------------------------------

StudyConfig tiny_config(const std::string& routing, std::uint64_t seed) {
  StudyConfig config;
  config.topo = DragonflyParams::tiny();
  config.routing = routing;
  config.seed = seed;
  config.scale = 64;
  return config;
}

Report run_cell(const StudyConfig& config, const std::string& app, int nodes,
                SimArena* arena) {
  Study study(config, arena);
  study.add_app(app, nodes);
  return study.run();
}

TEST(ArenaReuse, StudyReportsBitIdenticalToFreshRuns) {
  SimArena arena;
  std::vector<std::string> with_arena;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    with_arena.push_back(
        report_to_json(run_cell(tiny_config("UGALg", seed), "UR", 32, &arena)));
  }
  EXPECT_EQ(arena.stats().cells, 3u);
  EXPECT_GT(arena.stats().router_reuses, 0u);
  EXPECT_GT(arena.stats().nic_reuses, 0u);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Report fresh = run_cell(tiny_config("UGALg", seed), "UR", 32, nullptr);
    EXPECT_EQ(with_arena[seed - 1], report_to_json(fresh)) << "seed " << seed;
  }
}

TEST(ArenaReuse, SecondStudyCellAllocatesLess) {
  SimArena arena;
  auto measure = [&arena] {
    const std::uint64_t before = allocation_count();
    (void)run_cell(tiny_config("PAR", 7), "FFT3D", 32, &arena);
    return allocation_count() - before;
  };
  const std::uint64_t first = measure();
  const std::uint64_t second = measure();
  // A full Study still allocates in steady state (coroutine frames, report
  // strings), but the arena removes the engine/pool/router/NIC/stats
  // re-growth — the second cell must be strictly cheaper.
  EXPECT_LT(second, first);
}

// Two same-shape cells through one arena: the first builds every router,
// NIC and rank, the second recycles every one of them. These are the
// counters the benchmark harness turns into core.arena.reuse_ratio.
TEST(ArenaReuse, SecondCellRecyclesEveryRouterNicAndRank) {
  SimArena arena;
  const StudyConfig config = tiny_config("PAR", 7);
  int routers = 0;
  int nics = 0;
  int ranks = 0;
  {
    Study study(config, &arena);
    study.add_app("FFT3D", 32);
    study.run();
    routers = study.topo().num_routers();
    nics = study.topo().num_nodes();
    ranks = study.job(0).size();
  }
  ASSERT_GT(ranks, 0);
  const ArenaStats first = arena.stats();
  EXPECT_EQ(first.router_builds, static_cast<std::uint64_t>(routers));
  EXPECT_EQ(first.nic_builds, static_cast<std::uint64_t>(nics));
  EXPECT_EQ(first.rank_builds, static_cast<std::uint64_t>(ranks));
  EXPECT_EQ(first.router_reuses + first.nic_reuses + first.rank_reuses, 0u);
  (void)run_cell(config, "FFT3D", 32, &arena);
  const ArenaStats second = arena.stats();
  EXPECT_EQ(second.router_reuses, static_cast<std::uint64_t>(routers));
  EXPECT_EQ(second.nic_reuses, static_cast<std::uint64_t>(nics));
  EXPECT_EQ(second.rank_reuses, static_cast<std::uint64_t>(ranks));
  EXPECT_EQ(second.router_builds, first.router_builds);
  EXPECT_EQ(second.nic_builds, first.nic_builds);
  EXPECT_EQ(second.rank_builds, first.rank_builds);
}

// --- MPI-layer steady state --------------------------------------------------

/// Exercises every steady-state MPI allocation source in one motif: the
/// point-to-point window (request slots, match lists, eager + rendezvous
/// protocol maps), the built-in tree/ring collectives, and the extended
/// algorithm families (coroutine frames of nested collective Tasks).
class MpiChurnMotif final : public mpi::Motif {
 public:
  std::string name() const override { return "MpiChurn"; }
  mpi::Task run(mpi::RankCtx& ctx) const override {
    const int n = ctx.size();
    std::vector<int> members(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) members[static_cast<std::size_t>(i)] = i;
    std::vector<mpi::ReqId> window;
    window.reserve(2 * static_cast<std::size_t>(n));
    for (int iter = 0; iter < 4; ++iter) {
      window.clear();
      for (int peer = 0; peer < n; ++peer) {
        if (peer == ctx.rank()) continue;
        window.push_back(ctx.irecv(peer, iter));
        // > eager_threshold every other iteration: both protocol paths churn.
        window.push_back(ctx.isend(peer, iter % 2 == 0 ? 1024 : 64 * 1024, iter));
      }
      co_await ctx.wait_all(window);
      co_await ctx.allreduce(512);
      co_await ctx.alltoall(256, members);
      co_await mpi::coll::allreduce(ctx, 2048, mpi::coll::AllreduceAlg::kRing);
      co_await ctx.barrier();
    }
  }
};

/// One MPI cell over recycled arena storage, on a fresh engine. Returns the
/// allocation delta of MpiSystem + Job construction (from parked storage),
/// the whole simulation run, and the teardown that parks the storage again.
/// The network and routing scaffolding are built outside the measured window
/// (network reuse is covered by the Study-level tests).
std::uint64_t run_mpi_cell(SimArena& arena, const SystemBlueprint& bp) {
  Engine engine;
  routing::RoutingContext context{&engine, &bp.topo(), &bp.net(), 21};
  std::unique_ptr<RoutingAlgorithm> routing = routing::make_routing("MIN", context);
  Network net(engine, bp, *routing, 1, 21, {}, &arena);
  MpiChurnMotif motif;
  std::vector<int> nodes;
  for (int r = 0; r < 8; ++r) nodes.push_back(r);
  const std::uint64_t before = allocation_count();
  auto system = std::make_unique<mpi::MpiSystem>(net);
  auto job = std::make_unique<mpi::Job>(engine, net, *system, 0, "churn", motif,
                                        std::move(nodes), 21, mpi::ProtocolConfig{}, &arena);
  job->start();
  engine.run();
  job.reset();
  system.reset();
  return allocation_count() - before;
}

TEST(ArenaSteadyState, MpiLayerNearZeroAllocationsOnSecondSameShapeCell) {
  SimArena arena;
  const std::shared_ptr<const SystemBlueprint> bp =
      SystemBlueprint::build(tiny_config("MIN", 21));
  const std::uint64_t first = run_mpi_cell(arena, *bp);
  EXPECT_GT(first, 100u) << "warm-up cell must grow the MPI storage";
  // Second same-shape cell: RankCtx objects, request slots, match-list pools,
  // protocol maps and the Task vector all come back out of the parked
  // JobStorage. What is left, exactly:
  //   - 24: per-cell setup the harness and motif own (two unique_ptr nodes
  //     plus the member/window vectors in each rank's coroutine frame,
  //     2 x 8 ranks; 18 measured, 6 slack);
  //   - kFramesPerCell: one heap block per coroutine frame the cell creates;
  //   - kFreshPerCell: the storage of the two objects built fresh per cell,
  //     the engine's queue (4) and MpiSystem's message-owner map (3
  //     rehashes of two arrays, 6).
  // Any regrowth in src/mpi shows up as a delta above this bound.
  constexpr std::uint64_t kFramesPerCell = 360;
  constexpr std::uint64_t kFreshPerCell = 4 + 6;
  const std::uint64_t second = run_mpi_cell(arena, *bp);
  EXPECT_LE(second, 24u + kFramesPerCell + kFreshPerCell);
  const std::uint64_t third = run_mpi_cell(arena, *bp);
  EXPECT_LE(third, 24u + kFramesPerCell + kFreshPerCell);
  EXPECT_GT(arena.stats().rank_reuses, 0u);
  EXPECT_GT(arena.stats().inflight_capacity, 0u);
  EXPECT_GT(arena.stats().match_capacity, 0u);
}

// --- dirty-state fuzz --------------------------------------------------------

// Cells of deliberately different sizes, workloads, routings and QoS shapes
// run back-to-back through ONE arena; every report must match a fresh run
// of the same cell with no arena bound. This is the test that catches a
// missed field in any reinit()/reset() path: state leaking from cell i shows
// up as a report mismatch in cell i+1.
TEST(ArenaReuse, DirtyStateFuzzAcrossDifferentCellShapes) {
  const std::vector<std::string> apps{"UR", "FFT3D", "Halo3D", "CosmoFlow", "LU"};
  const std::vector<std::string> routings{"MIN", "UGALg", "PAR", "Q-adp"};
  const std::vector<int> node_counts{16, 24, 32, 48};

  SimArena arena;
  Rng rng(20260729);  // seeded: the "random" schedule is reproducible
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
    if (rng.next_bernoulli(0.5)) {
      cell.config.observability.keep_packet_records = true;
    }
    cells.push_back(std::move(cell));
  }

  std::vector<std::string> dirty;
  for (const Cell& cell : cells) {
    dirty.push_back(report_to_json(run_cell(cell.config, cell.app, cell.nodes, &arena)));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Report fresh = run_cell(cells[i].config, cells[i].app, cells[i].nodes, nullptr);
    EXPECT_EQ(dirty[i], report_to_json(fresh))
        << "cell " << i << " (" << cells[i].app << " on " << cells[i].config.routing
        << ", seed " << cells[i].config.seed << ") diverged after arena reuse";
  }
}

/// One job running a specific (allreduce, alltoall, reduce-scatter)
/// algorithm triple — the dirty-state fuzz below drives every family through
/// one arena back-to-back so a pooled structure that one algorithm shapes
/// differently (match-list slots, frame sizes, protocol-map load) is handed
/// dirty to the next.
class AlgMixMotif final : public mpi::Motif {
 public:
  AlgMixMotif(mpi::coll::AllreduceAlg ar, mpi::coll::AlltoallAlg a2a,
              mpi::coll::ReduceScatterAlg rs)
      : ar_(ar), a2a_(a2a), rs_(rs) {}
  std::string name() const override { return "AlgMix"; }
  mpi::Task run(mpi::RankCtx& ctx) const override {
    const int n = ctx.size();
    std::vector<int> members(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) members[static_cast<std::size_t>(i)] = i;
    for (int iter = 0; iter < 3; ++iter) {
      co_await mpi::coll::allreduce(ctx, 8192, ar_);
      co_await mpi::coll::alltoall(ctx, 1024, members, a2a_);
      co_await mpi::coll::reduce_scatter(ctx, 4096, rs_);
      ctx.mark_iteration();
    }
  }

 private:
  mpi::coll::AllreduceAlg ar_;
  mpi::coll::AlltoallAlg a2a_;
  mpi::coll::ReduceScatterAlg rs_;
};

Report run_alg_cell(const StudyConfig& config, mpi::coll::AllreduceAlg ar,
                    mpi::coll::AlltoallAlg a2a, mpi::coll::ReduceScatterAlg rs, int nodes,
                    SimArena* arena) {
  Study study(config, arena);
  study.add_motif(std::make_unique<AlgMixMotif>(ar, a2a, rs), nodes, "AlgMix");
  return study.run();
}

// Every collective-algorithm family cycles through ONE arena (varying rank
// counts, including non-power-of-two fallback paths); each report must match
// a fresh run with no arena bound, bit-for-bit.
TEST(ArenaReuse, DirtyStateCollectivesFuzzMatchesFreshRuns) {
  using mpi::coll::AllreduceAlg;
  using mpi::coll::AlltoallAlg;
  using mpi::coll::ReduceScatterAlg;
  struct AlgCell {
    AllreduceAlg ar;
    AlltoallAlg a2a;
    ReduceScatterAlg rs;
    int nodes;
  };
  const std::vector<AlgCell> cells{
      {AllreduceAlg::kBinaryTree, AlltoallAlg::kRing, ReduceScatterAlg::kRing, 16},
      {AllreduceAlg::kRing, AlltoallAlg::kPairwise, ReduceScatterAlg::kHalving, 16},
      {AllreduceAlg::kRecursiveDoubling, AlltoallAlg::kBruck, ReduceScatterAlg::kRing, 12},
      {AllreduceAlg::kHalvingDoubling, AlltoallAlg::kBruck, ReduceScatterAlg::kHalving, 32},
      {AllreduceAlg::kRing, AlltoallAlg::kRing, ReduceScatterAlg::kHalving, 24},
      {AllreduceAlg::kBinaryTree, AlltoallAlg::kPairwise, ReduceScatterAlg::kRing, 32},
  };

  SimArena arena;
  std::vector<std::string> dirty;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const AlgCell& c = cells[i];
    dirty.push_back(report_to_json(
        run_alg_cell(tiny_config("UGALg", 40 + i), c.ar, c.a2a, c.rs, c.nodes, &arena)));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const AlgCell& c = cells[i];
    const Report fresh =
        run_alg_cell(tiny_config("UGALg", 40 + i), c.ar, c.a2a, c.rs, c.nodes, nullptr);
    EXPECT_EQ(dirty[i], report_to_json(fresh))
        << "algorithm cell " << i << " diverged after arena reuse";
  }
}

// --- lifecycle ---------------------------------------------------------------

TEST(SimArena, SecondConcurrentStudyRunsWithoutArena) {
  SimArena arena;
  StudyConfig config = tiny_config("MIN", 5);
  Study holder(config, &arena);
  EXPECT_EQ(holder.arena(), &arena);
  EXPECT_TRUE(arena.in_use());
  Study bystander(config, &arena);  // arena busy: silently builds fresh
  EXPECT_EQ(bystander.arena(), nullptr);
  {
    Study nested(config, &arena);
    EXPECT_EQ(nested.arena(), nullptr);
  }
  EXPECT_TRUE(arena.in_use());  // nested teardown must not steal the claim
}

TEST(SimArena, ThreadBindingIsPickedUpAndRestored) {
  EXPECT_EQ(SimArena::current(), nullptr);
  SimArena outer, inner;
  {
    ScopedArenaBinding bind_outer(&outer);
    EXPECT_EQ(SimArena::current(), &outer);
    {
      ScopedArenaBinding bind_inner(&inner);
      EXPECT_EQ(SimArena::current(), &inner);
      StudyConfig config = tiny_config("MIN", 9);
      Study study(config);
      EXPECT_EQ(study.arena(), &inner);
    }
    EXPECT_EQ(SimArena::current(), &outer);
  }
  EXPECT_EQ(SimArena::current(), nullptr);
}

// --- storage-primitive reuse invariants --------------------------------------

TEST(PacketPoolReset, HandsOutFreshIdSequence) {
  PacketPool pool;
  std::vector<std::uint32_t> first_ids;
  for (int i = 0; i < 5; ++i) first_ids.push_back(pool.alloc().id);
  for (const std::uint32_t id : first_ids) pool.release(pool.get(id));
  EXPECT_EQ(pool.peak_in_use(), 5u);
  pool.reset();
  EXPECT_EQ(pool.capacity(), 5u);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.peak_in_use(), 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(pool.alloc().id, static_cast<std::uint32_t>(i)) << "reset pool must allocate "
                                                                 "ids like a fresh pool";
  }
}

// A cell stopped by its time limit (or the watchdog) tears down with packets
// still in flight, and those slots are never released. PacketPool::reset()
// rebuilds the free list from every slot, so the next cell through the same
// arena takes them back instead of growing the pool past what a fresh pool
// needs. Slot ids never reach output; reclaiming the slots is why the
// rebuild stays.
TEST(PacketPoolReset, ReclaimsSlotsACappedCellLeftInFlight) {
  const StudyConfig config = tiny_config("MIN", 11);
  std::size_t fresh_capacity = 0;
  SimTime makespan = 0;
  {
    Study fresh(config, nullptr);
    fresh.add_app("UR", 32);
    makespan = fresh.run().makespan;
    fresh_capacity = fresh.network().pool().capacity();
  }
  ASSERT_GT(makespan, 0);
  SimArena arena;
  {
    StudyConfig capped = config;
    capped.time_limit = makespan / 2;
    Study study(capped, &arena);
    study.add_app("UR", 32);
    EXPECT_FALSE(study.run().completed);
    ASSERT_GT(study.network().pool().in_use(), 0u) << "the capped cell must leave packets in flight";
  }
  Study study(config, &arena);
  study.add_app("UR", 32);
  EXPECT_TRUE(study.run().completed);
  EXPECT_EQ(study.network().pool().capacity(), fresh_capacity);
}

}  // namespace
}  // namespace dfly
