// Memory / allocation bench: per-cell startup cost of a multi-cell FFT3D
// sweep across three modes — fresh builds, per-worker arena reuse, and
// arena reuse + cross-cell SystemBlueprint sharing (the production
// SubmissionQueue path).
//
// Reports, per mode: wall time per cell, heap allocations per cell (counted
// by a global operator-new override in this binary), and the process peak
// RSS after the phase; plus the arena's carried capacities and reuse
// counters, and the blueprint cache's hit/miss/build-time/footprint stats.
// All modes must produce byte-identical report JSON — the bench exits
// non-zero if they do not.
//
//   bench_memory --smoke --json=BENCH_memory.json   # the CI invocation
//   bench_memory --scale=8 --cells=6 --routing=PAR
//
// CI uploads BENCH_memory.json next to BENCH_engine.json so the perf
// trajectory tracks footprint, not just time.

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/arena.hpp"
#include "core/blueprint.hpp"
#include "core/json_report.hpp"
#include "core/study.hpp"

// --- counting allocator ------------------------------------------------------

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

namespace dfly::bench {
namespace {

using Clock = std::chrono::steady_clock;

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

struct CellMetrics {
  double wall_ms{0};
  std::uint64_t allocs{0};
  std::string report_json;
  EngineStats engine;  ///< per-kind schedule/pop counters (Engine::stats())
};

struct PhaseMetrics {
  std::vector<CellMetrics> cells;
  /// ru_maxrss snapshot when the phase finished. The counter is
  /// process-lifetime-monotonic, so this is CUMULATIVE: the arena phase runs
  /// second and its reading includes the fresh phase's peak — the meaningful
  /// arena number is the delta over the fresh snapshot (any extra peak the
  /// carried storage added).
  long rss_kb_after{0};

  double mean_wall_tail() const {  // cells after the first (steady state)
    double sum = 0;
    for (std::size_t i = 1; i < cells.size(); ++i) sum += cells[i].wall_ms;
    return cells.size() > 1 ? sum / static_cast<double>(cells.size() - 1) : 0;
  }
  double mean_allocs_tail() const {
    double sum = 0;
    for (std::size_t i = 1; i < cells.size(); ++i) sum += static_cast<double>(cells[i].allocs);
    return cells.size() > 1 ? sum / static_cast<double>(cells.size() - 1) : 0;
  }
};

CellMetrics run_cell(const StudyConfig& base, std::uint64_t seed, const std::string& app,
                     int nodes, SimArena* arena) {
  StudyConfig config = base;
  config.seed = seed;
  CellMetrics metrics;
  const auto t0 = Clock::now();
  const std::uint64_t a0 = allocation_count();
  {
    // The whole cell lifecycle is the measured unit: build, run, report,
    // teardown (teardown hands storage back to the arena).
    Study study(config, arena);
    study.add_app(app, nodes);
    metrics.report_json = report_to_json(study.run());
    metrics.engine = study.engine().stats();
  }
  metrics.allocs = allocation_count() - a0;
  metrics.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(Clock::now() - t0)
          .count();
  return metrics;
}

PhaseMetrics run_phase(const StudyConfig& base, const std::string& app, int nodes, int cells,
                       std::uint64_t base_seed, SimArena* arena,
                       BlueprintCache* cache = nullptr) {
  // With a cache bound, every cell of the phase shares one immutable plan
  // (what SubmissionQueue workers see); without one, each Study builds a
  // private blueprint — the pre-sharing per-cell constant.
  ScopedBlueprintCacheBinding binding(cache);
  PhaseMetrics phase;
  for (int c = 0; c < cells; ++c) {
    phase.cells.push_back(run_cell(base, base_seed + static_cast<std::uint64_t>(c), app,
                                   nodes, arena));
  }
  phase.rss_kb_after = peak_rss_kb();
  return phase;
}

std::string kind_array(const std::array<std::uint64_t, EngineStats::kKinds + 1>& counts) {
  std::string out = "[";
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (k > 0) out += ", ";
    out += std::to_string(counts[k]);
  }
  return out + "]";
}

std::string json_array(const std::vector<CellMetrics>& cells, bool wall) {
  std::string out = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ", ";
    char buf[32];
    if (wall) {
      std::snprintf(buf, sizeof buf, "%.3f", cells[i].wall_ms);
    } else {
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(cells[i].allocs));
    }
    out += buf;
  }
  return out + "]";
}

int run(int argc, char** argv) {
  Caps caps;
  caps.json = true;
  caps.smoke = true;
  caps.jobs = false;  // cells run sequentially so per-cell numbers are clean
  const Options options = Options::parse(argc, argv, /*default_scale=*/16, caps);

  const std::string routing = options.routing.empty() ? "PAR" : options.routing;
  StudyConfig base = options.config(routing);
  std::string app = "FFT3D";
  int nodes;
  int cells = 4;
  if (options.smoke) {
    base.topo = DragonflyParams::tiny();  // 72 nodes: seconds, not minutes
    nodes = 32;
  } else {
    nodes = base.topo.num_nodes() / 2;
  }

  print_header("Per-cell memory footprint: " + app + " x" + std::to_string(cells) +
               " cells, routing " + routing +
               " (fresh builds vs arena reuse vs arena + shared blueprint)");

  // Fresh phase first so its RSS reading is not inflated by arena carry;
  // each later phase's ru_maxrss is cumulative over the earlier ones. The
  // arena-phase arena is destroyed before the shared phase starts so the two
  // reuse phases never hold carried storage simultaneously (that would
  // double-count ~one cell of state in the shared phase's RSS reading).
  const PhaseMetrics fresh =
      run_phase(base, app, nodes, cells, options.seed, /*arena=*/nullptr);
  PhaseMetrics reused;
  ArenaStats arena_stats;
  {
    SimArena arena;
    reused = run_phase(base, app, nodes, cells, options.seed, &arena);
    arena_stats = arena.stats();
  }
  BlueprintCache cache;
  SimArena shared_arena;
  const PhaseMetrics shared =
      run_phase(base, app, nodes, cells, options.seed, &shared_arena, &cache);
  const BlueprintCache::Stats cache_stats = cache.stats();
  const std::shared_ptr<const SystemBlueprint> blueprint = cache.get_or_build(base);

  bool identical = true;
  for (int c = 0; c < cells; ++c) {
    if (fresh.cells[static_cast<std::size_t>(c)].report_json !=
        reused.cells[static_cast<std::size_t>(c)].report_json) {
      identical = false;
      std::fprintf(stderr, "cell %d: arena report differs from fresh report!\n", c);
    }
    if (fresh.cells[static_cast<std::size_t>(c)].report_json !=
        shared.cells[static_cast<std::size_t>(c)].report_json) {
      identical = false;
      std::fprintf(stderr, "cell %d: shared-blueprint report differs from fresh report!\n", c);
    }
  }

  std::printf("%-6s %11s %11s %12s %14s %14s %14s\n", "cell", "fresh ms", "arena ms",
              "shared ms", "fresh allocs", "arena allocs", "shared allocs");
  print_rule();
  for (int c = 0; c < cells; ++c) {
    const auto& f = fresh.cells[static_cast<std::size_t>(c)];
    const auto& a = reused.cells[static_cast<std::size_t>(c)];
    const auto& sh = shared.cells[static_cast<std::size_t>(c)];
    std::printf("%-6d %11.3f %11.3f %12.3f %14llu %14llu %14llu\n", c, f.wall_ms, a.wall_ms,
                sh.wall_ms, static_cast<unsigned long long>(f.allocs),
                static_cast<unsigned long long>(a.allocs),
                static_cast<unsigned long long>(sh.allocs));
  }
  print_rule();
  const double alloc_ratio =
      fresh.mean_allocs_tail() > 0 ? reused.mean_allocs_tail() / fresh.mean_allocs_tail() : 0;
  const double shared_alloc_ratio =
      fresh.mean_allocs_tail() > 0 ? shared.mean_allocs_tail() / fresh.mean_allocs_tail() : 0;
  std::printf("steady-state (cells 2..%d) mean: fresh %.3f ms / %.0f allocs, "
              "arena %.3f ms / %.0f allocs (%.1f%% of fresh), arena+blueprint %.3f ms / "
              "%.0f allocs (%.1f%% of fresh)\n",
              cells, fresh.mean_wall_tail(), fresh.mean_allocs_tail(),
              reused.mean_wall_tail(), reused.mean_allocs_tail(), 100.0 * alloc_ratio,
              shared.mean_wall_tail(), shared.mean_allocs_tail(), 100.0 * shared_alloc_ratio);
  std::printf("blueprint cache: %llu hits / %llu misses, %.3f ms total build time, "
              "%.1f KB shared plan footprint\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses), cache_stats.build_ms_total,
              static_cast<double>(blueprint->footprint_bytes()) / 1024.0);
  const long arena_rss_delta = reused.rss_kb_after - fresh.rss_kb_after;
  const long shared_rss_delta = shared.rss_kb_after - reused.rss_kb_after;
  std::printf("peak RSS (cumulative ru_maxrss): %ld KB after fresh phase, +%ld KB added by "
              "the arena phase, +%ld KB by the shared-blueprint phase\n",
              fresh.rss_kb_after, arena_rss_delta, shared_rss_delta);
  std::printf("arena carry: %zu packet slots, %llu/%llu routers, "
              "%llu/%llu NICs and %llu/%llu ranks recycled\n",
              arena_stats.pool_capacity,
              static_cast<unsigned long long>(arena_stats.router_reuses),
              static_cast<unsigned long long>(arena_stats.router_reuses +
                                              arena_stats.router_builds),
              static_cast<unsigned long long>(arena_stats.nic_reuses),
              static_cast<unsigned long long>(arena_stats.nic_reuses +
                                              arena_stats.nic_builds),
              static_cast<unsigned long long>(arena_stats.rank_reuses),
              static_cast<unsigned long long>(arena_stats.rank_reuses +
                                              arena_stats.rank_builds));
  std::printf("mpi carry: %zu inflight-map slots, %zu match-list slots\n",
              arena_stats.inflight_capacity, arena_stats.match_capacity);
  std::printf("outputs byte-identical: %s\n", identical ? "yes" : "NO (regression!)");

  if (!options.json_path.empty()) {
    char buf[512];
    std::string json = "{\n";
    json += "  \"bench\": \"memory\",\n";
    std::snprintf(buf, sizeof buf,
                  "  \"app\": \"%s\", \"nodes\": %d, \"cells\": %d, \"scale\": %d, "
                  "\"routing\": \"%s\", \"seed\": %llu,\n",
                  app.c_str(), nodes, cells, options.scale, routing.c_str(),
                  static_cast<unsigned long long>(options.seed));
    json += buf;
    json += "  \"fresh\": {\"cell_wall_ms\": " + json_array(fresh.cells, true) +
            ", \"cell_allocs\": " + json_array(fresh.cells, false) +
            ", \"peak_rss_kb\": " + std::to_string(fresh.rss_kb_after) + "},\n";
    // Per-kind schedule/pop counters of the first cell (what the workload's
    // event mix looks like; identical whether storage came from the arena).
    const EngineStats& engine_stats = fresh.cells.front().engine;
    json += "  \"engine\": {\"scheduled_total\": " +
            std::to_string(engine_stats.scheduled_total()) +
            ", \"executed_total\": " + std::to_string(engine_stats.executed_total()) +
            ",\n    \"scheduled_by_kind\": " + kind_array(engine_stats.scheduled_by_kind) +
            ",\n    \"executed_by_kind\": " + kind_array(engine_stats.executed_by_kind) +
            "},\n";
    // rss readings are cumulative ru_maxrss snapshots (the arena phase runs
    // second); arena_rss_delta_kb is the peak the carried storage added.
    json += "  \"arena\": {\"cell_wall_ms\": " + json_array(reused.cells, true) +
            ", \"cell_allocs\": " + json_array(reused.cells, false) +
            ", \"peak_rss_kb_cumulative\": " + std::to_string(reused.rss_kb_after) +
            ", \"arena_rss_delta_kb\": " + std::to_string(arena_rss_delta);
    const ArenaStats& stats = arena_stats;
    std::snprintf(buf, sizeof buf,
                  ", \"pool_capacity\": %zu, \"pool_peak_packets\": %zu, "
                  "\"router_reuses\": %llu, \"nic_reuses\": %llu, \"rank_reuses\": %llu, "
                  "\"inflight_capacity\": %zu, \"match_capacity\": %zu},\n",
                  stats.pool_capacity, stats.pool_peak_packets,
                  static_cast<unsigned long long>(stats.router_reuses),
                  static_cast<unsigned long long>(stats.nic_reuses),
                  static_cast<unsigned long long>(stats.rank_reuses), stats.inflight_capacity,
                  stats.match_capacity);
    json += buf;
    // The shared phase runs third: its RSS delta is over the arena phase.
    json += "  \"shared_blueprint\": {\"cell_wall_ms\": " + json_array(shared.cells, true) +
            ", \"cell_allocs\": " + json_array(shared.cells, false) +
            ", \"peak_rss_kb_cumulative\": " + std::to_string(shared.rss_kb_after) +
            ", \"shared_rss_delta_kb\": " + std::to_string(shared_rss_delta);
    std::snprintf(buf, sizeof buf,
                  ", \"cache_hits\": %llu, \"cache_misses\": %llu, "
                  "\"blueprint_build_ms\": %.3f, \"blueprint_footprint_bytes\": %zu},\n",
                  static_cast<unsigned long long>(cache_stats.hits),
                  static_cast<unsigned long long>(cache_stats.misses),
                  cache_stats.build_ms_total, blueprint->footprint_bytes());
    json += buf;
    // steady_allocs_* are absolute per-cell means over the steady tail —
    // CI diffs steady_allocs_arena against bench/memory_alloc_ceiling.txt.
    std::snprintf(buf, sizeof buf,
                  "  \"derived\": {\"identical_output\": %s, "
                  "\"steady_alloc_ratio\": %.4f, \"steady_alloc_ratio_shared\": %.4f, "
                  "\"steady_allocs_fresh\": %.0f, \"steady_allocs_arena\": %.0f, "
                  "\"steady_wall_ms_fresh\": %.3f, \"steady_wall_ms_arena\": %.3f, "
                  "\"steady_wall_ms_shared\": %.3f}\n}\n",
                  identical ? "true" : "false", alloc_ratio, shared_alloc_ratio,
                  fresh.mean_allocs_tail(), reused.mean_allocs_tail(),
                  fresh.mean_wall_tail(), reused.mean_wall_tail(), shared.mean_wall_tail());
    json += buf;
    save_json(options.json_path, json);
    std::printf("wrote %s\n", options.json_path.c_str());
  }
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace dfly::bench

int main(int argc, char** argv) { return dfly::bench::run(argc, argv); }
