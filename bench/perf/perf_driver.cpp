// Repository benchmark driver. bench/perf/run.py builds this binary and
// calls it many times per benchmark run, each call a fresh process:
//
//   perf_driver --workload=cell_par --seed=1 --cpu=K --probe [--spans=FILE]
//       times one set-up: the work before the first simulated event;
//   perf_driver --workload=cell_par --seed=1 --cpu=K --reference
//       times fixed reference work that runs no repository code;
//   perf_driver --workload=cell_par --seed=1 --cpu=K --seconds=S [--spans=FILE]
//       runs units of work: one cell or one campaign, or for daemon_burst
//       one daemon serving closed-loop clients for at most S seconds.
//
// A single-threaded call (a probe, the reference, or a cell) runs on the
// K-th CPU it may use. On a shared host the CPUs differ in speed, by 30 %
// at times, and the difference moves from CPU to CPU; run.py counts K up
// so that a run samples every CPU alike.
//
// Each call prints a host line first and one JSON line last. run.py checks
// the outputs of all calls and reduces their samples to the metrics. With
// --spans=FILE the call records spans around its calls into each layer and
// writes them to FILE when it ends; reduce_spans.py reads them. The driver
// runs from the repository root; the paths below are relative to it.
// Workloads, metrics and the span layout are described in
// bench/perf/README.md.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "core/blueprint.hpp"
#include "core/json_report.hpp"
#include "core/mutex.hpp"
#include "core/plan.hpp"
#include "core/study.hpp"
#include "serve/protocol.hpp"

extern char** environ;

// --- allocation counter (traced calls only) ----------------------------------

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
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

namespace dfly::perf {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kBenchDir = "bench/perf";
constexpr const char* kDflysim = "build-perf/bin/dflysim";
constexpr const char* kWorkDir = "build-perf/run";  ///< daemon sockets, spools and logs

/// daemon_burst: closed-loop clients, and the number of distinct submission
/// inputs they cycle through (submission k runs input k % kDaemonSlots).
constexpr int kDaemonClients = 2;
constexpr std::size_t kDaemonSlots = 8;
/// One daemon serves at most this long. Speed differs from process to
/// process on a shared host, so run.py starts several daemons per run.
constexpr double kDaemonWindowS = 4.0;
/// A daemon that sends nothing for this long is treated as hung.
constexpr int kIoTimeoutMs = 60000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double cpu_seconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

rusage self_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

/// Keeps the reference work's result alive.
volatile std::uint64_t g_reference_sink = 0;

/// Fixed work that runs no repository code: a dependent random walk over
/// 32 MB and a dependent multiply-add chain, about 110 ms on the baseline
/// host. Both are latency-bound, so compiler flags barely move them, while
/// contention on a shared host slows them too, though less steeply than it
/// slows the simulator. run.py scales each run's times by a power of it.
/// Returns milliseconds.
double reference_ms() {
  constexpr std::uint32_t kSlots = 1u << 23;
  const std::vector<std::uint32_t> table(kSlots, 0);
  const Clock::time_point start = Clock::now();
  std::uint32_t slot = 0;
  for (int i = 0; i < 600000; ++i) {
    // A full-period LCG step; adding the loaded value makes each load wait
    // for the one before it.
    slot = (slot * 1664525u + 1013904223u + table[slot]) & (kSlots - 1);
  }
  std::uint64_t x = slot;
  for (int i = 0; i < 15000000; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  const double ms = ms_between(start, Clock::now());
  g_reference_sink = x;
  return ms;
}

/// Pin this process, and the children it starts, to the k-th CPU it may run
/// on (k modulo their number).
void pin_to_cpu(std::size_t k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error(std::string("sched_getaffinity: ") + std::strerror(errno));
  }
  std::size_t target = k % static_cast<std::size_t>(CPU_COUNT(&allowed));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || target-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error(std::string("sched_setaffinity: ") + std::strerror(errno));
    }
    return;
  }
}

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{0};
  std::string mode{"window"};  ///< "window", "probe" or "reference"
  std::size_t cpu{0};
  std::string spans_path;  ///< empty = no tracing
  std::string git_sha{"unknown"};
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--probe" || arg == "--reference") {
      options.mode = arg.substr(2);
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --probe, --reference or --key=value, got '" + arg +
                                  "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed") {
      options.seed = std::stoull(value);
    } else if (key == "seconds") {
      options.seconds = std::stod(value);
    } else if (key == "cpu") {
      options.cpu = std::stoull(value);
    } else if (key == "spans") {
      options.spans_path = value;
    } else if (key == "git-sha") {
      options.git_sha = value;
    } else {
      throw std::invalid_argument("unknown option --" + key);
    }
  }
  if (options.seconds < 0) throw std::invalid_argument("--seconds must not be negative");
  return options;
}

enum class Kind { kCell, kCampaign, kDaemon };

struct Workload {
  std::string_view name;
  Kind kind;
  int jobs;  ///< worker threads (campaign) or daemon --jobs
};

constexpr std::array<Workload, 4> kWorkloads{{
    {"cell_par", Kind::kCell, 1},
    {"cell_qadp", Kind::kCell, 1},
    {"campaign_fig4", Kind::kCampaign, 2},
    {"daemon_burst", Kind::kDaemon, 2},
}};

const Workload& find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return workload;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (cell_par, cell_qadp, campaign_fig4, daemon_burst)");
}

std::string plan_path(const Workload& workload) {
  return std::string(kBenchDir) + "/" + std::string(workload.name) + ".cfg";
}

/// The workload's plan with plan.seeds replaced.
ExperimentPlan seeded_plan(const Workload& workload, std::vector<std::uint64_t> seeds) {
  ExperimentPlan plan = load_plan(plan_path(workload));
  plan.seeds = std::move(seeds);
  return plan;
}

// --- spans -------------------------------------------------------------------

using Attrs = std::vector<std::pair<std::string, double>>;

struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0 = root
  std::string trace;        ///< shared by every span of one unit of work
  std::string name;         ///< "<layer>.<call>"
  Clock::time_point start;
  Clock::time_point end;
  Attrs attrs;              ///< counts measured at this boundary
};

/// In-memory span recorder for traced calls; a no-op when tracing is off.
/// Spans are written out once, when the call ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint64_t next_id() { return enabled_ ? ids_.fetch_add(1) : 0; }

  void record(Span span) {
    if (!enabled_) return;
    const MutexLock lock(mutex_);
    spans_.push_back(std::move(span));
  }

  void write(const std::string& path) {
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const MutexLock lock(mutex_);
    for (const Span& span : spans_) {
      JsonWriter w;
      w.begin_object();
      w.key("id").value(span.id);
      w.key("parent").value(span.parent);
      w.key("trace").value(span.trace);
      w.key("name").value(span.name);
      w.key("start_ms").value(ms_between(origin_, span.start));
      w.key("end_ms").value(ms_between(origin_, span.end));
      w.key("attrs").begin_object();
      for (const auto& [key, value] : span.attrs) w.key(key).value(value);
      w.end_object();
      w.end_object();
      out << w.str() << '\n';
    }
    if (!out.flush()) throw std::runtime_error("cannot write span file " + path);
  }

 private:
  const bool enabled_;
  const Clock::time_point origin_{Clock::now()};
  std::atomic<std::uint64_t> ids_{1};
  Mutex mutex_;
  std::vector<Span> spans_ GUARDED_BY(mutex_);
};

// --- results -----------------------------------------------------------------

/// One unit of work: a cell, a campaign, or a daemon submission.
struct Unit {
  std::size_t slot{0};  ///< which input this unit ran (daemon_burst cycles inputs)
  std::string output;   ///< the cell JSONL bytes the unit produced
  double unit_ms{0};
  std::uint64_t events{0};
  std::size_t cells{0};
  std::size_t failed{0};
};

struct RunResult {
  std::vector<Unit> units;
  double peak_rss_mb{0};
  std::vector<std::string> errors;
};

// --- cells through the Study API ---------------------------------------------

/// The jobs run_plan_cell gives a cell: the explicit list, or for a pairwise
/// cell the target and background on half the machine each, as run_pairwise
/// places them. Replays compare their bytes with run_plan's, which keeps the
/// two in step.
void add_jobs(Study& study, const PlanCell& cell) {
  if (cell.kind == PlanCellKind::kPairwise) {
    const int half = study.topo().num_nodes() / 2;
    study.add_app(cell.target, half);
    if (!cell.background.empty() && cell.background != "None") {
      study.add_app(cell.background, half);
    }
    return;
  }
  if (cell.kind != PlanCellKind::kSingle) {
    throw std::invalid_argument("perf_driver replays only single and pairwise cells");
  }
  for (const PlanJob& job : cell.jobs) study.add_app(job.app, job.nodes);
}

Attrs cell_counters(Study& study, const Report& report, std::size_t json_bytes,
                    std::uint64_t allocations) {
  const EngineStats& engine = study.engine().stats();
  double packets = 0, hops = 0, nonminimal = 0;
  for (const AppReport& app : report.apps) {
    const double n = static_cast<double>(app.packets);
    packets += n;
    hops += n * app.mean_hops;
    nonminimal += n * app.nonminimal_fraction;
  }
  double messages = 0, bytes = 0;
  for (int j = 0; j < study.num_jobs(); ++j) {
    messages += static_cast<double>(study.job(j).total_messages_sent());
    bytes += static_cast<double>(study.job(j).total_bytes_sent());
  }
  const auto kind = [&](std::uint32_t k) {
    return static_cast<double>(engine.executed_by_kind[EngineStats::slot(k)]);
  };
  return {{"events", static_cast<double>(report.events_executed)},
          {"events.arrive", kind(1)},
          {"events.try_send", kind(2)},
          {"events.credit", kind(3)},
          {"events.send_done", kind(4)},
          {"peak_queued", static_cast<double>(study.engine().peak_queued())},
          {"pool_peak_packets", static_cast<double>(study.network().pool().peak_in_use())},
          {"packets", packets},
          {"route_decisions", hops},
          {"nonminimal_packets", nonminimal},
          {"makespan_ms", to_ns(report.makespan) / 1e6},
          {"mpi_messages", messages},
          {"mpi_bytes", bytes},
          {"json_bytes", static_cast<double>(json_bytes)},
          {"allocations", static_cast<double>(allocations)}};
}

/// One cell on the calling thread, through whatever SimArena and
/// BlueprintCache are bound to it. A traced call times each phase, records
/// the cell's counters, and afterwards re-runs the cell capped at 1 ps of
/// simulated time so the reducer can split run() into wiring and simulation.
Unit run_cell(const PlanCell& cell, Tracer& tracer, std::uint64_t parent,
              const std::string& trace) {
  const bool traced = tracer.enabled();
  const std::uint64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
  std::array<Clock::time_point, 6> t;
  Unit out;
  out.cells = 1;
  Attrs counters;
  std::shared_ptr<const SystemBlueprint> blueprint;
  t[0] = Clock::now();
  {
    Study study(cell.config);
    add_jobs(study, cell);
    t[1] = Clock::now();
    const Report report = study.run();
    t[2] = Clock::now();
    if (traced) study.report();  // run() builds the same report; this call times it alone
    t[3] = Clock::now();
    out.output = plan_cell_jsonl(cell, report) + '\n';
    t[4] = Clock::now();
    out.failed = report.completed ? 0 : 1;
    out.events = report.events_executed;
    if (traced) {
      blueprint = study.blueprint();
      counters = cell_counters(study, report, out.output.size() - 1,
                               g_allocations.load(std::memory_order_relaxed) -
                                   allocations_before);
    }
  }
  t[5] = Clock::now();
  out.unit_ms = ms_between(t[0], t[5]);
  if (!traced) return out;

  const Clock::time_point probe_start = Clock::now();
  {
    StudyConfig capped = cell.config;
    capped.time_limit = 1 * kPs;
    Study probe(capped, nullptr, blueprint);
    add_jobs(probe, cell);
    probe.run();
  }
  const Clock::time_point probe_end = Clock::now();

  const std::uint64_t id = tracer.next_id();
  const std::array<const char*, 5> phases{"core.study.construct", "core.study.run",
                                          "core.study.report", "core.json_report.serialise",
                                          "core.study.teardown"};
  for (std::size_t i = 0; i < phases.size(); ++i) {
    tracer.record({tracer.next_id(), id, trace, phases[i], t[i], t[i + 1], {}});
  }
  tracer.record({tracer.next_id(), id, trace, "core.study.probe", probe_start, probe_end, {}});
  tracer.record({id, parent, trace, "core.study.cell", t[0], probe_end, std::move(counters)});
  return out;
}

/// Everything before the first simulated event: load the plan, then for
/// each of its cells build the blueprint, construct the Study and place its
/// jobs, and wire the network and start the ranks (a run capped at 1 ps).
/// No arena or cache is bound, as in a fresh `dflysim`. For campaign_fig4
/// that is all 36 cells: its first cell alone sets up in about 0.5 ms, which
/// varied by 40 % from run to run. Returns milliseconds.
double probe_setup(const Workload& workload, const std::vector<std::uint64_t>& seeds,
                   Tracer& tracer) {
  const std::uint64_t id = tracer.next_id();
  const Clock::time_point start = Clock::now();
  const std::vector<PlanCell> cells = seeded_plan(workload, seeds).expand();
  const Clock::time_point loaded = Clock::now();
  tracer.record({tracer.next_id(), id, "setup", "core.plan.load_plan", start, loaded, {}});
  for (const PlanCell& cell : cells) {
    std::array<Clock::time_point, 4> t;
    t[0] = Clock::now();
    StudyConfig capped = cell.config;
    capped.time_limit = 1 * kPs;
    const std::shared_ptr<const SystemBlueprint> blueprint = SystemBlueprint::build(capped);
    t[1] = Clock::now();
    {
      Study study(capped, nullptr, blueprint);
      add_jobs(study, cell);
      t[2] = Clock::now();
      study.run();
    }
    t[3] = Clock::now();
    if (!tracer.enabled()) continue;
    const double footprint_kb = static_cast<double>(blueprint->footprint_bytes()) / 1024.0;
    tracer.record({tracer.next_id(), id, "setup", "core.blueprint.build", t[0], t[1],
                   {{"footprint_kb", footprint_kb}}});
    tracer.record({tracer.next_id(), id, "setup", "core.study.setup", t[1], t[2], {}});
    tracer.record({tracer.next_id(), id, "setup", "core.study.wire", t[2], t[3], {}});
  }
  const Clock::time_point end = Clock::now();
  tracer.record({id, 0, "setup", "bench.setup", start, end, {}});
  return ms_between(start, end);
}

/// Traced campaign_fig4 and daemon_burst calls replay the cells of one unit
/// through run_cell on this thread, on one arena and cache as a run_plan
/// worker holds them, so the Study-level layers are timed as well. The
/// replay must reproduce the unit's bytes exactly.
void replay(const ExperimentPlan& plan, const std::string& expected, Tracer& tracer,
            RunResult& result) {
  SimArena arena;
  BlueprintCache cache;
  const ScopedArenaBinding arena_binding(&arena);
  const ScopedBlueprintCacheBinding cache_binding(&cache);
  const std::uint64_t id = tracer.next_id();
  const Clock::time_point start = Clock::now();
  std::string output;
  for (const PlanCell& cell : plan.expand()) {
    output += run_cell(cell, tracer, id, "replay").output;
  }
  const ArenaStats& a = arena.stats();
  const BlueprintCache::Stats c = cache.stats();
  tracer.record(
      {id, 0, "replay", "bench.replay", start, Clock::now(),
       {{"arena_reuses", static_cast<double>(a.router_reuses + a.nic_reuses + a.rank_reuses)},
        {"arena_builds", static_cast<double>(a.router_builds + a.nic_builds + a.rank_builds)},
        {"cache_hits", static_cast<double>(c.hits)},
        {"cache_misses", static_cast<double>(c.misses)}}});
  if (output != expected) {
    result.errors.push_back("cells replayed through Study differ from the unit's output");
  }
}

// --- cell workloads ----------------------------------------------------------

/// One cell, as `dflysim` runs a single cell: a fresh process with no arena
/// or blueprint cache bound.
RunResult run_one_cell(const Options& options, const Workload& workload, Tracer& tracer) {
  const PlanCell cell = seeded_plan(workload, {options.seed}).expand().front();
  RunResult result;
  const std::uint64_t run_id = tracer.next_id();
  const Clock::time_point start = Clock::now();
  const double cpu_before = cpu_seconds(self_usage());
  result.units.push_back(run_cell(cell, tracer, run_id, "cell"));
  tracer.record({run_id, 0, "run", "bench.run", start, Clock::now(),
                 {{"jobs", 1.0}, {"cpu_s", cpu_seconds(self_usage()) - cpu_before}}});
  return result;
}

// --- campaign workload -------------------------------------------------------

/// JsonlSink into memory, timing each cell it is handed.
class CampaignSink final : public PlanSink {
 public:
  CampaignSink(Tracer& tracer, std::uint64_t parent) : tracer_(tracer), parent_(parent) {}

  void cell_done(const PlanCell& cell, const Report& report) override {
    const Clock::time_point start = Clock::now();
    if (cells_ == 0) first_ = start;
    jsonl_.cell_done(cell, report);
    tracer_.record({tracer_.next_id(), parent_, "campaign", "core.plan.sink", start,
                    Clock::now(), {}});
    events_ += report.events_executed;
    ++cells_;
  }

  std::string output() const { return out_.str(); }
  std::size_t cells() const { return cells_; }
  std::uint64_t events() const { return events_; }
  Clock::time_point first() const { return first_; }

 private:
  Tracer& tracer_;
  std::uint64_t parent_;
  std::ostringstream out_;
  JsonlSink jsonl_{out_};
  std::size_t cells_{0};
  std::uint64_t events_{0};
  Clock::time_point first_{};
};

/// One campaign, as `dflysim --plan` runs it: run_plan at the workload's
/// explicit job count in a fresh process.
RunResult run_one_campaign(const Options& options, const Workload& workload, Tracer& tracer) {
  const ExperimentPlan plan = seeded_plan(workload, {options.seed});
  RunPlanOptions run_options;
  run_options.jobs = workload.jobs;

  RunResult result;
  const std::uint64_t run_id = tracer.next_id();
  const std::uint64_t id = tracer.next_id();
  CampaignSink sink(tracer, id);
  const double cpu_before = cpu_seconds(self_usage());
  const Clock::time_point start = Clock::now();
  const PlanOutcome outcome = run_plan(plan, sink, run_options);
  const Clock::time_point end = Clock::now();
  const double cpu_s = cpu_seconds(self_usage()) - cpu_before;

  Unit unit;
  unit.output = sink.output();
  unit.unit_ms = ms_between(start, end);
  unit.events = sink.events();
  unit.cells = outcome.cells;
  unit.failed = outcome.all_ok() ? 0 : std::max<std::size_t>(1, outcome.cells - outcome.completed);
  // A retried cell that then succeeds leaves no trace in the outcome, so
  // this counts only the retries of cells that failed in the end.
  double attempts = static_cast<double>(outcome.executed);
  for (const CellFailure& failure : outcome.failures) attempts += failure.attempts - 1;
  tracer.record({id, run_id, "campaign", "core.plan.run_plan", start, end,
                 {{"cells", static_cast<double>(outcome.cells)},
                  {"failed", static_cast<double>(outcome.failures.size())},
                  {"attempts", attempts},
                  {"first_cell_ms", sink.cells() > 0 ? ms_between(start, sink.first())
                                                     : unit.unit_ms}}});
  tracer.record({run_id, 0, "run", "bench.run", start, end,
                 {{"jobs", static_cast<double>(workload.jobs)}, {"cpu_s", cpu_s}}});
  result.units.push_back(std::move(unit));
  if (tracer.enabled()) replay(plan, result.units.front().output, tracer, result);
  return result;
}

// --- daemon workload ---------------------------------------------------------

/// Closes a socket descriptor on scope exit.
struct Socket {
  int fd;
  explicit Socket(int descriptor) : fd(descriptor) {}
  ~Socket() { ::close(fd); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
};

/// Next newline-terminated line from `fd`; false at end of stream. Throws
/// when the peer stays silent for kIoTimeoutMs.
bool read_line(int fd, std::string& buffer, std::string& line) {
  while (!serve::pop_line(buffer, line)) {
    pollfd pending{fd, POLLIN, 0};
    const int ready = ::poll(&pending, 1, kIoTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("the daemon stopped answering");
    char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    if (n == 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

/// One `dflysim --serve` child. The destructor kills and reaps a daemon
/// that is still running, so no exit path leaves one behind.
class Daemon {
 public:
  Daemon(int jobs, const std::string& name)
      : socket_(std::string(kWorkDir) + "/" + name + ".sock"),
        spool_(std::string(kWorkDir) + "/" + name + ".spool") {
    std::filesystem::create_directories(kWorkDir);
    std::filesystem::remove_all(spool_);
    std::filesystem::remove(socket_);
    const std::string log = std::string(kWorkDir) + "/" + name + ".log";
    std::vector<std::string> args{kDflysim, "--serve=" + socket_, "--spool=" + spool_,
                                  "--jobs=" + std::to_string(jobs)};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, kDflysim, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error(std::string("cannot start ") + kDflysim + ": " + std::strerror(rc));
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  const std::string& spool() const { return spool_; }

  /// Send one request line and collect every reply line.
  std::vector<std::string> request(const std::string& line) const {
    const Socket connection(serve::connect_unix(socket_));
    if (!serve::write_all(connection.fd, line + "\n")) {
      throw std::runtime_error("cannot send a request to the daemon");
    }
    std::vector<std::string> replies;
    std::string buffer, reply;
    while (read_line(connection.fd, buffer, reply)) replies.push_back(reply);
    return replies;
  }

  /// Block until the daemon answers a stats request; returns the reply.
  std::string wait_ready() const {
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    while (true) {
      try {
        const std::vector<std::string> replies = request(R"({"op":"stats"})");
        if (!replies.empty()) return replies.front();
      } catch (const std::runtime_error&) {
        if (Clock::now() > give_up) throw;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("the daemon exited during start-up");
      }
      // Start-up takes about 2 ms; a coarser poll would quantise setup_s.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// Ask the daemon to drain and exit, and reap it; returns its rusage.
  rusage shutdown() {
    request(R"({"op":"shutdown"})");
    rusage usage{};
    int status = 0;
    const pid_t pid = pid_;
    pid_ = -1;
    if (::wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("the daemon did not exit cleanly after shutdown");
    }
    return usage;
  }

 private:
  std::string socket_;
  std::string spool_;
  mutable pid_t pid_{-1};
};

std::uint64_t stats_field(const std::string& line, const std::string& key) {
  const std::string value = serve::control_field(line, key);
  return value.empty() ? 0 : std::stoull(value);
}

/// One closed-loop submission: connect, submit the plan with its two seeds,
/// read the stream to the done line.
Unit submit(const std::string& socket, const std::string& plan_text, std::uint64_t first_seed,
            std::size_t slot, Tracer& tracer, std::uint64_t parent) {
  serve::Request request;
  request.op = "submit";
  request.plan_text = plan_text;
  request.sets = {{"plan.seeds",
                   std::to_string(first_seed) + ".." + std::to_string(first_seed + 1)}};
  Unit unit;
  unit.slot = slot;
  std::string campaign, done;
  Clock::time_point accepted{}, first{}, last{}, finished{};
  const Clock::time_point start = Clock::now();
  {
    const Socket connection(serve::connect_unix(socket));
    if (!serve::write_all(connection.fd, serve::format_request(request) + "\n")) {
      throw std::runtime_error("cannot submit to the daemon");
    }
    std::string buffer, line;
    while (read_line(connection.fd, buffer, line)) {
      const Clock::time_point now = Clock::now();
      if (!serve::is_control_line(line)) {
        if (unit.output.empty()) first = now;
        last = now;
        unit.output += line;
        unit.output += '\n';
        unit.events += stats_field(line, "events_executed");
        continue;
      }
      const std::string kind = serve::control_field(line, "serve");
      if (kind == "accepted") {
        accepted = now;
        campaign = serve::control_field(line, "campaign");
      } else if (kind == "done") {
        finished = now;
        done = line;
      } else if (kind == "error") {
        throw std::runtime_error("daemon: " + serve::control_field(line, "message"));
      }
    }
  }
  if (done.empty() || unit.output.empty()) {
    throw std::runtime_error("the daemon closed a submission stream early");
  }
  unit.cells = stats_field(done, "cells");
  unit.failed = unit.cells - std::min(unit.cells, stats_field(done, "completed"));
  if (serve::control_field(done, "ok") != "true") {
    unit.failed = std::max<std::size_t>(unit.failed, 1);
  }
  unit.unit_ms = ms_between(start, finished);
  if (tracer.enabled()) {
    const std::uint64_t id = tracer.next_id();
    tracer.record({tracer.next_id(), id, campaign, "serve.accept", start, accepted, {}});
    tracer.record({tracer.next_id(), id, campaign, "serve.first_cell", accepted, first, {}});
    tracer.record({tracer.next_id(), id, campaign, "serve.stream", first, last, {}});
    tracer.record({tracer.next_id(), id, campaign, "serve.tail", last, finished, {}});
    tracer.record({id, parent, campaign, "serve.submission", start, finished,
                   {{"cells", static_cast<double>(unit.cells)},
                    {"failed", static_cast<double>(unit.failed)}}});
  }
  return unit;
}

std::uintmax_t directory_bytes(const std::string& path) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// One daemon serving closed-loop clients for min(--seconds, kDaemonWindowS).
RunResult run_daemon_window(const Options& options, const Workload& workload, Tracer& tracer) {
  const std::string plan_text = read_file(plan_path(workload));
  RunResult result;
  Daemon daemon(workload.jobs, "burst");
  const std::string stats_before = daemon.wait_ready();
  const std::uint64_t run_id = tracer.next_id();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(std::min(options.seconds, kDaemonWindowS)));
  std::atomic<std::size_t> next{0};
  Mutex mutex;
  std::vector<Unit> units;
  std::vector<std::string> errors;
  const auto client = [&] {
    try {
      for (bool first = true; first || Clock::now() < deadline; first = false) {
        const std::size_t slot = next.fetch_add(1) % kDaemonSlots;
        Unit unit = submit(daemon.socket(), plan_text, options.seed + 2 * slot, slot, tracer,
                           run_id);
        const MutexLock lock(mutex);
        units.push_back(std::move(unit));
      }
    } catch (const std::exception& error) {
      const MutexLock lock(mutex);
      errors.push_back(error.what());
    }
  };
  {
    std::vector<std::jthread> clients;
    for (int i = 0; i < kDaemonClients; ++i) clients.emplace_back(client);
  }
  const Clock::time_point end = Clock::now();
  const std::vector<std::string> stats_after = daemon.request(R"({"op":"stats"})");
  const rusage usage = daemon.shutdown();
  {
    const MutexLock lock(mutex);
    result.units = std::move(units);
    result.errors = std::move(errors);
  }
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
  const auto delta = [&](const char* key) {
    return static_cast<double>(stats_field(stats_after.at(0), key) -
                               stats_field(stats_before, key));
  };
  tracer.record({run_id, 0, "run", "bench.run", start, end,
                 {{"jobs", static_cast<double>(workload.jobs)},
                  {"cpu_s", cpu_seconds(usage)},
                  {"cache_hits", delta("blueprint_hits")},
                  {"cache_misses", delta("blueprint_misses")},
                  {"spool_bytes", static_cast<double>(directory_bytes(daemon.spool()))}}});

  if (tracer.enabled() && !result.units.empty()) {
    // The Study-level layers run inside the daemon, out of the driver's
    // sight: time them on an in-process replay of input slot 0.
    const auto slot0 = std::find_if(result.units.begin(), result.units.end(),
                                    [](const Unit& unit) { return unit.slot == 0; });
    if (slot0 != result.units.end()) {
      replay(seeded_plan(workload, {options.seed, options.seed + 1}), slot0->output, tracer,
             result);
    }
  }
  return result;
}

/// daemon_burst set-up: spawning `dflysim --serve` until it answers a stats
/// request. A traced call also probes the Study-level set-up in-process,
/// since inside the daemon it runs out of the driver's sight.
double probe_daemon(const Options& options, const Workload& workload, Tracer& tracer) {
  const Clock::time_point start = Clock::now();
  Daemon daemon(workload.jobs, "setup");
  daemon.wait_ready();
  const Clock::time_point ready = Clock::now();
  daemon.shutdown();
  if (tracer.enabled()) {
    const std::uint64_t id = tracer.next_id();
    tracer.record({tracer.next_id(), id, "startup", "serve.startup", start, ready, {}});
    tracer.record({id, 0, "startup", "bench.setup", start, ready, {}});
    probe_setup(workload, {options.seed, options.seed + 1}, tracer);
  }
  return ms_between(start, ready);
}

// --- output ------------------------------------------------------------------

std::string host_line(const Options& options) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("g++ ") + __VERSION__;
#endif
  return "host: nproc=" + std::to_string(std::thread::hardware_concurrency()) + " cpu=\"" + cpu +
         "\" compiler=\"" + compiler + "\" build=" + PERF_BUILD_TYPE + " sha=" + options.git_sha;
}

/// The units' samples as one JSON line. run.py checks the digests.
std::string samples_json(const RunResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("units").begin_array();
  for (const Unit& unit : result.units) {
    w.begin_object();
    w.key("slot").value(static_cast<std::uint64_t>(unit.slot));
    w.key("digest").value(fnv1a_hex(unit.output));
    w.key("ms").value(unit.unit_ms);
    w.key("events").value(unit.events);
    w.key("cells").value(static_cast<std::uint64_t>(unit.cells));
    w.key("failed").value(static_cast<std::uint64_t>(unit.failed));
    w.end_object();
  }
  w.end_array();
  w.key("peak_rss_mb").value(result.peak_rss_mb);
  w.key("errors").begin_array();
  for (const std::string& error : result.errors) w.value(error);
  w.end_array();
  w.end_object();
  return w.str();
}

int run(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const Workload& workload = find_workload(options.workload);
  std::printf("%s\n", host_line(options).c_str());
  std::fflush(stdout);
  if (options.mode != "window" || workload.kind == Kind::kCell) pin_to_cpu(options.cpu);
  Tracer tracer(!options.spans_path.empty());
  g_count_allocations.store(tracer.enabled(), std::memory_order_relaxed);

  std::string last_line;
  if (options.mode == "reference") {
    JsonWriter w;
    w.begin_object().key("reference_ms").value(reference_ms()).end_object();
    last_line = w.str();
  } else if (options.mode == "probe") {
    const double setup_ms = workload.kind == Kind::kDaemon
                                ? probe_daemon(options, workload, tracer)
                                : probe_setup(workload, {options.seed}, tracer);
    JsonWriter w;
    w.begin_object().key("setup_ms").value(setup_ms).end_object();
    last_line = w.str();
  } else {
    RunResult result;
    switch (workload.kind) {
      case Kind::kCell: result = run_one_cell(options, workload, tracer); break;
      case Kind::kCampaign: result = run_one_campaign(options, workload, tracer); break;
      case Kind::kDaemon: result = run_daemon_window(options, workload, tracer); break;
    }
    if (result.units.empty()) {
      // Only a daemon window can end without a unit: every client failed.
      std::string reasons;
      for (const std::string& error : result.errors) reasons += "; " + error;
      throw std::runtime_error("no unit of work finished" + reasons);
    }
    if (workload.kind != Kind::kDaemon) {
      result.peak_rss_mb = static_cast<double>(self_usage().ru_maxrss) / 1024.0;
    }
    last_line = samples_json(result);
  }
  if (tracer.enabled()) tracer.write(options.spans_path);
  std::printf("%s\n", last_line.c_str());
  return 0;
}

}  // namespace
}  // namespace dfly::perf

int main(int argc, char** argv) {
  try {
    return dfly::perf::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perf_driver: %s\n", error.what());
    return 1;
  }
}
