// dflysim — command-line driver for the interference study framework.
//
// Runs any mix of the paper's applications (or replayed traces) on any
// Dragonfly shape and routing, with machine-readable output. Everything the
// Study API exposes is reachable from here without recompiling:
//
//   # the paper's FFT3D-vs-Halo3D pairwise case, JSON to stdout
//   dflysim --app=FFT3D:528 --app=Halo3D:528 --routing=Q-adp --json=-
//
//   # declarative system + 5-seed sweep with aggregated statistics
//   dflysim --config=paper.cfg --app=LQCD:256 --app=Stencil5D:243 --sweep=5
//
//   # a whole campaign from one file (see core/plan.hpp), JSONL streamed out
//   dflysim --plan=examples/fig4_campaign.cfg --jsonl=fig4.jsonl --jobs=8
//
//   # record a trace, write the IO-module CSV set
//   dflysim --app=LU:140 --trace=0:lu.csv --csv=run1
//
//   # crash-safe campaign: journal every finished cell, resume after kill -9
//   dflysim --plan=fig4.cfg --jsonl=fig4.jsonl --journal=fig4.journal
//   dflysim --plan=fig4.cfg --jsonl=fig4.jsonl --journal=fig4.journal --resume
//
//   # shard a campaign across hosts, then reassemble byte-identically
//   dflysim --plan=fig4.cfg --shard=1/2 --jsonl=a.jsonl   # host A
//   dflysim --plan=fig4.cfg --shard=2/2 --jsonl=b.jsonl   # host B
//   dflysim --merge-shards=fig4.jsonl a.jsonl b.jsonl
//
// Each flag belongs to some of six modes (run, plan, merge, serve, submit,
// shutdown) and is a usage error in the others; kFlags below is the one place
// that grammar is written, and `dflysim --help` prints it.
//
// Exit status (see docs/ROBUSTNESS.md):
//   0  success — every cell (or the single run) simulated and completed
//   1  usage error, or a fatal error before/outside the run loop
//   2  the run finished, but with recorded failures or incomplete cells

#include <algorithm>
#include <atomic>
#include <bit>
#include <bitset>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config_file.hpp"
#include "core/journal.hpp"
#include "core/json_report.hpp"
#include "core/plan.hpp"
#include "core/study.hpp"
#include "core/sweep.hpp"
#include "routing/factory.hpp"
#include "topo/placement.hpp"
#include "viz/ascii.hpp"
#include "workloads/factory.hpp"

#ifndef _WIN32
#include <csignal>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#endif

namespace {

using namespace dfly;

struct AppSpec {
  std::string name;
  int nodes{0};  ///< 0 = all remaining
};

/// What one invocation does, one bit each. A flag lists the modes it
/// combines with; any other mode rejects it.
enum Mode : unsigned {
  kRun = 1,  ///< one cell, or a --sweep of seeds
  kPlan = 2,
  kMerge = 4,
  kServe = 8,
  kSubmit = 16,
  kShutdown = 32,
};
constexpr unsigned kAnyMode = kRun | kPlan | kMerge | kServe | kSubmit | kShutdown;

/// Indexed by mode bit. Each mode's flag chooses it; when several are given
/// the highest bit wins (--submit over its --plan), and the others are then
/// rejected like any out-of-mode flag. Run mode is the default.
constexpr struct {
  const char* name;
  const char* flag;
} kModes[] = {{"run", "--app"},     {"plan", "--plan"},     {"merge", "--merge-shards"},
              {"serve", "--serve"}, {"submit", "--submit"}, {"shutdown", "--shutdown"}};

struct CliOptions {
  Mode mode{kRun};
  StudyConfig config;
  std::vector<AppSpec> apps;
  std::string json_path;   ///< "-" = stdout
  std::string csv_prefix;
  int trace_app{-1};
  std::string trace_path;
  int sweep{1};
  int jobs{0};  ///< sweep/plan worker threads; 0 = DFSIM_JOBS, else sequential
  // Campaign mode (core/plan.hpp):
  std::string plan_path;                                    ///< --plan=FILE
  std::vector<std::pair<std::string, std::string>> sets;    ///< --set=KEY=VALUE
  std::string jsonl_path;                                   ///< "-" = stdout
  std::string plan_csv_path;                                ///< --plan-csv=FILE
  // Fault tolerance (docs/ROBUSTNESS.md):
  std::string journal_path;  ///< --journal=FILE: fsync'd per-cell journal
  bool resume{false};        ///< --resume: skip journaled cells, continue
  std::string shard;         ///< --shard=K/N: run a deterministic slice
  std::string merge_out;     ///< --merge-shards=OUT: reassemble shard JSONLs
  std::vector<std::string> merge_inputs;  ///< positional inputs for the merge
  // Campaign daemon (src/serve, docs/DAEMON.md):
  std::string socket;        ///< --serve/--submit/--shutdown=SOCKET
  std::string spool_dir;     ///< --spool=DIR: daemon spool (default SOCKET.spool)
  bool shutdown_now{false};  ///< --now: cancel running campaigns, don't drain
};

[[noreturn]] void usage(int code);

[[noreturn]] void list(const std::vector<std::string>& names) {
  for (const std::string& name : names) std::printf("%s\n", name.c_str());
  std::exit(0);
}

AppSpec parse_app(const std::string& value) {
  const auto colon = value.find(':');
  AppSpec spec;
  spec.name = value.substr(0, colon);
  if (colon != std::string::npos) spec.nodes = int_flag("--app", value.substr(colon + 1), 0);
  if (spec.name.empty()) throw std::invalid_argument("--app needs NAME[:NODES]");
  // Fail fast on a typo'd name — one clean line and exit 1, instead of
  // throwing out of make_app after the network has been built.
  const auto& names = workloads::app_names();
  if (std::find(names.begin(), names.end(), spec.name) == names.end()) {
    throw std::invalid_argument("unknown application '" + spec.name + "' (see --list-apps)");
  }
  return spec;
}

/// One row per flag. The parser applies every argument through its row and
/// --help prints the rows, so the grammar is written down once.
struct Flag {
  const char* name;
  const char* value;  ///< "FILE" for --name=FILE; nullptr for a bare switch
  unsigned modes;     ///< modes the flag combines with
  bool repeats;
  const char* help;
  void (*apply)(CliOptions&, const std::string& value);
};

using O = CliOptions;
using V = const std::string&;

constexpr Flag kFlags[] = {
    {"--app", "NAME:NODES", kRun, true, "add an application; NODES=0 fills the machine",
     [](O& o, V v) { o.apps.push_back(parse_app(v)); }},
    {"--config", "FILE", kRun, true, "key=value config file, layered in order",
     [](O& o, V v) { o.config = apply_config(std::move(o.config), ConfigFile::load(v)); }},
    {"--routing", "NAME", kRun, false, "MIN|VALg|VALn|UGALg|UGALn|PAR|FlowUGAL|AppAware|Q-adp",
     [](O& o, V v) { o.config.routing = v; }},
    {"--placement", "NAME", kRun, false, "random|contiguous|linear",
     [](O& o, V v) { o.config.placement = placement_from_string(v); }},
    {"--arrangement", "NAME", kRun, false, "relative|absolute (global-link wiring)",
     [](O& o, V v) { o.config.topo.arrangement = arrangement_from_string(v); }},
    {"--seed", "N", kRun, false, "RNG seed (default 42)",
     [](O& o, V v) { o.config.seed = int_flag<std::uint64_t>("--seed", v, 0); }},
    {"--scale", "N", kRun, false, "iteration divisor (default 1 = paper volumes)",
     [](O& o, V v) { o.config.scale = int_flag("--scale", v, 1); }},
    {"--sweep", "N", kRun, false, "repeat with seeds seed..seed+N-1, print aggregate",
     [](O& o, V v) { o.sweep = int_flag("--sweep", v, 1); }},
    {"--json", "FILE", kRun, false, "write the report as JSON ('-' = stdout)",
     [](O& o, V v) { o.json_path = v; }},
    {"--csv", "PREFIX", kRun, false, "write <PREFIX>_{apps,congestion,stall}.csv",
     [](O& o, V v) { o.csv_prefix = v; }},
    {"--trace", "APP:FILE", kRun, false, "record application APP's message trace to FILE",
     [](O& o, V v) {
       const auto colon = v.find(':');
       if (colon == std::string::npos) throw std::invalid_argument("--trace needs APP:FILE");
       o.trace_app = int_flag("--trace", v.substr(0, colon), 0);
       o.trace_path = v.substr(colon + 1);
     }},
    {"--fault", "SPEC", kRun, true, "degrade links: router:port:slowdown[:extra_ns],...",
     [](O& o, V v) { o.config.faults.merge(parse_fault_plan(v)); }},
    {"--jobs", "N", kRun | kPlan | kServe, false, "worker threads (default DFSIM_JOBS, else 1)",
     [](O& o, V v) { o.jobs = int_flag("--jobs", v, 0); }},
    {"--plan", "FILE", kPlan | kSubmit, false, "run a campaign file (core/plan.hpp)",
     [](O& o, V v) { o.plan_path = v; }},
    {"--set", "KEY=VALUE", kPlan | kSubmit, true, "override a config/plan key",
     [](O& o, V v) {
       const auto eq = v.find('=');
       if (eq == std::string::npos || eq == 0) {
         throw std::invalid_argument("--set needs KEY=VALUE");
       }
       o.sets.emplace_back(v.substr(0, eq), v.substr(eq + 1));
     }},
    {"--jsonl", "FILE", kPlan, false, "stream one JSON line per finished cell ('-' = stdout)",
     [](O& o, V v) { o.jsonl_path = v; }},
    {"--plan-csv", "FILE", kPlan, false, "also write the campaign's per-app CSV table",
     [](O& o, V v) { o.plan_csv_path = v; }},
    {"--journal", "FILE", kPlan, false, "fsync each finished cell so a crash can --resume",
     [](O& o, V v) { o.journal_path = v; }},
    {"--resume", nullptr, kPlan, false, "continue a journaled campaign byte-identically",
     [](O& o, V) { o.resume = true; }},
    {"--shard", "K/N", kPlan, false, "run only cells with index % N == K-1",
     [](O& o, V v) { o.shard = v; }},
    {"--merge-shards", "OUT", kMerge, false, "merge the shard JSONLs given after it",
     [](O& o, V v) { o.merge_out = v; }},
    {"--serve", "SOCKET", kServe, false, "run the campaign daemon (docs/DAEMON.md)",
     [](O& o, V v) { o.socket = v; }},
    {"--spool", "DIR", kServe, false, "daemon spool directory (default SOCKET.spool)",
     [](O& o, V v) { o.spool_dir = v; }},
    {"--submit", "SOCKET", kSubmit, false, "send --plan to a daemon; JSONL to stdout",
     [](O& o, V v) { o.socket = v; }},
    {"--shutdown", "SOCKET", kShutdown, false, "stop a daemon once campaigns drain",
     [](O& o, V v) { o.socket = v; }},
    {"--now", nullptr, kShutdown, false, "cancel running campaigns instead of draining",
     [](O& o, V) { o.shutdown_now = true; }},
    {"--list-apps", nullptr, kAnyMode, false, "print the application names and exit",
     [](O&, V) { list(workloads::app_names()); }},
    {"--list-routings", nullptr, kAnyMode, false, "print the routing algorithms and exit",
     [](O&, V) { list(routing::all_routings()); }},
    {"--list-placements", nullptr, kAnyMode, false, "print the placement policies and exit",
     [](O&, V) { list(all_placements()); }},
    {"--help", nullptr, kAnyMode, false, "this text", [](O&, V) { usage(0); }},
};

std::string mode_list(unsigned modes) {
  if (modes == kAnyMode) return "any";
  std::string text;
  for (unsigned bit = 0; bit < std::size(kModes); ++bit) {
    if ((modes >> bit & 1) == 0) continue;
    if (!text.empty()) text += ',';
    text += kModes[bit].name;
  }
  return text;
}

void usage(int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fputs("usage: dflysim --app=NAME:NODES [flags]     run: one cell, or a --sweep\n"
             "       dflysim --plan=FILE [flags]          plan: a campaign\n"
             "       dflysim --merge-shards=OUT A B ...   merge: reassemble shards\n"
             "       dflysim --serve|--submit|--shutdown=SOCKET [flags]   the daemon\n"
             "A flag is rejected outside the modes listed next to it.\n",
             out);
  for (const Flag& flag : kFlags) {
    std::string head = flag.name;
    if (flag.value != nullptr) head = head + "=" + flag.value;
    std::fprintf(out, "  %-19s %-15s %s%s\n", head.c_str(), mode_list(flag.modes).c_str(),
                 flag.help, flag.repeats ? " (repeatable)" : "");
  }
  std::fputs("exit status: 0 = success; 1 = usage/fatal error; 2 = ran to the end but\n"
             "some cells failed or did not complete (docs/ROBUSTNESS.md)\n",
             out);
  std::exit(code);
}

[[noreturn]] void usage_error(const std::string& line) {
  std::fprintf(stderr, "%s\n\n", line.c_str());
  usage(1);
}

const Flag* find_flag(const std::string& name) {
  for (const Flag& flag : kFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  options.config.scale = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string name = arg.substr(0, arg.find('='));
    for (unsigned bit = 0; bit < std::size(kModes); ++bit) {
      if (name == kModes[bit].flag) options.mode = std::max(options.mode, Mode(1u << bit));
    }
  }
  const auto& mode = kModes[std::countr_zero(static_cast<unsigned>(options.mode))];
  std::bitset<std::size(kFlags)> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (options.mode != kMerge) usage_error("unexpected argument: " + arg);
      options.merge_inputs.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const Flag* flag = find_flag(arg.substr(0, eq));
    if (flag == nullptr) usage_error("unknown option: " + arg);
    const std::string name = flag->name;
    if ((flag->modes & options.mode) == 0) {
      usage_error(name + " does not apply in " + mode.name + " mode (" + mode.flag +
                  "); it is a " + mode_list(flag->modes) + " flag");
    }
    const std::size_t row = static_cast<std::size_t>(flag - kFlags);
    if (seen[row] && !flag->repeats) throw std::invalid_argument(name + " given more than once");
    seen[row] = true;
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag->value == nullptr && eq != std::string::npos) {
      throw std::invalid_argument(name + " takes no value");
    }
    if (flag->value != nullptr && value.empty()) {
      throw std::invalid_argument(name + " needs a value: " + name + "=" + flag->value);
    }
    flag->apply(options, value);
  }
  const std::pair<bool, const char*> rules[] = {
      {options.mode == kRun && options.apps.empty(), "no --app given"},
      {options.mode == kMerge && options.merge_inputs.empty(),
       "--merge-shards needs at least one input JSONL file"},
      {options.mode == kSubmit && options.plan_path.empty(),
       "--submit needs --plan=FILE (the campaign to send)"},
      {options.resume && options.journal_path.empty(),
       "--resume needs --journal=FILE (the journal to replay)"},
      {options.resume && (options.jsonl_path.empty() || options.jsonl_path == "-"),
       "--resume needs --jsonl=FILE (a real file, not '-'): it is continued in place"},
      {options.resume && !options.plan_csv_path.empty(),
       "--resume does not combine with --plan-csv (a CSV cannot be resumed)"},
      {options.sweep > 1 && (!options.csv_prefix.empty() || options.trace_app >= 0),
       "--csv and --trace write one cell's files and do not combine with --sweep"},
  };
  for (const auto& [broken, message] : rules) {
    if (broken) usage_error(message);
  }
  return options;
}

/// One cell at `seed`, writing --trace and --csv files when they are given
/// (parse_cli rejects both under --sweep).
Report run_once(const CliOptions& options, std::uint64_t seed) {
  StudyConfig config = options.config;
  config.seed = seed;
  Study study(std::move(config));
  for (const AppSpec& spec : options.apps) study.add_app(spec.name, spec.nodes);
  if (options.trace_app >= 0) study.record_trace(options.trace_app);
  const Report report = study.run();
  if (options.trace_app >= 0) {
    study.trace(options.trace_app).save_csv(options.trace_path);
    std::fprintf(stderr, "wrote %s\n", options.trace_path.c_str());
  }
  if (!options.csv_prefix.empty()) {
    study.write_csv(options.csv_prefix);
    std::fprintf(stderr, "wrote %s_{apps,congestion,stall}.csv\n", options.csv_prefix.c_str());
  }
  return report;
}

/// Console companion of the file sinks: one line per finished cell, streamed
/// in cell order while later cells are still running.
class ProgressSink final : public dfly::PlanSink {
 public:
  explicit ProgressSink(std::FILE* out) : out_(out) {}

  void begin(const ExperimentPlan& plan, const std::vector<PlanCell>& cells) override {
    total_ = cells.size();
    std::fprintf(out_, "campaign '%s': %zu cells (%s)\n", plan.name.c_str(), total_,
                 to_string(plan.mode));
  }

  void cell_done(const PlanCell& cell, const Report& report) override {
    std::string what;
    switch (cell.kind) {
      case PlanCellKind::kPairwise: what = cell.target + " vs " + cell.background; break;
      case PlanCellKind::kMixedSolo: what = cell.target + " alone"; break;
      case PlanCellKind::kMixed: what = "table2 mix"; break;
      default:
        for (const PlanJob& job : cell.jobs) {
          if (!what.empty()) what += '+';
          what += job.app;
        }
    }
    std::fprintf(out_, "[%zu/%zu] %-28s %-7s %-10s seed=%llu%s%s makespan=%.3fms%s\n",
                 cell.index + 1, total_, what.c_str(), cell.config.routing.c_str(),
                 to_string(cell.config.placement),
                 static_cast<unsigned long long>(cell.config.seed),
                 cell.variant.empty() ? "" : " variant=", cell.variant.c_str(),
                 to_ms(report.makespan), report.completed ? "" : " INCOMPLETE");
    std::fflush(out_);
  }

  void cell_failed(const PlanCell& cell, const CellFailure& failure) override {
    const char* why = failure.timeout ? " (wall-clock timeout)"
                      : failure.sink_error ? " (output write failed)"
                                           : "";
    std::fprintf(out_, "[%zu/%zu] cell %zu FAILED%s after %d attempt%s: %s\n", cell.index + 1,
                 total_, cell.index, why, failure.attempts, failure.attempts == 1 ? "" : "s",
                 failure.message.c_str());
    std::fflush(out_);
  }

 private:
  std::FILE* out_;
  std::size_t total_{0};
};

int run_campaign(const CliOptions& options) {
  ConfigFile file = ConfigFile::load(options.plan_path);
  for (const auto& [key, value] : options.sets) file.set(key, value);
  const ExperimentPlan plan = plan_from_config(file);

  RunPlanOptions run_options;
  run_options.jobs = options.jobs;
  if (!options.shard.empty()) run_options.shard = parse_shard(options.shard);

  // Journal / resume (docs/ROBUSTNESS.md): resume_output repairs the
  // journal and the output before the sink reopens the output for appending.
  std::vector<JournalRecord> resume_records;
  if (options.resume) {
    resume_records = resume_output(options.journal_path, options.jsonl_path);
    const std::uint64_t offset = resume_records.empty() ? 0 : resume_records.back().offset;
    run_options.resume = &resume_records;
    std::fprintf(stderr, "resume: %zu journaled cell(s), output truncated to %llu bytes\n",
                 resume_records.size(), static_cast<unsigned long long>(offset));
  } else if (!options.journal_path.empty()) {
    // A fresh campaign must not silently append to a previous journal: the
    // cell indices would collide and a later --resume would skip work.
    std::ifstream existing(options.journal_path, std::ios::binary | std::ios::ate);
    if (existing && existing.tellg() > 0) {
      std::fprintf(stderr,
                   "dflysim: journal %s already exists and is non-empty; pass --resume to "
                   "continue that campaign, or remove the journal (and its output) to start "
                   "over\n",
                   options.journal_path.c_str());
      return 1;
    }
  }

  // Console lines go to stderr when the JSONL itself is on stdout.
  std::FILE* info = options.jsonl_path == "-" ? stderr : stdout;
  TeeSink sinks;
  ProgressSink progress(info);
  sinks.add(&progress);
  std::unique_ptr<JsonlSink> jsonl;
  if (!options.jsonl_path.empty()) {
    jsonl = options.jsonl_path == "-"
                ? std::make_unique<JsonlSink>(std::cout)
                : std::make_unique<JsonlSink>(options.jsonl_path, /*append=*/options.resume);
    sinks.add(jsonl.get());
  }
  std::unique_ptr<CsvSink> csv;
  if (!options.plan_csv_path.empty()) {
    csv = std::make_unique<CsvSink>(options.plan_csv_path);
    sinks.add(csv.get());
  }

  std::unique_ptr<PlanJournal> journal;
  if (!options.journal_path.empty()) {
    journal = std::make_unique<PlanJournal>(options.journal_path);
    run_options.journal = journal.get();
    if (jsonl != nullptr && options.jsonl_path != "-") {
      JsonlSink* output = jsonl.get();
      run_options.output_offset = [output] { return output->bytes_written(); };
    }
  }

  const PlanOutcome outcome = run_plan(plan, sinks, run_options);
  std::fprintf(info, "%zu/%zu cells completed", outcome.completed, outcome.cells);
  if (outcome.resumed > 0) std::fprintf(info, " (%zu resumed from journal)", outcome.resumed);
  std::fputc('\n', info);
  if (!outcome.failures.empty()) {
    std::fprintf(stderr, "%zu cell(s) failed:\n", outcome.failures.size());
    for (const CellFailure& failure : outcome.failures) {
      std::fprintf(stderr, "  cell %zu:%s %s (attempts=%d)\n", failure.index,
                   failure.timeout ? " [timeout]" : failure.sink_error ? " [sink]" : "",
                   failure.message.c_str(), failure.attempts);
    }
  }
  if (outcome.worker_errors.any()) {
    std::fprintf(stderr, "infrastructure errors: %s\n",
                 outcome.worker_errors.summary().c_str());
  }
  if (!options.jsonl_path.empty() && options.jsonl_path != "-") {
    std::fprintf(stderr, "wrote %s\n", options.jsonl_path.c_str());
  }
  if (!options.plan_csv_path.empty()) {
    std::fprintf(stderr, "wrote %s\n", options.plan_csv_path.c_str());
  }
  return outcome.all_ok() ? 0 : 2;
}

#ifndef _WIN32
/// SIGINT/SIGTERM ask the daemon's accept loop to stop (drain semantics);
/// request_stop is one lock-free atomic store, so it is signal-safe.
std::atomic<serve::Server*> g_server{nullptr};

void handle_stop_signal(int) {
  if (serve::Server* server = g_server.load(std::memory_order_relaxed)) {
    server->request_stop();
  }
}

int run_serve(const CliOptions& options) {
  serve::ServeOptions serve_options;
  serve_options.socket_path = options.socket;
  serve_options.spool_dir = options.spool_dir;
  serve_options.jobs = options.jobs;
  serve::Server server(std::move(serve_options));
  g_server.store(&server, std::memory_order_relaxed);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::fprintf(stderr, "dflysim: serving on %s (spool %s, %d job%s)\n",
               server.socket_path().c_str(), server.spool_dir().c_str(), server.jobs(),
               server.jobs() == 1 ? "" : "s");
  const int status = server.serve();
  g_server.store(nullptr, std::memory_order_relaxed);
  std::fprintf(stderr, "dflysim: daemon on %s stopped\n", options.socket.c_str());
  return status;
}

int run_submit(const CliOptions& options) {
  // Ship the plan file's raw text; the daemon parses it (and applies the
  // --set overrides) so errors come back as one {"serve":"error"} line.
  std::ifstream in(options.plan_path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read plan file '" + options.plan_path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return serve::submit_plan(options.socket, text.str(), options.sets, stdout, stderr);
}
#endif  // !_WIN32

int run_merge(const CliOptions& options) {
  const std::size_t lines = merge_shard_jsonl(options.merge_inputs, options.merge_out,
                                              &std::cerr);
  std::fprintf(stderr, "merged %zu cell line(s) from %zu shard file(s) into %s\n", lines,
               options.merge_inputs.size(), options.merge_out.c_str());
  return 0;
}

void print_table(const Report& report) {
  viz::AsciiTable out({"app", "nodes", "comm_ms", "sigma_ms", "exec_ms", "inj_GB/s",
                       "lat_p99_us", "nonmin"});
  char buffer[32];
  for (const AppReport& app : report.apps) {
    std::vector<std::string> cells{app.app, std::to_string(app.nodes)};
    for (const double v : {app.comm_mean_ms, app.comm_std_ms, app.exec_ms,
                           app.injection_rate_gbs, app.lat_p99_us, app.nonminimal_fraction}) {
      std::snprintf(buffer, sizeof buffer, "%.3f", v);
      cells.emplace_back(buffer);
    }
    out.row(std::move(cells));
  }
  std::fputs(out.str().c_str(), stdout);
  std::printf("routing %s | completed %s | makespan %.3f ms | sys p99 %.2f us | "
              "throughput %.3f GB/ms\n",
              report.routing.c_str(), report.completed ? "yes" : "no",
              to_ms(report.makespan), report.sys_lat_p99_us, report.agg_throughput_gb_per_ms);
}

/// --json for a single run and a sweep alike: '-' prints to stdout.
void write_json(const std::string& path, const std::string& json) {
  if (path.empty()) return;
  if (path == "-") {
    std::printf("%s\n", json.c_str());
    return;
  }
  save_json(path, json);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

int run_single(const CliOptions& options) {
  const Report report = run_once(options, options.config.seed);
  print_table(report);
  write_json(options.json_path, report_to_json(report));
  return report.completed ? 0 : 2;
}

/// Multi-seed sweep: a seeds-axis plan whose cells shard across --jobs
/// workers (results are identical for any worker count); aggregate, print,
/// optionally dump JSON. A failed cell fails the whole sweep.
int run_sweep(const CliOptions& options) {
  ExperimentPlan plan;
  plan.name = "seed_sweep";
  plan.mode = PlanMode::kCustom;
  plan.seeds = SeedSweep(options.config.seed, options.sweep).seeds();
  plan.custom = [&options](const PlanCell& cell) {
    return run_once(options, cell.config.seed);
  };
  CollectSink sink;
  const PlanOutcome outcome = run_plan(plan, sink, options.jobs);
  if (!outcome.failures.empty()) throw std::runtime_error(outcome.failures.front().message);
  const SweepSummary summary = SeedSweep::aggregate(sink.reports());
  viz::AsciiTable table({"app", "comm_ms mean", "ci95", "min", "max"});
  for (const AppSweep& app : summary.apps) {
    table.row(app.app, {app.comm_ms.mean, app.comm_ms.ci95_half, app.comm_ms.min,
                        app.comm_ms.max});
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("%d/%d runs completed | makespan %.3f +/- %.3f ms\n", summary.completed_runs,
              summary.runs, summary.makespan_ms.mean, summary.makespan_ms.ci95_half);
  write_json(options.json_path, sweep_to_json(summary));
  return summary.completed_runs == summary.runs ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef _WIN32
  // A campaign piped into `head` (or a submit client that hung up) must show
  // up as a write error — recorded as a sink_error cell failure / campaign
  // cancellation — not kill the process with SIGPIPE mid-journal.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  try {
    const CliOptions options = parse_cli(argc, argv);
    switch (options.mode) {
      case kRun: return options.sweep > 1 ? run_sweep(options) : run_single(options);
      case kPlan: return run_campaign(options);
      case kMerge: return run_merge(options);
#ifndef _WIN32
      case kServe: return run_serve(options);
      case kSubmit: return run_submit(options);
      case kShutdown:
        return serve::request_shutdown(options.socket, !options.shutdown_now, stderr);
#endif
      default: throw std::runtime_error("the daemon modes need unix sockets");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dflysim: %s\n", error.what());
    return 1;
  }
}
