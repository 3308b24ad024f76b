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
// Exit status (see docs/ROBUSTNESS.md):
//   0  success — every cell (or the single run) simulated and completed
//   1  usage error, or a fatal error before/outside the run loop
//   2  the run finished, but with recorded failures or incomplete cells

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
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

struct CliOptions {
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
  std::string serve_socket;     ///< --serve=SOCKET: run the campaign daemon
  std::string spool_dir;        ///< --spool=DIR: daemon spool (default SOCKET.spool)
  std::string submit_socket;    ///< --submit=SOCKET: send --plan to a daemon
  std::string shutdown_socket;  ///< --shutdown=SOCKET: stop a daemon
  bool shutdown_now{false};     ///< --now: cancel running campaigns, don't drain
  /// Single-run/sweep flags seen on the command line; a --plan run rejects
  /// them instead of silently ignoring them (the plan file owns the config).
  std::vector<std::string> single_run_flags;
};

[[noreturn]] void usage(int code) {
  std::fputs(
      "usage: dflysim [options]\n"
      "  --config=FILE        key=value config file (see core/config_file.hpp)\n"
      "  --plan=FILE          run a whole declarative campaign (plan.* keys, see\n"
      "                       core/plan.hpp); combines with --set/--jsonl/--plan-csv\n"
      "                       and --jobs, not with --app\n"
      "  --set=KEY=VALUE      override one config/plan key before the campaign is\n"
      "                       built (repeatable; e.g. --set=plan.seeds=1..4)\n"
      "  --jsonl=FILE         stream one JSON object per finished campaign cell\n"
      "                       ('-' = stdout; identical bytes for any --jobs)\n"
      "  --plan-csv=FILE      also write the campaign's per-app CSV table (written\n"
      "                       to FILE.tmp and atomically renamed when complete)\n"
      "  --journal=FILE       durably record every finished campaign cell (one\n"
      "                       fsync'd JSON line each) so the campaign survives\n"
      "                       crashes; see --resume and docs/ROBUSTNESS.md\n"
      "  --resume             continue a journaled campaign: skip recorded cells,\n"
      "                       truncate any torn output tail, and produce output\n"
      "                       byte-identical to an uninterrupted run (needs\n"
      "                       --journal=FILE and --jsonl=FILE, not '-')\n"
      "  --shard=K/N          run only cells with index %% N == K-1 (1 <= K <= N);\n"
      "                       N invocations partition the campaign deterministically\n"
      "  --merge-shards=OUT   reassemble per-shard --jsonl outputs into one\n"
      "                       campaign file: dflysim --merge-shards=OUT A B ...\n"
      "  --serve=SOCKET       run as a campaign daemon on a unix socket: accept\n"
      "                       submitted plans over newline-delimited JSON, stream\n"
      "                       results back, journal every campaign under the spool\n"
      "                       dir, and resume unfinished campaigns on restart\n"
      "                       (combines with --jobs/--spool; see docs/DAEMON.md)\n"
      "  --spool=DIR          daemon spool directory (default: SOCKET.spool)\n"
      "  --submit=SOCKET      submit --plan=FILE (plus --set overrides) to a\n"
      "                       serving daemon; cell JSONL streams to stdout\n"
      "                       byte-identical to a local --plan run with --jsonl=-\n"
      "  --shutdown=SOCKET    ask a serving daemon to exit after draining running\n"
      "                       campaigns (add --now to cancel them instead)\n"
      "  --app=NAME:NODES     add an application (repeatable; NODES=0 fills the machine)\n"
      "  --routing=NAME       MIN|VALg|VALn|UGALg|UGALn|PAR|FlowUGAL|AppAware|Q-adp\n"
      "  --placement=NAME     random|contiguous|linear\n"
      "  --arrangement=NAME   relative|absolute (global-link wiring)\n"
      "  --seed=N             RNG seed (default 42)\n"
      "  --scale=N            iteration divisor (default 1 = paper volumes)\n"
      "  --sweep=N            repeat with seeds seed..seed+N-1, print aggregate\n"
      "  --jobs=N             worker threads for --sweep cells (default: the\n"
      "                       DFSIM_JOBS env var, else 1; output is identical\n"
      "                       for any N)\n"
      "  --json=FILE          write the report as JSON ('-' = stdout)\n"
      "  --csv=PREFIX         write <PREFIX>_{apps,congestion,stall}.csv\n"
      "  --trace=APP:FILE     record application APP's message trace to FILE\n"
      "  --fault=SPEC         degrade links: router:port:slowdown[:extra_ns],...\n"
      "  --list-apps          print the nine application names and exit\n"
      "  --list-routings      print every routing algorithm and exit\n"
      "  --list-placements    print every placement policy and exit\n"
      "  --help               this text\n"
      "exit status: 0 = success; 1 = usage/fatal error; 2 = ran to the end but\n"
      "some cells failed or did not complete (campaign failures are recorded,\n"
      "not fatal — see docs/ROBUSTNESS.md)\n",
      code == 0 ? stdout : stderr);
  std::exit(code);
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
    std::fprintf(stderr, "dflysim: unknown application '%s' (see --list-apps)\n",
                 spec.name.c_str());
    std::exit(1);
  }
  return spec;
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions options;
  options.config.scale = 1;
  auto value_of = [](const char* arg) {
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) throw std::invalid_argument(std::string("missing '=' in ") + arg);
    return std::string(eq + 1);
  };
  // Flags that configure a single run / sweep directly. In --plan mode the
  // plan file (plus --set) owns the whole configuration, so these are
  // rejected rather than silently dropped.
  const auto single_run = [&options](const char* flag) { options.single_run_flags.push_back(flag); };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) usage(0);
    if (std::strcmp(arg, "--list-apps") == 0) {
      for (const std::string& name : workloads::app_names()) std::printf("%s\n", name.c_str());
      std::exit(0);
    }
    if (std::strcmp(arg, "--list-routings") == 0) {
      for (const std::string& name : routing::all_routings()) std::printf("%s\n", name.c_str());
      std::exit(0);
    }
    if (std::strcmp(arg, "--list-placements") == 0) {
      for (const std::string& name : all_placements()) std::printf("%s\n", name.c_str());
      std::exit(0);
    }
    if (std::strncmp(arg, "--config=", 9) == 0) {
      single_run("--config");
      options.config = apply_config(std::move(options.config), ConfigFile::load(value_of(arg)));
    } else if (std::strncmp(arg, "--app=", 6) == 0) {
      single_run("--app");
      options.apps.push_back(parse_app(value_of(arg)));
    } else if (std::strncmp(arg, "--routing=", 10) == 0) {
      single_run("--routing");
      options.config.routing = value_of(arg);
    } else if (std::strncmp(arg, "--placement=", 12) == 0) {
      single_run("--placement");
      options.config.placement = placement_from_string(value_of(arg));
    } else if (std::strncmp(arg, "--arrangement=", 14) == 0) {
      single_run("--arrangement");
      options.config.topo.arrangement = arrangement_from_string(value_of(arg));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      single_run("--seed");
      options.config.seed = int_flag<std::uint64_t>("--seed", value_of(arg), 0);
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      single_run("--scale");
      options.config.scale = int_flag("--scale", value_of(arg), 1);
    } else if (std::strncmp(arg, "--sweep=", 8) == 0) {
      single_run("--sweep");
      options.sweep = int_flag("--sweep", value_of(arg), 1);
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      options.jobs = int_flag("--jobs", value_of(arg), 0);  // 0 = DFSIM_JOBS, else 1
    } else if (std::strncmp(arg, "--plan=", 7) == 0) {
      options.plan_path = value_of(arg);
    } else if (std::strncmp(arg, "--set=", 6) == 0) {
      const std::string pair = value_of(arg);
      const auto eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("--set needs KEY=VALUE");
      }
      options.sets.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    } else if (std::strncmp(arg, "--jsonl=", 8) == 0) {
      options.jsonl_path = value_of(arg);
    } else if (std::strncmp(arg, "--plan-csv=", 11) == 0) {
      options.plan_csv_path = value_of(arg);
    } else if (std::strncmp(arg, "--journal=", 10) == 0) {
      options.journal_path = value_of(arg);
    } else if (std::strcmp(arg, "--resume") == 0) {
      options.resume = true;
    } else if (std::strncmp(arg, "--shard=", 8) == 0) {
      options.shard = value_of(arg);
    } else if (std::strncmp(arg, "--merge-shards=", 15) == 0) {
      options.merge_out = value_of(arg);
    } else if (std::strncmp(arg, "--serve=", 8) == 0) {
      options.serve_socket = value_of(arg);
    } else if (std::strncmp(arg, "--spool=", 8) == 0) {
      options.spool_dir = value_of(arg);
    } else if (std::strncmp(arg, "--submit=", 9) == 0) {
      options.submit_socket = value_of(arg);
    } else if (std::strncmp(arg, "--shutdown=", 11) == 0) {
      options.shutdown_socket = value_of(arg);
    } else if (std::strcmp(arg, "--now") == 0) {
      options.shutdown_now = true;
    } else if (arg[0] != '-') {
      options.merge_inputs.emplace_back(arg);  // positional: shard inputs
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      single_run("--json");
      options.json_path = value_of(arg);
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      single_run("--csv");
      options.csv_prefix = value_of(arg);
    } else if (std::strncmp(arg, "--fault=", 8) == 0) {
      single_run("--fault");
      options.config.faults.merge(parse_fault_plan(value_of(arg)));
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      single_run("--trace");
      const std::string value = value_of(arg);
      const auto colon = value.find(':');
      if (colon == std::string::npos) throw std::invalid_argument("--trace needs APP:FILE");
      options.trace_app = int_flag("--trace", value.substr(0, colon), 0);
      options.trace_path = value.substr(colon + 1);
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", arg);
      usage(1);
    }
  }
  // Daemon modes (docs/DAEMON.md). Each is a standalone mode like
  // --merge-shards: anything it cannot honour is rejected, not ignored.
  const int daemon_modes = (options.serve_socket.empty() ? 0 : 1) +
                           (options.submit_socket.empty() ? 0 : 1) +
                           (options.shutdown_socket.empty() ? 0 : 1);
  if (daemon_modes > 1) {
    std::fputs("--serve, --submit and --shutdown are mutually exclusive modes\n\n", stderr);
    usage(1);
  }
  if (!options.spool_dir.empty() && options.serve_socket.empty()) {
    std::fputs("--spool only applies to --serve (the daemon owns the spool)\n\n", stderr);
    usage(1);
  }
  if (options.shutdown_now && options.shutdown_socket.empty()) {
    std::fputs("--now only applies to --shutdown\n\n", stderr);
    usage(1);
  }
  if (!options.serve_socket.empty()) {
    if (!options.single_run_flags.empty() || !options.plan_path.empty() ||
        !options.merge_out.empty() || !options.sets.empty() || !options.jsonl_path.empty() ||
        !options.plan_csv_path.empty() || !options.journal_path.empty() || options.resume ||
        !options.shard.empty()) {
      std::fputs("--serve is a standalone mode: clients submit plans (and --set\n"
                 "overrides) over the socket; only --jobs and --spool combine with it\n\n",
                 stderr);
      usage(1);
    }
    return options;
  }
  if (!options.submit_socket.empty()) {
    if (options.plan_path.empty()) {
      std::fputs("--submit needs --plan=FILE (the campaign to send)\n\n", stderr);
      usage(1);
    }
    if (!options.single_run_flags.empty() || !options.merge_out.empty() ||
        !options.jsonl_path.empty() || !options.plan_csv_path.empty() ||
        !options.journal_path.empty() || options.resume || !options.shard.empty()) {
      std::fputs("--submit sends --plan (plus --set) to the daemon, which owns the\n"
                 "journal and spool; cell JSONL streams to stdout — other campaign\n"
                 "flags do not apply\n\n",
                 stderr);
      usage(1);
    }
    return options;
  }
  if (!options.shutdown_socket.empty()) {
    if (!options.single_run_flags.empty() || !options.plan_path.empty() ||
        !options.merge_out.empty() || !options.sets.empty()) {
      std::fputs("--shutdown is a standalone mode (only --now combines with it)\n\n", stderr);
      usage(1);
    }
    return options;
  }
  if (!options.merge_out.empty()) {
    if (!options.plan_path.empty() || !options.apps.empty()) {
      std::fputs("--merge-shards is a standalone mode; it does not combine with "
                 "--plan or --app\n\n",
                 stderr);
      usage(1);
    }
    if (options.merge_inputs.empty()) {
      std::fputs("--merge-shards needs at least one input JSONL file\n\n", stderr);
      usage(1);
    }
    return options;
  }
  if (!options.merge_inputs.empty()) {
    std::fprintf(stderr, "unexpected argument: %s\n\n", options.merge_inputs.front().c_str());
    usage(1);
  }
  if (!options.plan_path.empty()) {
    if (!options.single_run_flags.empty()) {
      std::string flags;
      for (const std::string& flag : options.single_run_flags) {
        if (!flags.empty()) flags += ", ";
        flags += flag;
      }
      std::fprintf(stderr,
                   "--plan describes the whole campaign; it does not combine with %s "
                   "(use --set=KEY=VALUE to override plan-file keys)\n\n",
                   flags.c_str());
      usage(1);
    }
    if (options.resume) {
      if (options.journal_path.empty()) {
        std::fputs("--resume needs --journal=FILE (the journal to replay)\n\n", stderr);
        usage(1);
      }
      if (options.jsonl_path.empty() || options.jsonl_path == "-") {
        std::fputs("--resume needs --jsonl=FILE (a real file, not '-'): the output is\n"
                   "truncated to the last journaled offset and continued in place\n\n",
                   stderr);
        usage(1);
      }
      if (!options.plan_csv_path.empty()) {
        std::fputs("--resume does not combine with --plan-csv (a CSV cannot be resumed "
                   "mid-campaign; re-derive it from the merged JSONL)\n\n",
                   stderr);
        usage(1);
      }
    }
    return options;
  }
  if (!options.sets.empty() || !options.jsonl_path.empty() || !options.plan_csv_path.empty() ||
      !options.journal_path.empty() || options.resume || !options.shard.empty()) {
    std::fputs("--set/--jsonl/--plan-csv/--journal/--resume/--shard only apply to a "
               "--plan campaign\n\n",
               stderr);
    usage(1);
  }
  if (options.apps.empty()) {
    std::fputs("no --app given\n\n", stderr);
    usage(1);
  }
  return options;
}

Report run_once(const CliOptions& options, std::uint64_t seed, bool side_outputs) {
  StudyConfig config = options.config;
  config.seed = seed;
  Study study(std::move(config));
  for (const AppSpec& spec : options.apps) study.add_app(spec.name, spec.nodes);
  if (side_outputs && options.trace_app >= 0) study.record_trace(options.trace_app);
  const Report report = study.run();
  if (side_outputs && options.trace_app >= 0) {
    study.trace(options.trace_app).save_csv(options.trace_path);
    std::fprintf(stderr, "wrote %s\n", options.trace_path.c_str());
  }
  if (side_outputs && !options.csv_prefix.empty()) {
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

  // Journal / resume (docs/ROBUSTNESS.md). Order matters: recover the
  // journal (repairing any torn tail), truncate the output back to the last
  // journaled byte, and only then open the sink in append mode.
  std::vector<JournalRecord> resume_records;
  if (options.resume) {
    resume_records = PlanJournal::recover(options.journal_path);
    const std::uint64_t offset = resume_records.empty() ? 0 : resume_records.back().offset;
    truncate_file(options.jsonl_path, offset);
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

  TeeSink sinks;
  ProgressSink progress(options.jsonl_path == "-" ? stderr : stdout);
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
  std::FILE* info = options.jsonl_path == "-" ? stderr : stdout;
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
  serve_options.socket_path = options.serve_socket;
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
  std::fprintf(stderr, "dflysim: daemon on %s stopped\n", options.serve_socket.c_str());
  return status;
}

int run_submit(const CliOptions& options) {
  // Ship the plan file's raw text; the daemon parses it (and applies the
  // --set overrides) so errors come back as one {"serve":"error"} line.
  std::ifstream in(options.plan_path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read plan file '" + options.plan_path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return serve::submit_plan(options.submit_socket, text.str(), options.sets, stdout, stderr);
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
#ifndef _WIN32
    if (!options.serve_socket.empty()) return run_serve(options);
    if (!options.submit_socket.empty()) return run_submit(options);
    if (!options.shutdown_socket.empty()) {
      return serve::request_shutdown(options.shutdown_socket, !options.shutdown_now, stderr);
    }
#endif
    if (!options.merge_out.empty()) return run_merge(options);
    if (!options.plan_path.empty()) return run_campaign(options);
    if (options.sweep <= 1) {
      const Report report = run_once(options, options.config.seed, /*side_outputs=*/true);
      print_table(report);
      if (!options.json_path.empty()) {
        const std::string json = report_to_json(report);
        if (options.json_path == "-") {
          std::printf("%s\n", json.c_str());
        } else {
          save_json(options.json_path, json);
          std::fprintf(stderr, "wrote %s\n", options.json_path.c_str());
        }
      }
      return report.completed ? 0 : 2;
    }
    // Multi-seed sweep: a seeds-axis plan whose cells shard across --jobs
    // workers (results are identical for any worker count); aggregate, print,
    // optionally dump JSON. A failed cell fails the whole sweep.
    ExperimentPlan plan;
    plan.name = "seed_sweep";
    plan.mode = PlanMode::kCustom;
    plan.seeds = SeedSweep(options.config.seed, options.sweep).seeds();
    plan.custom = [&options](const PlanCell& cell) {
      return run_once(options, cell.config.seed, false);
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
    if (!options.json_path.empty()) {
      const std::string json = sweep_to_json(summary);
      if (options.json_path == "-") {
        std::printf("%s\n", json.c_str());
      } else {
        save_json(options.json_path, json);
      }
    }
    return summary.completed_runs == summary.runs ? 0 : 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dflysim: %s\n", error.what());
    return 1;
  }
}
