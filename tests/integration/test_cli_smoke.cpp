// End-to-end smoke test for the dflysim CLI: drives the real binary (path
// injected by CMake as DFSIM_CLI_PATH) on a quickstart-equivalent run and
// checks the exit status plus the JSON report's key surface.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

#ifndef DFSIM_CLI_PATH
#error "DFSIM_CLI_PATH must be defined to the dflysim binary path"
#endif
#ifndef DFSIM_SOURCE_DIR
#error "DFSIM_SOURCE_DIR must be defined to the repository root"
#endif

int run_cli(const std::string& args, const std::string& env = "") {
  const std::string command =
      (env.empty() ? std::string() : "env " + env + " ") + DFSIM_CLI_PATH + " " + args;
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_json_path() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/dfsim_cli_smoke.json";
}

TEST(CliSmoke, HelpAndListingsExitZero) {
  EXPECT_EQ(run_cli("--help > /dev/null 2>&1"), 0);
  EXPECT_EQ(run_cli("--list-apps > /dev/null 2>&1"), 0);
  EXPECT_EQ(run_cli("--list-routings > /dev/null 2>&1"), 0);
  EXPECT_EQ(run_cli("--list-placements > /dev/null 2>&1"), 0);
}

TEST(CliSmoke, ListPlacementsPrintsEveryPolicy) {
  const std::string out_path = temp_json_path() + ".placements";
  EXPECT_EQ(run_cli("--list-placements > " + out_path + " 2>/dev/null"), 0);
  const std::string out = slurp(out_path);
  EXPECT_EQ(out, "random\ncontiguous\nlinear\n");
  std::remove(out_path.c_str());
}

TEST(CliSmoke, BadUsageExitsNonZero) {
  EXPECT_NE(run_cli("> /dev/null 2>&1"), 0);                   // no --app
  EXPECT_NE(run_cli("--no-such-flag > /dev/null 2>&1"), 0);
  // Campaign-only flags are rejected without --plan...
  EXPECT_NE(run_cli("--app=UR:16 --set=seed=1 > /dev/null 2>&1"), 0);
  EXPECT_NE(run_cli("--app=UR:16 --jsonl=x.jsonl > /dev/null 2>&1"), 0);
  // ...and single-run flags are rejected (not silently dropped) with --plan.
  EXPECT_NE(run_cli("--plan=nonexistent.cfg --routing=MIN > /dev/null 2>&1"), 0);
  EXPECT_NE(run_cli("--plan=nonexistent.cfg --seed=7 > /dev/null 2>&1"), 0);
  EXPECT_NE(run_cli("--plan=nonexistent.cfg --app=UR:16 > /dev/null 2>&1"), 0);
}

TEST(CliSmoke, UnknownAppFailsFastWithOneCleanLine) {
  const std::string err_path = temp_json_path() + ".stderr";
  // Must be rejected at argument-parse time (exit 1), before any network is
  // built — a huge machine would make a late failure obvious by its runtime.
  EXPECT_EQ(run_cli("--app=NoSuchApp:16 --scale=64 > /dev/null 2> " + err_path), 1);
  const std::string err = slurp(err_path);
  EXPECT_NE(err.find("unknown application 'NoSuchApp'"), std::string::npos) << err;
  EXPECT_NE(err.find("--list-apps"), std::string::npos) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;  // one line
  std::remove(err_path.c_str());
}

TEST(CliSmoke, InvalidIntegerFlagsFailNamingTheFlag) {
  // A scale below 1 used to run at paper volume (workloads clamp the
  // divisor), a negative node count silently filled the machine, and junk
  // printed only "dflysim: stoi". Each is now one line naming the flag, at
  // parse time.
  const std::string err_path = temp_json_path() + ".int_stderr";
  const struct {
    const char* args;
    const char* message;
  } cases[] = {
      {"--app=UR:16 --scale=0", "--scale wants an integer >= 1, got '0'"},
      {"--app=UR:16 --scale=-1", "--scale wants an integer >= 1, got '-1'"},
      {"--app=UR:16 --scale=8x", "--scale wants an integer >= 1, got '8x'"},
      {"--app=UR:-4 --scale=64", "--app wants an integer >= 0, got '-4'"},
      {"--app=UR:abc --scale=64", "--app wants an integer >= 0, got 'abc'"},
      {"--app=UR:16 --scale=64 --jobs=abc", "--jobs wants an integer >= 0, got 'abc'"},
      {"--app=UR:16 --scale=64 --sweep=0", "--sweep wants an integer >= 1, got '0'"},
      {"--app=UR:16 --scale=64 --seed=-3", "--seed wants an integer >= 0, got '-3'"},
      // A single-value flag given twice used to keep the last value silently,
      // and an empty value ran with that output switched off.
      {"--app=UR:16 --routing=MIN --routing=PAR", "--routing given more than once"},
      {"--serve=a.sock --serve=b.sock", "--serve given more than once"},
      {"--app=UR:16 --json=", "--json needs a value: --json=FILE"},
      {"--plan=p.cfg --jsonl=", "--jsonl needs a value: --jsonl=FILE"},
      {"--plan=", "--plan needs a value: --plan=FILE"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(run_cli(std::string(c.args) + " > /dev/null 2> " + err_path), 1) << c.args;
    const std::string err = slurp(err_path);
    EXPECT_NE(err.find(c.message), std::string::npos) << c.args << ": " << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
  // A config file's scale goes through the same check, naming the key.
  const std::string config_path = temp_json_path() + ".scale0.cfg";
  {
    std::ofstream out(config_path);
    out << "scale = 0\n";
  }
  EXPECT_EQ(run_cli("--config=" + config_path + " --app=UR:16 > /dev/null 2> " + err_path), 1);
  const std::string err = slurp(err_path);
  EXPECT_NE(err.find("'scale' must be >= 1"), std::string::npos) << err;
  std::remove(config_path.c_str());
  std::remove(err_path.c_str());
}

/// True when `text` mentions `flag` as a whole flag (`--plan`, not the
/// `--plan` inside `--plan-csv`).
bool names_flag(const std::string& text, const std::string& flag) {
  for (auto at = text.find(flag); at != std::string::npos; at = text.find(flag, at + 1)) {
    const char next = at + flag.size() < text.size() ? text[at + flag.size()] : ' ';
    if (next != '-' && !std::isalnum(static_cast<unsigned char>(next))) return true;
  }
  return false;
}

// The mode -> flag matrix, written out because it is the spec: a flag used
// outside its modes is a usage error at parse time that names the flag, so
// nothing runs, connects or writes. Mode flags choose the mode; a second
// mode flag is reported either itself or as the mode that rejects the base's
// flags, and either way the line names it.
TEST(CliSmoke, FlagsOutsideTheirModeAreRejectedNamingTheFlag) {
  const std::filesystem::path dir = temp_json_path() + ".modes";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string d = dir.string() + "/";
  const std::string err_path = temp_json_path() + ".modes_stderr";
  // Every flag outside --help/--list-*, with a value whose file, socket or
  // spool would land in `dir` if the invocation were accepted.
  const std::vector<std::pair<std::string, std::string>> flags = {
      {"--config", "=" + d + "c.cfg"}, {"--app", "=UR:16"}, {"--routing", "=MIN"},
      {"--placement", "=linear"}, {"--arrangement", "=absolute"}, {"--seed", "=7"},
      {"--scale", "=64"}, {"--sweep", "=2"}, {"--jobs", "=2"}, {"--json", "=" + d + "o.json"},
      {"--csv", "=" + d + "o"}, {"--trace", "=0:" + d + "t.csv"}, {"--fault", "=0:0:2"},
      {"--plan", "=" + d + "p.cfg"}, {"--set", "=seed=1"}, {"--jsonl", "=" + d + "o.jsonl"},
      {"--plan-csv", "=" + d + "o.csv"}, {"--journal", "=" + d + "j"}, {"--resume", ""},
      {"--shard", "=1/2"}, {"--merge-shards", "=" + d + "m.jsonl"},
      {"--serve", "=" + d + "serve.sock"}, {"--spool", "=" + d + "spool"},
      {"--submit", "=" + d + "submit.sock"}, {"--shutdown", "=" + d + "stop.sock"}, {"--now", ""},
  };
  const struct {
    std::string mode;
    std::string base;
    std::set<std::string> allowed;
  } modes[] = {
      {"run", "--app=UR:16 --scale=64",
       {"--config", "--app", "--routing", "--placement", "--arrangement", "--seed", "--scale",
        "--sweep", "--jobs", "--json", "--csv", "--trace", "--fault"}},
      {"plan", "--plan=" + d + "p.cfg",
       {"--plan", "--set", "--jsonl", "--plan-csv", "--journal", "--resume", "--shard", "--jobs",
        // --plan plus --submit is submit mode, the one mode switch that
        // leaves the base legal; the submit row covers it.
        "--submit"}},
      {"merge", "--merge-shards=" + d + "m.jsonl " + d + "a.jsonl", {"--merge-shards"}},
      {"serve", "--serve=" + d + "serve.sock", {"--serve", "--spool", "--jobs"}},
      {"submit", "--submit=" + d + "submit.sock --plan=" + d + "p.cfg",
       {"--submit", "--plan", "--set"}},
      {"shutdown", "--shutdown=" + d + "stop.sock", {"--shutdown", "--now"}},
  };
  std::vector<std::pair<std::string, std::string>> cases;  // {args, what stderr names}
  for (const auto& mode : modes) {
    for (const char* anywhere : {" --help", " --list-apps", " --list-routings",
                                 " --list-placements"}) {
      EXPECT_EQ(run_cli(mode.base + anywhere + " > /dev/null 2>&1"), 0) << mode.base << anywhere;
    }
    for (const auto& [flag, value] : flags) {
      if (mode.allowed.count(flag) == 0) cases.emplace_back(mode.base + " " + flag + value, flag);
    }
    if (mode.mode != "merge") cases.emplace_back(mode.base + " stray", "stray");
  }
  // Invocations that used to get past parsing and ignore these flags.
  cases.emplace_back("--merge-shards=" + d + "m.jsonl " + d + "a.jsonl --routing=MIN --seed=7 "
                     "--json=" + d + "x.json --jsonl=" + d + "zz --journal=" + d + "j --jobs=3",
                     "--routing");
  cases.emplace_back("--shutdown=" + d + "stop.sock --jsonl=" + d + "x --journal=" + d +
                         "j --shard=1/2 --jobs=4 stray",
                     "--jsonl");
  cases.emplace_back("--submit=" + d + "submit.sock --plan=" + d + "p.cfg --jobs=4 stray",
                     "--jobs");
  cases.emplace_back("--serve=" + d + "serve.sock stray", "stray");
  for (const auto& [args, named] : cases) {
    EXPECT_EQ(run_cli(args + " > /dev/null 2> " + err_path), 1) << args;
    const std::string err = slurp(err_path);
    const std::string first_line = err.substr(0, err.find('\n'));
    EXPECT_TRUE(names_flag(first_line, named)) << args << ": " << err;
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "a rejected invocation wrote into " << dir;
  std::filesystem::remove_all(dir);
  std::remove(err_path.c_str());
}

// A sweep runs its cells through a plan and writes no per-cell side files,
// so --csv and --trace under --sweep are rejected at parse time instead of
// being dropped, and nothing is written.
TEST(CliSmoke, SweepRejectsCsvAndTraceNamingBothFlags) {
  const std::filesystem::path dir = temp_json_path() + ".sweep_side";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string err_path = temp_json_path() + ".sweep_stderr";
  for (const char* side : {"--csv=sw", "--trace=0:tr.csv", "--csv=sw --trace=0:tr.csv"}) {
    const std::string command = "cd " + dir.string() + " && " + DFSIM_CLI_PATH +
                                " --app=UR:64 --scale=64 --sweep=2 " + side + " > /dev/null 2> " +
                                err_path;
    const int status = std::system(command.c_str());
    EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 1) << side;
    const std::string err = slurp(err_path);
    const std::string first_line = err.substr(0, err.find('\n'));
    for (const char* flag : {"--csv", "--trace", "--sweep"}) {
      EXPECT_TRUE(names_flag(first_line, flag)) << side << ": " << err;
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "a rejected sweep wrote into " << dir;
  std::filesystem::remove_all(dir);
  std::remove(err_path.c_str());
}

// Every `dflysim --...` command line in the user docs must use flags that
// --help lists, and must get past the mode check: `--help` appended at the
// end exits 0 only if every flag before it belongs to the chosen mode.
TEST(CliSmoke, HelpListsEveryFlagTheDocsUse) {
  const std::string help_path = temp_json_path() + ".help";
  ASSERT_EQ(run_cli("--help > " + help_path + " 2>/dev/null"), 0);
  const std::string help = slurp(help_path);
  std::remove(help_path.c_str());
  std::set<std::string> listed;  // every `--name` in the help text
  for (auto at = help.find("--"); at != std::string::npos; at = help.find("--", at + 2)) {
    const auto end = help.find_first_not_of("abcdefghijklmnopqrstuvwxyz-", at + 2);
    if (end > at + 2) listed.insert(help.substr(at, end - at));
  }
  EXPECT_EQ(listed.size(), 30u) << help;

  int command_lines = 0;
  for (const char* doc : {"README.md", "docs/DAEMON.md", "docs/ROBUSTNESS.md"}) {
    std::ifstream in(std::string(DFSIM_SOURCE_DIR) + "/" + doc);
    ASSERT_TRUE(in) << doc;
    std::string line;
    std::string part;
    while (std::getline(in, part)) {
      line += part;
      if (!line.empty() && line.back() == '\\') {  // shell continuation
        line.pop_back();
        continue;
      }
      for (auto at = line.find("dflysim --"); at != std::string::npos;
           at = line.find("dflysim --", at + 1)) {
        // The command runs up to the end of its code span, a pipe, redirect,
        // `&` or comment.
        std::string command = line.substr(at + 7);
        command = command.substr(0, command.find_first_of("`|&#;<>"));
        std::string args;
        bool mention = false;  // e.g. a heading's `dflysim --serve`: no value given
        std::istringstream tokens(command);
        for (std::string token; tokens >> token;) {
          args += " '" + token + "'";
          const std::string flag = token.substr(0, token.find('='));
          if (flag.rfind("--", 0) != 0) continue;
          EXPECT_EQ(listed.count(flag), 1u) << doc << ": `" << flag << "` is not in --help";
          mention |= flag == token && help.find(flag + "=") != std::string::npos;
        }
        if (mention) continue;
        EXPECT_EQ(run_cli(args + " --help > /dev/null 2>&1"), 0) << doc << ":" << command;
        ++command_lines;
      }
      line.clear();
    }
  }
  EXPECT_GE(command_lines, 20) << "the docs' dflysim command lines were not found";
}

// Flags of deleted mechanisms (the intra-cell parallel engine, the arena and
// blueprint escape hatches) are ordinary unknown options now.
TEST(CliSmoke, RemovedCellThreadsFlagIsAnUnknownOption) {
  const std::string err_path = temp_json_path() + ".ct_stderr";
  for (const std::string flag : {"--cell-threads=2", "--no-arena", "--no-blueprint"}) {
    EXPECT_EQ(run_cli("--app=UR:16 --scale=64 " + flag + " > /dev/null 2> " + err_path), 1)
        << flag;
    const std::string err = slurp(err_path);
    EXPECT_NE(err.find("unknown option: " + flag), std::string::npos) << err;
  }
  std::remove(err_path.c_str());
}

TEST(CliSmoke, QuickstartRunWritesJsonReport) {
  const std::string json_path = temp_json_path();
  std::remove(json_path.c_str());

  // Quickstart-equivalent: FFT3D on half the paper machine, Q-adaptive
  // routing, iteration counts shrunk for a fast smoke run.
  const int exit_code = run_cli("--app=FFT3D:528 --routing=Q-adp --scale=32 --seed=1 --json=" +
                                json_path + " > /dev/null 2>&1");
  EXPECT_EQ(exit_code, 0);

  const std::string json = slurp(json_path);
  ASSERT_FALSE(json.empty()) << "CLI did not write " << json_path;
  for (const char* key :
       {"\"routing\"", "\"completed\"", "\"makespan_ms\"", "\"sys_lat_p99_us\"",
        "\"agg_throughput_gb_per_ms\"", "\"events_executed\"", "\"apps\"", "\"app\"",
        "\"comm_mean_ms\"", "\"lat_p99_us\"", "\"nonminimal_fraction\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing key " << key;
  }
  EXPECT_NE(json.find("\"completed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"routing\":\"Q-adp\""), std::string::npos);
  std::remove(json_path.c_str());
}

TEST(CliSmoke, PlanRunStreamsJsonlAndHonoursSetOverrides) {
  const char* dir = std::getenv("TMPDIR");
  const std::string base = std::string(dir != nullptr ? dir : "/tmp");
  const std::string plan_path = base + "/dfsim_cli_smoke_plan.cfg";
  const std::string jsonl_path = base + "/dfsim_cli_smoke_plan.jsonl";
  const std::string csv_path = base + "/dfsim_cli_smoke_plan.csv";
  {
    std::ofstream out(plan_path);
    out << "topo.p = 2\ntopo.a = 4\ntopo.h = 2\ntopo.g = 9\nscale = 64\n"
           "plan.mode = single\nplan.jobs = UR:32\nplan.routings = MIN,UGALg\n"
           "plan.seeds = 42..43\n";
  }
  std::remove(jsonl_path.c_str());

  // 2 routings x 2 seeds = 4 cells; --set trims the seeds axis to one.
  const int exit_code = run_cli("--plan=" + plan_path + " --set=plan.seeds=42 --jobs=2" +
                                " --jsonl=" + jsonl_path + " --plan-csv=" + csv_path +
                                " > /dev/null 2>&1");
  EXPECT_EQ(exit_code, 0);
  const std::string jsonl = slurp(jsonl_path);
  ASSERT_FALSE(jsonl.empty()) << "CLI did not write " << jsonl_path;
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);  // one line per cell
  for (const char* key : {"\"cell\":0", "\"cell\":1", "\"kind\":\"single\"",
                          "\"routing\":\"MIN\"", "\"routing\":\"UGALg\"", "\"seed\":42",
                          "\"report\":{", "\"completed\":true"}) {
    EXPECT_NE(jsonl.find(key), std::string::npos) << "missing " << key;
  }
  const std::string csv = slurp(csv_path);
  EXPECT_EQ(csv.rfind("cell,kind,variant,routing,placement", 0), 0u);

  // An unknown application inside the plan must also fail before simulating.
  {
    std::ofstream out(plan_path);
    out << "plan.mode = single\nplan.jobs = Bogus:16\n";
  }
  EXPECT_NE(run_cli("--plan=" + plan_path + " > /dev/null 2>&1"), 0);

  std::remove(plan_path.c_str());
  std::remove(jsonl_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(CliSmoke, MalformedDfsimJobsEnvFailsLoudly) {
  const std::string err_path = temp_json_path() + ".jobs_stderr";
  // DFSIM_JOBS=4x used to silently run 4 workers; abc silently ran 1. Both
  // must now be one clean fatal line and exit 1.
  EXPECT_EQ(run_cli("--app=UR:16 --scale=64 --sweep=2 > /dev/null 2> " + err_path,
                    "DFSIM_JOBS=4x"),
            1);
  const std::string err = slurp(err_path);
  EXPECT_NE(err.find("DFSIM_JOBS must be a positive integer, got '4x'"), std::string::npos)
      << err;
  EXPECT_EQ(run_cli("--app=UR:16 --scale=64 --sweep=2 > /dev/null 2>&1", "DFSIM_JOBS=abc"), 1);
  // An explicit --jobs never consults the env, so it still runs.
  EXPECT_EQ(run_cli("--app=UR:64 --routing=MIN --scale=64 --sweep=2 --jobs=2 "
                    "> /dev/null 2>&1",
                    "DFSIM_JOBS=abc"),
            0);
  std::remove(err_path.c_str());
}

TEST(CliSmoke, PlanJobsWithNonPositiveNodesIsRejectedAtTheOffendingLine) {
  const char* dir = std::getenv("TMPDIR");
  const std::string base = std::string(dir != nullptr ? dir : "/tmp");
  const std::string plan_path = base + "/dfsim_cli_smoke_badnodes.cfg";
  const std::string err_path = temp_json_path() + ".nodes_stderr";
  {
    std::ofstream out(plan_path);
    out << "plan.mode = single\nplan.jobs = UR:0\n";
  }
  EXPECT_EQ(run_cli("--plan=" + plan_path + " > /dev/null 2> " + err_path), 1);
  const std::string err = slurp(err_path);
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find(">= 1"), std::string::npos) << err;
  std::remove(plan_path.c_str());
  std::remove(err_path.c_str());
}

TEST(CliSmoke, CampaignPipedIntoHeadRecordsSinkFailuresInsteadOfDyingOfSigpipe) {
  const char* dir = std::getenv("TMPDIR");
  const std::string base = std::string(dir != nullptr ? dir : "/tmp");
  const std::string plan_path = base + "/dfsim_cli_smoke_pipe.cfg";
  const std::string status_path = base + "/dfsim_cli_smoke_pipe.status";
  {
    std::ofstream out(plan_path);
    out << "topo.p = 2\ntopo.a = 4\ntopo.h = 2\ntopo.g = 9\nscale = 64\n"
           "plan.mode = single\nplan.jobs = UR:32\nplan.routings = MIN,UGALg\n"
           "plan.seeds = 42..43\n";
  }
  std::remove(status_path.c_str());
  // `head -n 1` closes the pipe after the first cell line; the remaining
  // cells hit EPIPE. Pre-fix the whole process died of SIGPIPE (no exit
  // status at all); now the broken sink is recorded per cell and the run
  // finishes with exit 2, like any campaign with failures.
  const std::string command = std::string("( ") + DFSIM_CLI_PATH + " --plan=" + plan_path +
                              " --jsonl=- 2>/dev/null; echo $? > " + status_path +
                              " ) | head -n 1 > /dev/null";
  std::system(command.c_str());
  const std::string status = slurp(status_path);
  EXPECT_EQ(status, "2\n") << "campaign into head should exit 2, got: " << status;
  std::remove(plan_path.c_str());
  std::remove(status_path.c_str());
}

TEST(CliSmoke, JsonToStdout) {
  const std::string json_path = temp_json_path() + ".stdout";
  const int exit_code = run_cli("--app=UR:64 --routing=MIN --scale=64 --json=- > " + json_path +
                                " 2>/dev/null");
  EXPECT_EQ(exit_code, 0);
  const std::string out = slurp(json_path);
  EXPECT_NE(out.find("\"routing\""), std::string::npos);
  EXPECT_NE(out.find("\"apps\""), std::string::npos);
  std::remove(json_path.c_str());
}

}  // namespace
