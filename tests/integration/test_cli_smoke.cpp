// End-to-end smoke test for the dflysim CLI: drives the real binary (path
// injected by CMake as DFSIM_CLI_PATH) on a quickstart-equivalent run and
// checks the exit status plus the JSON report's key surface.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef DFSIM_CLI_PATH
#error "DFSIM_CLI_PATH must be defined to the dflysim binary path"
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
