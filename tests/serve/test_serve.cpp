// Campaign daemon (src/serve) — protocol and server behaviour, in-process.
//
// These tests run a real Server (unix socket, spool dir, SubmissionQueue) on
// a background thread and talk to it over real sockets, covering the daemon
// acceptance bar: byte-identical streamed JSONL, one BlueprintCache shared
// across concurrent clients, malformed requests rejected without killing the
// server, mid-plan client disconnects cancelling exactly one campaign, and
// spool-dir resume of a campaign a previous daemon left unfinished. The
// kill -9 end of the resume story is covered by bench/serve_smoke.sh.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/config_file.hpp"
#include "core/journal.hpp"
#include "core/json_report.hpp"
#include "core/plan.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace dfly {
namespace {

using serve::Request;

// Two pairwise cells on the tiny 144-node machine: FFT3D alone + FFT3D vs UR.
const char* const kTinyPlan =
    "topo.p = 2\ntopo.a = 4\ntopo.h = 2\ntopo.g = 9\n"
    "placement = random\nseed = 42\nscale = 64\n"
    "plan.name = tiny\nplan.mode = pairwise\nplan.routings = MIN\n"
    "plan.targets = FFT3D\nplan.backgrounds = None,UR\n";

// Twelve cells — long enough that a client closing right after the accepted
// line is guaranteed to vanish mid-plan.
const char* const kLongPlan =
    "topo.p = 2\ntopo.a = 4\ntopo.h = 2\ntopo.g = 9\n"
    "placement = random\nseed = 42\nscale = 64\n"
    "plan.name = longer\nplan.mode = pairwise\nplan.routings = MIN,VALg\n"
    "plan.targets = FFT3D\nplan.backgrounds = None,UR,LU,Halo3D,CosmoFlow,DL\n";

std::string make_temp_dir() {
  std::string dir = ::testing::TempDir() + "/dfsim_serve_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
  return dir;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The reference bytes: the same plan text run locally through run_plan into
/// a JsonlSink — what `dflysim --plan=FILE --jsonl=-` would print.
std::string local_jsonl(const std::string& plan_text) {
  const ExperimentPlan plan = plan_from_config(ConfigFile::parse(plan_text));
  std::ostringstream out;
  JsonlSink sink(out);
  run_plan(plan, sink, /*jobs=*/1);
  return out.str();
}

/// A real Server on a background thread; the destructor stops and joins it.
struct Daemon {
  explicit Daemon(const std::string& dir, int jobs = 2) {
    serve::ServeOptions options;
    options.socket_path = dir + "/sock";
    options.jobs = jobs;
    server = std::make_unique<serve::Server>(std::move(options));
    thread = std::thread([this] { exit_code = server->serve(); });
  }
  ~Daemon() { stop(); }
  void stop() {
    if (thread.joinable()) {
      server->request_stop();
      thread.join();
    }
  }
  const std::string& socket() const { return server->socket_path(); }

  std::unique_ptr<serve::Server> server;
  std::thread thread;
  int exit_code{-1};
};

/// Send one raw request line, read every response line until the server
/// closes the connection.
std::vector<std::string> talk(const std::string& socket_path, const std::string& line) {
  const int fd = serve::connect_unix(socket_path);
  EXPECT_TRUE(serve::write_all(fd, line + "\n"));
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  std::vector<std::string> lines;
  std::string one;
  while (serve::pop_line(buffer, one)) lines.push_back(one);
  return lines;
}

std::vector<std::string> submit(const std::string& socket_path, const std::string& plan_text) {
  Request request;
  request.op = "submit";
  request.plan_text = plan_text;
  return talk(socket_path, serve::format_request(request));
}

/// Split a submit response into (cell JSONL bytes, control lines).
std::pair<std::string, std::vector<std::string>> split_stream(
    const std::vector<std::string>& lines) {
  std::string cells;
  std::vector<std::string> control;
  for (const std::string& line : lines) {
    if (serve::is_control_line(line)) {
      control.push_back(line);
    } else {
      cells += line + "\n";
    }
  }
  return {cells, control};
}

/// Poll the status op until the campaign reports a terminal state.
std::string wait_terminal_state(const std::string& socket_path, const std::string& campaign) {
  Request request;
  request.op = "status";
  request.campaign = campaign;
  for (int i = 0; i < 1200; ++i) {
    const std::vector<std::string> lines = talk(socket_path, serve::format_request(request));
    if (lines.size() == 1) {
      const std::string state = serve::control_field(lines[0], "state");
      if (state == "done" || state == "cancelled" || state == "failed") return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return "timeout";
}

TEST(ServeProtocol, FormatParseRoundTripsEveryField) {
  Request request;
  request.op = "submit";
  request.plan_text = "plan.name = x\nplan.jobs = UR\n# \"quotes\" \\ and \t tabs\n";
  request.sets = {{"plan.routings", "MIN"}, {"scale", "64"}};
  const Request parsed = serve::parse_request(serve::format_request(request));
  EXPECT_EQ(parsed.op, "submit");
  EXPECT_EQ(parsed.plan_text, request.plan_text);
  EXPECT_EQ(parsed.sets, request.sets);

  Request status;
  status.op = "status";
  status.campaign = "c000042";
  EXPECT_EQ(serve::parse_request(serve::format_request(status)).campaign, "c000042");

  Request shutdown;
  shutdown.op = "shutdown";
  shutdown.drain = false;
  EXPECT_FALSE(serve::parse_request(serve::format_request(shutdown)).drain);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(serve::parse_request("not json"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("{\"op\":\"fly\"}"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("{\"op\":\"submit\"}"), std::invalid_argument);  // no plan
  EXPECT_THROW(serve::parse_request("{\"op\":\"status\"}"), std::invalid_argument);  // no id
  EXPECT_THROW(serve::parse_request("{\"op\":\"submit\",\"plan\":3}"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request(""), std::invalid_argument);
  // A NUL byte is not part of a number.
  EXPECT_THROW(serve::parse_request(std::string("{\"op\":\"stats\",\"n\":1") + '\0' + "}"),
               std::invalid_argument);
}

TEST(ServeProtocol, ControlLinePrefixSeparatesTheTwoStreams) {
  EXPECT_TRUE(serve::is_control_line("{\"serve\":\"accepted\",\"campaign\":\"c000001\"}"));
  EXPECT_FALSE(serve::is_control_line("{\"cell\":0,\"kind\":\"pairwise\"}"));
  EXPECT_EQ(serve::control_field("{\"serve\":\"accepted\",\"campaign\":\"c000001\"}",
                                 "campaign"),
            "c000001");
  EXPECT_EQ(serve::control_field("{\"serve\":\"done\",\"ok\":true}", "campaign"), "");
}

TEST(ServeProtocol, ControlFieldRoundTripsEveryStringJsonWriterWrites) {
  // Every byte JsonWriter escapes — the control characters 0x01-0x1f, '"'
  // and '\\' — must come back as itself, alone and all in one string.
  std::vector<std::string> messages;
  std::string all;
  for (int c = 0x01; c <= 0x1f; ++c) {
    messages.push_back("a" + std::string(1, static_cast<char>(c)) + "b");
  }
  messages.push_back("say \"hi\"");
  messages.push_back("C:\\dir\\");
  for (const std::string& message : messages) all += message;
  messages.push_back(all);
  for (const std::string& message : messages) {
    JsonWriter w;
    w.begin_object();
    w.key("serve").value("error");
    w.key("message").value(message);
    w.key("cells").value(std::uint64_t{3});
    w.end_object();
    const std::string line = w.str();
    EXPECT_EQ(serve::control_field(line, "message"), message) << line;
    EXPECT_EQ(serve::control_field(line, "serve"), "error") << line;
    EXPECT_EQ(serve::control_field(line, "cells"), "3") << line;
  }
  // Cell records nest their fields: the first match in document order wins.
  const std::string record =
      R"({"cell":0,"jobs":[{"app":"UR","nodes":64}],"report":{"routing":"MIN",)"
      R"("events_executed":284902,"apps":[{"app":"UR","events_executed":1}]}})";
  EXPECT_EQ(serve::control_field(record, "events_executed"), "284902");
  EXPECT_EQ(serve::control_field(record, "app"), "UR");
  EXPECT_EQ(serve::control_field(record, "missing"), "");
}

TEST(ServeServer, SubmitStreamsByteIdenticalJsonlAndSpoolsTheCampaign) {
  const std::string dir = make_temp_dir();
  Daemon daemon(dir);

  const auto [cells, control] = split_stream(submit(daemon.socket(), kTinyPlan));
  EXPECT_EQ(cells, local_jsonl(kTinyPlan));

  ASSERT_GE(control.size(), 2u);
  EXPECT_EQ(serve::control_field(control.front(), "serve"), "accepted");
  EXPECT_EQ(serve::control_field(control.front(), "campaign"), "c000001");
  EXPECT_EQ(serve::control_field(control.back(), "serve"), "done");
  EXPECT_EQ(serve::control_field(control.back(), "ok"), "true");

  // The spool holds the durable record: plan, journal, output, done marker —
  // and the spooled JSONL is the same bytes again.
  const std::string base = daemon.server->spool_dir() + "/c000001";
  EXPECT_TRUE(file_exists(base + ".plan"));
  EXPECT_TRUE(file_exists(base + ".journal"));
  EXPECT_TRUE(file_exists(base + ".done"));
  EXPECT_EQ(read_file(base + ".jsonl"), local_jsonl(kTinyPlan));

  daemon.stop();
  EXPECT_EQ(daemon.exit_code, 0);
}

TEST(ServeServer, TwoConcurrentClientsShareOneBlueprintCache) {
  const std::string dir = make_temp_dir();
  Daemon daemon(dir);

  std::vector<std::string> first;
  std::vector<std::string> second;
  std::thread a([&] { first = submit(daemon.socket(), kTinyPlan); });
  std::thread b([&] { second = submit(daemon.socket(), kTinyPlan); });
  a.join();
  b.join();

  // Both campaigns completed clean, and both streamed identical bytes.
  const auto [cells_a, control_a] = split_stream(first);
  const auto [cells_b, control_b] = split_stream(second);
  EXPECT_EQ(serve::control_field(control_a.back(), "ok"), "true");
  EXPECT_EQ(serve::control_field(control_b.back(), "ok"), "true");
  EXPECT_EQ(cells_a, cells_b);
  EXPECT_EQ(cells_a, local_jsonl(kTinyPlan));

  // The proof of sharing: 4 same-shape cells across the two campaigns hit
  // ONE pool-wide cache — the blueprint was built exactly once, every other
  // cell was a hit. Private per-campaign caches would show 2 misses.
  const BlueprintCache::Stats stats = daemon.server->cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 3u);

  // The stats op reports the same counters over the wire.
  const std::vector<std::string> reply = talk(daemon.socket(), "{\"op\":\"stats\"}");
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(serve::control_field(reply[0], "serve"), "stats");
  EXPECT_EQ(serve::control_field(reply[0], "blueprint_misses"), "1");
}

TEST(ServeServer, MalformedRequestsGetOneErrorLineAndTheServerKeepsServing) {
  const std::string dir = make_temp_dir();
  Daemon daemon(dir);

  for (const char* bad : {"this is not json", "{\"op\":\"fly\"}", "{\"op\":\"submit\"}",
                          "{\"op\":\"submit\",\"plan\":\"plan.mode = nonsense\\n\"}"}) {
    const std::vector<std::string> reply = talk(daemon.socket(), bad);
    ASSERT_EQ(reply.size(), 1u) << bad;
    EXPECT_EQ(serve::control_field(reply[0], "serve"), "error") << bad;
  }
  // Unknown campaign ids answer with an error too, not a crash.
  const std::vector<std::string> unknown =
      talk(daemon.socket(), "{\"op\":\"status\",\"campaign\":\"c999999\"}");
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(serve::control_field(unknown[0], "serve"), "error");

  // After all of that, a well-formed submit still runs to completion.
  const auto [cells, control] = split_stream(submit(daemon.socket(), kTinyPlan));
  EXPECT_EQ(cells, local_jsonl(kTinyPlan));
  EXPECT_EQ(serve::control_field(control.back(), "ok"), "true");
}

TEST(ServeServer, ClientDisconnectMidPlanCancelsOnlyThatCampaign) {
  // StreamSink sends with MSG_NOSIGNAL; make double sure a dead peer cannot
  // take the test process down while the daemon keeps running.
  std::signal(SIGPIPE, SIG_IGN);
  const std::string dir = make_temp_dir();
  Daemon daemon(dir);

  // Hand-roll the submit so we can hang up right after the accepted line.
  Request request;
  request.op = "submit";
  request.plan_text = kLongPlan;
  const int fd = serve::connect_unix(daemon.socket());
  ASSERT_TRUE(serve::write_all(fd, serve::format_request(request) + "\n"));
  std::string buffer;
  std::string accepted;
  char chunk[512];
  while (!serve::pop_line(buffer, accepted)) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    ASSERT_GT(n, 0);
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ASSERT_EQ(serve::control_field(accepted, "serve"), "accepted");
  const std::string cancelled_id = serve::control_field(accepted, "campaign");
  ::close(fd);  // vanish mid-plan

  // A second campaign on the same daemon is unaffected by the disconnect.
  const auto [cells, control] = split_stream(submit(daemon.socket(), kTinyPlan));
  EXPECT_EQ(cells, local_jsonl(kTinyPlan));
  EXPECT_EQ(serve::control_field(control.back(), "ok"), "true");

  // The abandoned campaign winds down as cancelled — not done, not failed.
  EXPECT_EQ(wait_terminal_state(daemon.socket(), cancelled_id), "cancelled");
}

TEST(ServeServer, ResumesUnfinishedSpoolEntriesByteIdenticallyOnStartup) {
  const std::string dir = make_temp_dir();
  const std::string spool = dir + "/sock.spool";
  ASSERT_EQ(::mkdir(spool.c_str(), 0755), 0);
  const std::string base = spool + "/c000001";
  const std::string reference = local_jsonl(kTinyPlan);

  // Fabricate what a SIGKILLed daemon leaves behind: the spooled plan, a
  // journal holding only the FIRST cell, the output truncated to that cell's
  // journaled offset, and no .done marker. (bench/serve_smoke.sh produces
  // the same state with a real kill -9.)
  {
    std::ofstream plan(base + ".plan", std::ios::binary);
    plan << kTinyPlan;
  }
  {
    const ExperimentPlan plan = plan_from_config(ConfigFile::parse(kTinyPlan));
    JsonlSink jsonl(base + ".jsonl", /*append=*/false);
    PlanJournal journal(base + ".journal");
    RunPlanOptions options;
    options.journal = &journal;
    options.output_offset = [&jsonl] { return jsonl.bytes_written(); };
    run_plan(plan, jsonl, options);
  }
  const std::vector<JournalRecord> records = PlanJournal::recover(base + ".journal");
  ASSERT_EQ(records.size(), 2u);
  {
    // Keep only the first journal line; cut the output back to its offset.
    std::ifstream in(base + ".journal", std::ios::binary);
    std::string first_line;
    ASSERT_TRUE(std::getline(in, first_line));
    in.close();
    std::ofstream out(base + ".journal", std::ios::binary | std::ios::trunc);
    out << first_line << "\n";
  }
  truncate_file(base + ".jsonl", records[0].offset);
  ASSERT_LT(read_file(base + ".jsonl").size(), reference.size());

  // A fresh daemon on this spool must finish the campaign unprompted.
  Daemon daemon(dir);
  for (int i = 0; i < 1200 && !file_exists(base + ".done"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(file_exists(base + ".done"));
  EXPECT_EQ(read_file(base + ".jsonl"), reference);
  const std::string marker = read_file(base + ".done");
  EXPECT_NE(marker.find("\"state\":\"done\""), std::string::npos) << marker;
  EXPECT_NE(marker.find("\"resumed\":1"), std::string::npos) << marker;

  // And a new submission gets a FRESH id — resumed entries are never reused.
  const auto [cells, control] = split_stream(submit(daemon.socket(), kTinyPlan));
  EXPECT_EQ(serve::control_field(control.front(), "campaign"), "c000002");
  EXPECT_EQ(cells, reference);
}

}  // namespace
}  // namespace dfly
