// Pins the router's arbitration order byte for byte.
//
// Each cell below is small but congested enough to exercise one ordering
// rule of the router: credit stalls and the re-activation of parked
// requests ahead of newer arrivals (2-packet buffers), DWRR class
// arbitration with parked requests returning to the front of their own
// class (QoS), and degraded ports (slower serialisation plus extra wire
// latency). The digest covers every delivered packet's full record in
// delivery order plus every link's traffic and stall counters, so any change
// to which request an output serves next shows up as a digest change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "core/study.hpp"
#include "workloads/motifs.hpp"

namespace dfly {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ull};
};

enum class Cell { kTinyBuffers, kQos, kDegraded };

struct PinnedCell {
  Cell cell;
  const char* routing;
  int max_hops;  ///< the routing's longest router-to-router path
  std::uint64_t digest;
};

std::string cell_name(const PinnedCell& pinned) {
  static const char* const kCells[] = {"TinyBuffers", "Qos", "Degraded"};
  return std::string(kCells[static_cast<int>(pinned.cell)]) + "_" + pinned.routing;
}

// Names the parameter in test output; without it GoogleTest prints the
// struct's raw bytes, which include the address of `routing`.
void PrintTo(const PinnedCell& pinned, std::ostream* out) { *out << cell_name(pinned); }

// Runs `pinned`'s cell, checks that no packet took more router hops than its
// routing's bound, and returns the digest.
std::uint64_t run_and_digest(const PinnedCell& pinned) {
  const Cell cell = pinned.cell;
  StudyConfig config;
  config.topo = DragonflyParams::tiny();
  config.routing = pinned.routing;
  config.seed = 7;
  config.observability.keep_packet_records = true;
  switch (cell) {
    case Cell::kTinyBuffers:
      config.net.buffer_packets = 2;
      break;
    case Cell::kQos:
      config.net.qos.num_classes = 3;
      config.net.qos.weights = {3, 1, 1};
      config.net.buffer_packets = 4;  // park requests under every class
      break;
    case Cell::kDegraded: {
      // Two global and two local output ports, each slowed and lengthened.
      config.faults = parse_fault_plan("0:5:4:500,9:6:3:200,17:2:2:150,30:3:5:0");
      break;
    }
  }
  Study study(std::move(config));
  workloads::UniformRandomParams p;
  p.msg_bytes = 4096;
  p.iterations = 100;
  p.interval = 0;  // flood
  p.window = 8;
  const int a = study.add_motif(std::make_unique<workloads::UniformRandomMotif>(p), 24, "A");
  const int b = study.add_motif(std::make_unique<workloads::UniformRandomMotif>(p), 24, "B");
  const int c = study.add_motif(std::make_unique<workloads::UniformRandomMotif>(p), 24, "C");
  if (cell == Cell::kQos) {
    study.set_traffic_class(a, 0);
    study.set_traffic_class(b, 1);
    study.set_traffic_class(c, 2);
  }
  const Report report = study.run();
  EXPECT_TRUE(report.completed);

  Fnv1a digest;
  digest.add(static_cast<std::uint64_t>(report.makespan));
  digest.add(report.events_executed);
  const PacketLog& log = study.network().packet_log();
  digest.add(log.records().size());
  int max_hops = 0;
  for (const PacketRecord& r : log.records()) {
    max_hops = std::max(max_hops, static_cast<int>(r.hops));
    digest.add(static_cast<std::uint64_t>(r.src_node));
    digest.add(static_cast<std::uint64_t>(r.dst_node));
    digest.add(static_cast<std::uint64_t>(r.app_id));
    digest.add(static_cast<std::uint64_t>(r.hops));
    digest.add(r.nonminimal ? 1u : 0u);
    digest.add(static_cast<std::uint64_t>(r.wire_time));
    digest.add(static_cast<std::uint64_t>(r.eject_time));
    digest.add(static_cast<std::uint64_t>(r.bytes));
  }
  const LinkStats& links = study.network().link_stats();
  SimTime total_stall = 0;
  for (int link = 0; link < links.num_links(); ++link) {
    digest.add(static_cast<std::uint64_t>(links.bytes(link)));
    digest.add(links.packets(link));
    digest.add(static_cast<std::uint64_t>(links.stall(link)));
    total_stall += links.stall(link);
  }
  // Every pinned cell must actually stall, or it pins no stall/unpark order.
  EXPECT_GT(total_stall, 0);
  EXPECT_LE(max_hops, pinned.max_hops);
  return digest.value();
}

// Recorded with the router that kept one RingQueue per request, stall and
// input FIFO; any layout of router state must reproduce them exactly. A
// change that moves one of these changed the router's service order. The
// tiny-buffer cell runs every routing, so a change to one policy's decision
// rule (or to a helper they share) shows up as well.
//
// The hop bounds are the routings' closed forms, counting router-to-router
// hops (l = local, g = global):
// - MIN: l g l = 3, the minimal path between groups;
// - VALg, UGALg, Q-adp: l g, then l g l from the intermediate group's entry
//   router = 5 (Valiant to a group: at most one local hop inside it);
// - VALn, UGALn, PAR, FlowUGAL, AppAware: l g l to the intermediate router,
//   then l g l = 6 (Valiant to a router). PAR's later diversion inside the
//   source group leaves through that router's own global port, l g l g l,
//   so it stays within the same bound.
constexpr PinnedCell kPinned[] = {
    {Cell::kTinyBuffers, "PAR", 6, 0xcef9c9252d91a46eull},
    {Cell::kTinyBuffers, "Q-adp", 5, 0x52e1428928df1325ull},
    {Cell::kTinyBuffers, "MIN", 3, 0x3d37c493ed15032eull},
    {Cell::kTinyBuffers, "VALg", 5, 0x548d310ce1391fbull},
    {Cell::kTinyBuffers, "VALn", 6, 0x94f4a9507fc6d1bull},
    {Cell::kTinyBuffers, "UGALg", 5, 0x48907bc1823cdec6ull},
    {Cell::kTinyBuffers, "UGALn", 6, 0x4278c5ff5fa4c41eull},
    {Cell::kTinyBuffers, "FlowUGAL", 6, 0xb29f038008af0369ull},
    {Cell::kTinyBuffers, "AppAware", 6, 0x226983572b083929ull},
    {Cell::kQos, "PAR", 6, 0x85704c3e41571b45ull},
    {Cell::kQos, "Q-adp", 5, 0x67714de9d27e4757ull},
    {Cell::kDegraded, "PAR", 6, 0xd33d0f993c040bf4ull},
    {Cell::kDegraded, "Q-adp", 5, 0x865193913a46623dull},
};

class ArbitrationOrder : public ::testing::TestWithParam<PinnedCell> {};

TEST_P(ArbitrationOrder, PacketRecordsMatchPinnedDigest) {
  const PinnedCell& pinned = GetParam();
  const std::uint64_t got = run_and_digest(pinned);
  EXPECT_EQ(got, pinned.digest) << std::hex << "got 0x" << got;
}

std::string test_name(const ::testing::TestParamInfo<PinnedCell>& info) {
  std::string name = cell_name(info.param);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Pinned, ArbitrationOrder, ::testing::ValuesIn(kPinned), test_name);

}  // namespace
}  // namespace dfly
