#pragma once

#include "net/congestion_control.hpp"
#include "net/qos.hpp"
#include "sim/time.hpp"

namespace dfly {

/// Network hardware parameters. Defaults reproduce the paper's §III setup:
/// 128B flits, 512B packets, 30-packet port buffers, 200 Gb/s links (after
/// Slingshot), 30 ns local / 300 ns global flit latency (1:10 ratio).
struct NetConfig {
  int flit_bytes{128};
  int packet_bytes{512};
  /// Input-buffer capacity per (port, VC), in packets; credit unit = packet.
  int buffer_packets{30};
  /// Virtual channels per port. VC index = hops taken, so this bounds the
  /// longest admissible path (worst case local-local-global-local-global-
  /// local plus slack for progressive re-routing).
  int num_vcs{8};
  double link_gbps{200.0};
  SimTime local_latency{30 * kNs};
  SimTime global_latency{300 * kNs};
  SimTime terminal_latency{30 * kNs};
  /// Fixed per-hop pipeline latency (route computation + crossbar).
  SimTime router_latency{100 * kNs};
  /// QoS traffic classes; num_classes == 1 keeps base FIFO arbitration.
  QosConfig qos{};
  /// End-to-end congestion control (ECN + AIMD source throttling).
  CongestionControlConfig cc{};

  SimTime packet_serialization() const { return serialization_ps(packet_bytes, link_gbps); }
  SimTime serialization(int bytes) const { return serialization_ps(bytes, link_gbps); }
  int flits_per_packet() const { return (packet_bytes + flit_bytes - 1) / flit_bytes; }

  /// Equality (part of the SystemBlueprint cache key).
  bool operator==(const NetConfig&) const = default;
};

/// Reject a NetConfig the router cannot run on routers of `radix` ports:
/// router events carry the port and VC in 8 bits each, and a router links
/// its radix * num_vcs input queues through int16 indices. Throws
/// std::invalid_argument naming the offending key. SystemBlueprint::build
/// runs it, so every entry point (CLI, plan, daemon, Study) hits it.
void validate_net_config(const NetConfig& cfg, int radix);

}  // namespace dfly
