#include "net/config.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dfly {

void validate_net_config(const NetConfig& cfg, int radix) {
  const auto require = [](bool ok, const std::string& key, auto value, const char* rule) {
    if (!ok) {
      throw std::invalid_argument("NetConfig: " + key + " = " + std::to_string(value) + rule);
    }
  };
  require(cfg.num_vcs >= 1 && cfg.num_vcs <= 255, "net.num_vcs", cfg.num_vcs, " is outside 1..255");
  require(radix <= 255, "radix (topo.p + topo.a - 1 + topo.h)", radix, " exceeds 255");
  require(static_cast<std::int64_t>(radix) * cfg.num_vcs <= INT16_MAX, "net.num_vcs", cfg.num_vcs,
          " times the radix exceeds 32767 input queues per router");
  require(cfg.buffer_packets >= 1, "net.buffer_packets", cfg.buffer_packets, " must be >= 1");
  require(cfg.packet_bytes >= 1, "net.packet_bytes", cfg.packet_bytes, " must be >= 1");
  require(cfg.flit_bytes >= 1, "net.flit_bytes", cfg.flit_bytes, " must be >= 1");
  require(cfg.link_gbps > 0, "net.link_gbps", cfg.link_gbps, " must be > 0");
  require(cfg.local_latency >= 0, "net.local_latency_ns", cfg.local_latency, " ps must be >= 0");
  require(cfg.global_latency >= 0, "net.global_latency_ns", cfg.global_latency, " ps must be >= 0");
  require(cfg.terminal_latency >= 0, "net.terminal_latency", cfg.terminal_latency,
          " ps must be >= 0");
  require(cfg.router_latency >= 0, "net.router_latency_ns", cfg.router_latency, " ps must be >= 0");
}

}  // namespace dfly
