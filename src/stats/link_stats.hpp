#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace dfly {

enum class LinkClass : std::uint8_t { kTerminal = 0, kLocal = 1, kGlobal = 2 };

/// Per-link counters: traffic volume (total and by app) and stall time.
///
/// Stall time follows the paper's Fig 11 metric: time an output port spent
/// blocked — it had a packet ready to forward but could not transmit because
/// the downstream buffer had no credits.
///
/// Thread-safety: none. The counters are plain (unsynchronised) fields: one
/// LinkStats per Network, one Network per simulation cell, one cell per
/// SubmissionQueue worker — never shared across threads.
class LinkStats {
 public:
  /// An empty stats block; give it a shape with reset() before use.
  LinkStats() = default;
  /// `num_links` output links, `num_apps` applications.
  LinkStats(int num_links, int num_apps);

  /// Re-shape and zero every counter in place. Vector capacity is kept, so a
  /// block recycled across same-shape cells (core/arena.hpp) re-initialises
  /// without heap traffic.
  void reset(int num_links, int num_apps);

  void set_link_info(int link, LinkClass cls, int src_router, int dst_router);

  void add_traffic(int link, int app_id, std::int64_t bytes) {
    Counters& counters = counters_[static_cast<std::size_t>(link)];
    counters.bytes += bytes;
    by_app_[static_cast<std::size_t>(link) * num_apps_ + static_cast<std::size_t>(app_id)] += bytes;
    counters.packets++;
  }

  void add_stall(int link, SimTime duration) {
    counters_[static_cast<std::size_t>(link)].stall += duration;
  }

  std::int64_t bytes(int link) const { return counters_[static_cast<std::size_t>(link)].bytes; }
  std::int64_t bytes_by_app(int link, int app_id) const {
    return by_app_[static_cast<std::size_t>(link) * num_apps_ + static_cast<std::size_t>(app_id)];
  }
  std::uint64_t packets(int link) const {
    return counters_[static_cast<std::size_t>(link)].packets;
  }
  SimTime stall(int link) const { return counters_[static_cast<std::size_t>(link)].stall; }

  LinkClass link_class(int link) const { return class_[static_cast<std::size_t>(link)]; }
  int src_router(int link) const { return src_[static_cast<std::size_t>(link)]; }
  int dst_router(int link) const { return dst_[static_cast<std::size_t>(link)]; }

  int num_links() const { return static_cast<int>(counters_.size()); }
  int num_apps() const { return static_cast<int>(num_apps_); }

  /// Aggregate stall over all links of one class (Fig 11 summary numbers).
  SimTime total_stall(LinkClass cls) const;
  /// Aggregate bytes over all links of one class.
  std::int64_t total_bytes(LinkClass cls) const;

 private:
  /// A transmit updates bytes and packets, and often stall: one record.
  struct Counters {
    std::int64_t bytes{0};
    std::uint64_t packets{0};
    SimTime stall{0};
  };

  std::size_t num_apps_{0};
  std::vector<Counters> counters_;
  std::vector<std::int64_t> by_app_;
  std::vector<LinkClass> class_;
  std::vector<int> src_, dst_;
};

}  // namespace dfly
