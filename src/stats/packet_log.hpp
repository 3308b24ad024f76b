#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.hpp"
#include "stats/histogram.hpp"
#include "stats/timeseries.hpp"

namespace dfly {

/// Per-packet record, mirroring the paper's enhanced-Merlin IO module output
/// ("source, destination, sending, receiving time, and forwarding path").
/// The path is summarised as hop count + whether the route was non-minimal;
/// full hop traces are available at debug level via the logger.
struct PacketRecord {
  std::int32_t src_node{0};
  std::int32_t dst_node{0};
  std::int16_t app_id{0};
  std::int16_t hops{0};
  bool nonminimal{false};
  SimTime wire_time{0};   ///< first flit entered the source router
  SimTime eject_time{0};  ///< last flit delivered at the destination NIC
  std::int32_t bytes{0};
};

/// Collects packet lifecycle samples per application. System-wide statistics
/// are derived from the per-app stores on demand, so each delivered packet is
/// stored once. Recording full records is optional (benches that only need
/// distributions keep it off to save memory); latency histograms are always
/// maintained.
class PacketLog {
 public:
  /// An empty log; give it a shape with reset() before use.
  PacketLog() = default;
  explicit PacketLog(int num_apps, bool keep_records = false,
                     SimTime bucket_width = kMs / 10);

  /// Re-shape and empty every histogram/series/counter in place, keeping the
  /// sample-vector capacity (the arena reuse path, core/arena.hpp).
  void reset(int num_apps, bool keep_records = false, SimTime bucket_width = kMs / 10);

  void record(const PacketRecord& record);

  /// Latency = eject - wire (network time: source-router queueing onward).
  const Histogram& latency(int app_id) const { return per_app_lat_[static_cast<std::size_t>(app_id)]; }

  /// Mean latency over all apps' packets, from the per-app sums.
  double system_latency_mean() const;
  /// For each q of the ascending `qs`, the value Histogram::percentile(q)
  /// would give on the union of every app's latency samples, found by one
  /// merge walk over the per-app sorted samples (0 when nothing was delivered).
  std::vector<std::int64_t> system_latency_percentiles(std::span<const double> qs) const;

  /// Delivered payload bytes per time bucket (throughput series).
  const TimeSeries& delivered(int app_id) const { return per_app_bytes_[static_cast<std::size_t>(app_id)]; }
  /// The per-bucket sum of the app series. Buckets hold integer byte counts
  /// below 2^53, so the sum is exact in any order.
  TimeSeries system_delivered() const;

  /// Per-app latency histogram restricted to eject times inside [t0,t1).
  Histogram latency_between(int app_id, SimTime t0, SimTime t1) const;

  std::uint64_t delivered_packets(int app_id) const { return per_app_count_[static_cast<std::size_t>(app_id)]; }
  std::uint64_t nonminimal_packets(int app_id) const { return per_app_nonmin_[static_cast<std::size_t>(app_id)]; }
  double mean_hops(int app_id) const;

  bool keeps_records() const { return keep_records_; }
  const std::vector<PacketRecord>& records() const { return records_; }

  int num_apps() const { return static_cast<int>(per_app_lat_.size()); }

 private:
  bool keep_records_{false};
  SimTime bucket_width_{kMs / 10};
  std::vector<Histogram> per_app_lat_;
  std::vector<TimeSeries> per_app_bytes_;
  std::vector<std::uint64_t> per_app_count_;
  std::vector<std::uint64_t> per_app_nonmin_;
  std::vector<std::uint64_t> per_app_hops_;
  std::vector<PacketRecord> records_;
};

}  // namespace dfly
