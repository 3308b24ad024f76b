#include "stats/packet_log.hpp"

#include <cassert>

namespace dfly {

PacketLog::PacketLog(int num_apps, bool keep_records, SimTime bucket_width) {
  reset(num_apps, keep_records, bucket_width);
}

void PacketLog::reset(int num_apps, bool keep_records, SimTime bucket_width) {
  const auto apps = static_cast<std::size_t>(num_apps);
  keep_records_ = keep_records;
  bucket_width_ = bucket_width;
  per_app_lat_.resize(apps);
  for (Histogram& h : per_app_lat_) h.clear();
  per_app_bytes_.resize(apps);
  for (TimeSeries& t : per_app_bytes_) t.reset(bucket_width);
  per_app_count_.assign(apps, 0);
  per_app_nonmin_.assign(apps, 0);
  per_app_hops_.assign(apps, 0);
  records_.clear();
}

void PacketLog::record(const PacketRecord& record) {
  const auto app = static_cast<std::size_t>(record.app_id);
  per_app_lat_[app].add(record.eject_time - record.wire_time);
  per_app_bytes_[app].add(record.eject_time, static_cast<double>(record.bytes));
  per_app_count_[app]++;
  per_app_hops_[app] += static_cast<std::uint64_t>(record.hops);
  if (record.nonminimal) per_app_nonmin_[app]++;
  if (keep_records_) records_.push_back(record);
}

double PacketLog::system_latency_mean() const {
  // The same division Histogram::mean does on one histogram of every sample:
  // integer sums are exact in any order.
  std::int64_t sum = 0;
  std::size_t count = 0;
  for (const Histogram& h : per_app_lat_) {
    sum += h.sum();
    count += h.count();
  }
  return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
}

std::vector<std::int64_t> PacketLog::system_latency_percentiles(std::span<const double> qs) const {
  std::vector<std::int64_t> out(qs.size(), 0);
  struct Run {
    const std::int64_t* next;
    const std::int64_t* end;
  };
  std::vector<Run> runs;
  std::size_t count = 0;
  for (const Histogram& h : per_app_lat_) {
    if (h.empty()) continue;
    const std::vector<std::int64_t>& sorted = h.sorted_samples();
    runs.push_back({sorted.data(), sorted.data() + sorted.size()});
    count += sorted.size();
  }
  if (count == 0) return out;
  // Take samples in ascending order across the runs; the sample taken at
  // index Histogram::nearest_rank(q, count) is the system quantile.
  std::size_t taken = 0;
  std::int64_t value = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    assert(i == 0 || qs[i - 1] <= qs[i]);
    const std::size_t rank = Histogram::nearest_rank(qs[i], count);
    for (; taken <= rank; ++taken) {
      Run* lowest = nullptr;
      for (Run& run : runs) {
        if (run.next != run.end && (lowest == nullptr || *run.next < *lowest->next)) lowest = &run;
      }
      value = *lowest->next++;
    }
    out[i] = value;
  }
  return out;
}

TimeSeries PacketLog::system_delivered() const {
  TimeSeries out(bucket_width_);
  for (const TimeSeries& t : per_app_bytes_) out.merge_from(t);
  return out;
}

Histogram PacketLog::latency_between(int app_id, SimTime t0, SimTime t1) const {
  Histogram out;
  for (const auto& r : records_) {
    if (r.app_id == app_id && r.eject_time >= t0 && r.eject_time < t1) {
      out.add(r.eject_time - r.wire_time);
    }
  }
  return out;
}

double PacketLog::mean_hops(int app_id) const {
  const auto app = static_cast<std::size_t>(app_id);
  if (per_app_count_[app] == 0) return 0.0;
  return static_cast<double>(per_app_hops_[app]) / static_cast<double>(per_app_count_[app]);
}

}  // namespace dfly
