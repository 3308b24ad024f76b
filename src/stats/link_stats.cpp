#include "stats/link_stats.hpp"

namespace dfly {

LinkStats::LinkStats(int num_links, int num_apps) { reset(num_links, num_apps); }

void LinkStats::reset(int num_links, int num_apps) {
  const auto links = static_cast<std::size_t>(num_links);
  num_apps_ = static_cast<std::size_t>(num_apps);
  counters_.assign(links, Counters{});
  by_app_.assign(links * num_apps_, 0);
  class_.assign(links, LinkClass::kTerminal);
  src_.assign(links, -1);
  dst_.assign(links, -1);
}

void LinkStats::set_link_info(int link, LinkClass cls, int src_router, int dst_router) {
  class_[static_cast<std::size_t>(link)] = cls;
  src_[static_cast<std::size_t>(link)] = src_router;
  dst_[static_cast<std::size_t>(link)] = dst_router;
}

SimTime LinkStats::total_stall(LinkClass cls) const {
  SimTime acc = 0;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (class_[i] == cls) acc += counters_[i].stall;
  }
  return acc;
}

std::int64_t LinkStats::total_bytes(LinkClass cls) const {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (class_[i] == cls) acc += counters_[i].bytes;
  }
  return acc;
}

}  // namespace dfly
