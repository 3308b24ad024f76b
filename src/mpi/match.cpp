#include "mpi/match.hpp"

namespace dfly::mpi {

std::uint32_t MatchList::on_arrival(int src_rank, int tag, std::int64_t bytes, SimTime now,
                                    std::uint64_t rdv_id) {
  std::uint32_t prev = kNil;
  for (std::uint32_t i = posted_.head; i != kNil; prev = i, i = posted_.slots[i].next) {
    const Posted& p = posted_.slots[i].item;
    if ((p.src_rank == kAnySource || p.src_rank == src_rank) && p.tag == tag) {
      const std::uint32_t request = p.request;
      posted_.erase_after(prev, i);
      return request;
    }
  }
  unexpected_.push_back(Unexpected{src_rank, tag, bytes, now, rdv_id});
  return kNoMatch;
}

std::optional<MatchList::Unexpected> MatchList::post_recv(int src_rank, int tag,
                                                          std::uint32_t request) {
  std::uint32_t prev = kNil;
  for (std::uint32_t i = unexpected_.head; i != kNil; prev = i, i = unexpected_.slots[i].next) {
    const Unexpected& u = unexpected_.slots[i].item;
    if ((src_rank == kAnySource || u.src_rank == src_rank) && u.tag == tag) {
      const Unexpected hit = u;
      unexpected_.erase_after(prev, i);
      return hit;
    }
  }
  posted_.push_back(Posted{src_rank, tag, request});
  return std::nullopt;
}

void MatchList::reset() {
  posted_.reset();
  unexpected_.reset();
}

}  // namespace dfly::mpi
