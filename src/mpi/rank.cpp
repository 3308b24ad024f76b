#include "mpi/rank.hpp"

#include <cassert>

#include "mpi/job.hpp"

namespace dfly::mpi {

namespace {
constexpr std::uint32_t kResume = 1;
}

RankCtx::RankCtx(Job& job, int rank, int node, Rng rng)
    : job_(&job), engine_(&job.network().engine()), rank_(rank), node_(node), rng_(rng) {}

void RankCtx::reinit(Job& job, int rank, int node, Rng rng) {
  job_ = &job;
  rank_ = rank;
  node_ = node;
  rng_ = rng;
  engine_ = &job.network().engine();
  match_.reset();
  slots_.clear();        // capacity kept: ids are handed out 0, 1, 2, ... again
  free_slots_.clear();
  pending_resume_ = {};
  comm_time_ = 0;
  bytes_sent_ = 0;
  messages_sent_ = 0;
  burst_ = 0;
  peak_burst_ = 0;
  coll_seq_ = 0;
  sink_mode_ = false;
  iteration_marks_.clear();
}

int RankCtx::size() const { return job_->size(); }
// The rank's own domain engine: in a parallel cell the job's primary engine
// may be mid-window on another domain's clock.
SimTime RankCtx::now() const { return engine_->now(); }

ReqId RankCtx::alloc_request() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    free_slots_.push_back(static_cast<ReqId>(slots_.size() - 1));
  }
  const ReqId id = free_slots_.back();
  free_slots_.pop_back();
  Request& r = slots_[id];
  r.in_use = true;
  r.complete = false;
  r.complete_time = 0;
  r.waiter = {};
  return id;
}

void RankCtx::release_request(ReqId id) {
  assert(slots_[id].in_use);
  slots_[id].in_use = false;
  free_slots_.push_back(id);
}

ReqId RankCtx::isend(int dst_rank, std::int64_t bytes, int tag) {
  assert(dst_rank >= 0 && dst_rank < size());
  const ReqId id = alloc_request();
  bytes_sent_ += bytes;
  ++messages_sent_;
  burst_ += bytes;
  if (burst_ > peak_burst_) peak_burst_ = burst_;
  job_->post_send(rank_, dst_rank, bytes, tag, id);
  return id;
}

ReqId RankCtx::irecv(int src_rank, int tag) {
  const ReqId id = alloc_request();
  if (const auto hit = match_.post_recv(src_rank, tag, id)) {
    if (hit->rdv_id == 0) {
      // Eager payload already buffered here: the receive is complete.
      Request& r = slots_[id];
      r.complete = true;
      r.complete_time = hit->arrived;
    } else {
      // Unexpected RTS: clear the sender to transmit; the request will
      // complete when the payload lands.
      job_->rdv_matched(hit->rdv_id, rank_, id);
    }
  }
  return id;
}

void RankCtx::deliver_eager(int src_rank, int tag, std::int64_t bytes) {
  if (sink_mode_ && match_.posted_count() == 0) return;  // drop background traffic
  const std::uint32_t req = match_.on_arrival(src_rank, tag, bytes, now(), 0);
  if (req != MatchList::kNoMatch) complete_request(req);
}

void RankCtx::deliver_rts(int src_rank, int tag, std::int64_t bytes, std::uint64_t rdv_id) {
  if (sink_mode_ && match_.posted_count() == 0) {
    // Pure traffic sinks still clear rendezvous senders to transmit: the
    // payload crosses the network (that is the traffic being modelled) and
    // is dropped on delivery instead of completing a receive.
    job_->rdv_sink(rdv_id, rank_);
    return;
  }
  const std::uint32_t req = match_.on_arrival(src_rank, tag, bytes, now(), rdv_id);
  if (req != MatchList::kNoMatch) job_->rdv_matched(rdv_id, rank_, req);
}

void RankCtx::complete_request(ReqId id) {
  Request& r = slots_[id];
  assert(r.in_use && !r.complete);
  r.complete = true;
  r.complete_time = now();
  if (r.waiter) {
    const auto waiter = r.waiter;
    r.waiter = {};
    waiter.resume();
  }
}

void RankCtx::finish_wait(ReqId id, SimTime suspended_at) {
  if (suspended_at >= 0) comm_time_ += now() - suspended_at;
  release_request(id);
}

void RankCtx::note_block() {
  // A block (or compute) ends any ingress burst (§IV peak ingress volume).
  burst_ = 0;
}

void RankCtx::schedule_resume(std::coroutine_handle<> h, SimTime delay) {
  assert(!pending_resume_ && "one compute at a time per rank");
  pending_resume_ = h;
  engine_->schedule_in(delay, *this, kResume);
}

void RankCtx::handle(Engine&, const Event& event) {
  assert(event.kind == kResume);
  assert(pending_resume_);
  const auto h = pending_resume_;
  pending_resume_ = {};
  h.resume();
}

}  // namespace dfly::mpi
