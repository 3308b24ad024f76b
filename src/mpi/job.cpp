#include "mpi/job.hpp"

#include <cassert>

#include "core/arena.hpp"

namespace dfly::mpi {

Job::Job(Engine& engine, Network& network, MpiSystem& system, int app_id, std::string name,
         const Motif& motif, std::vector<int> nodes, std::uint64_t seed, ProtocolConfig protocol,
         SimArena* arena)
    : engine_(&engine),
      network_(&network),
      system_(&system),
      arena_(arena),
      app_id_(app_id),
      name_(std::move(name)),
      motif_(&motif),
      nodes_(std::move(nodes)),
      protocol_(protocol) {
  const int n = static_cast<int>(nodes_.size());
  if (arena_ != nullptr) {
    JobStorage storage = arena_->take_job_storage();
    ranks_ = std::move(storage.ranks);
    tasks_ = std::move(storage.tasks);
    inflight_ = std::move(storage.inflight);
    rendezvous_ = std::move(storage.rendezvous);
    // A previous larger cell may have parked more ranks than this one needs;
    // the extras are destroyed (shrinks are rare — capacity tracks the
    // worker's high-water shape, not every cell).
    if (static_cast<int>(ranks_.size()) > n) ranks_.resize(static_cast<std::size_t>(n));
  }
  const int recycled = static_cast<int>(ranks_.size());
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    Rng rng(seed, (static_cast<std::uint64_t>(app_id) << 32) | static_cast<std::uint64_t>(r));
    if (r < recycled) {
      ranks_[static_cast<std::size_t>(r)]->reinit(*this, r, nodes_[static_cast<std::size_t>(r)],
                                                  rng);
    } else {
      ranks_.push_back(
          std::make_unique<RankCtx>(*this, r, nodes_[static_cast<std::size_t>(r)], rng));
    }
    if (arena_ != nullptr) arena_->count_rank(r < recycled);
  }
}

Job::~Job() {
  if (arena_ == nullptr) return;
  // Park the backing storage for the next cell. Coroutine frames are
  // destroyed first (tasks reference the ranks); the maps are cleared but
  // keep their tables, and the RankCtx objects keep every container's
  // capacity — reinit() restores fresh observable state on reuse.
  JobStorage storage;
  tasks_.clear();
  inflight_.clear();
  rendezvous_.clear();
  storage.ranks = std::move(ranks_);
  storage.tasks = std::move(tasks_);
  storage.inflight = std::move(inflight_);
  storage.rendezvous = std::move(rendezvous_);
  arena_->return_job_storage(std::move(storage));
}

Task Job::drive(RankCtx& ctx) {
  co_await motif_->run(ctx);
  rank_finished(ctx);
}

void Job::start() {
  assert(tasks_.empty() && "job already started");
  start_time_ = engine_->now();
  tasks_.reserve(ranks_.size());
  for (auto& rank : ranks_) tasks_.push_back(drive(*rank));
  for (auto& task : tasks_) task.start();
}

void Job::rank_finished(RankCtx& ctx) {
  ++finished_ranks_;
  if (ctx.now() > finish_time_) finish_time_ = ctx.now();
}

std::uint64_t Job::submit(int src_rank, int dst_rank, std::int64_t bytes, int tag,
                          ReqId send_req, MsgKind kind, std::uint64_t rdv_id) {
  const std::uint64_t msg_id =
      network_->send_message(node_of(src_rank), node_of(dst_rank), bytes, app_id_);
  inflight_.emplace(msg_id, MsgMeta{src_rank, dst_rank, tag, bytes, send_req, kind, rdv_id});
  system_->track(msg_id, *this);
  return msg_id;
}

void Job::post_send(int src_rank, int dst_rank, std::int64_t bytes, int tag, ReqId send_req) {
  if (send_observer_ != nullptr) {
    send_observer_->on_post_send(app_id_, ranks_[static_cast<std::size_t>(src_rank)]->now(),
                                 src_rank, dst_rank, bytes, tag);
  }
  if (bytes <= protocol_.eager_threshold) {
    submit(src_rank, dst_rank, bytes, tag, send_req, MsgKind::kEager, 0);
    return;
  }
  // Rendezvous: RTS travels to the receiver; the payload waits for the CTS.
  const std::uint64_t rdv_id = next_rdv_id_++;
  rendezvous_.emplace(rdv_id, RdvState{src_rank, dst_rank, tag, bytes, send_req});
  submit(src_rank, dst_rank, protocol_.control_bytes, tag, send_req, MsgKind::kRts, rdv_id);
}

void Job::rdv_matched(std::uint64_t rdv_id, int dst_rank, ReqId recv_req) {
  RdvState& state = rendezvous_.at(rdv_id);
  assert(!state.recv_known);
  state.recv_known = true;
  state.recv_req = recv_req;
  // Clear-to-send back to the data's source rank.
  submit(dst_rank, state.src_rank, protocol_.control_bytes, state.tag, 0, MsgKind::kCts, rdv_id);
}

void Job::rdv_sink(std::uint64_t rdv_id, int dst_rank) {
  RdvState& state = rendezvous_.at(rdv_id);
  assert(!state.recv_known);
  state.recv_known = true;
  state.recv_req = kSinkRecv;
  submit(dst_rank, state.src_rank, protocol_.control_bytes, state.tag, 0, MsgKind::kCts, rdv_id);
}

void Job::on_message_sent(std::uint64_t msg_id) {
  const MsgMeta* meta = inflight_.find(msg_id);
  assert(meta != nullptr);
  // The sender's request completes when its *payload* is fully on the wire:
  // immediately for eager, after the handshake for rendezvous.
  if (meta->kind == MsgKind::kEager || meta->kind == MsgKind::kRdvData) {
    ranks_[static_cast<std::size_t>(meta->src_rank)]->complete_request(meta->send_req);
  }
}

void Job::on_message_delivered(std::uint64_t msg_id) {
  const MsgMeta* it = inflight_.find(msg_id);
  assert(it != nullptr);
  const MsgMeta meta = *it;
  inflight_.erase(msg_id);
  switch (meta.kind) {
    case MsgKind::kEager:
      ranks_[static_cast<std::size_t>(meta.dst_rank)]->deliver_eager(meta.src_rank, meta.tag,
                                                                     meta.bytes);
      break;
    case MsgKind::kRts: {
      // Header arrived: match it against the receiver's posted receives.
      const RdvState& state = rendezvous_.at(meta.rdv_id);
      ranks_[static_cast<std::size_t>(meta.dst_rank)]->deliver_rts(meta.src_rank, meta.tag,
                                                                   state.bytes, meta.rdv_id);
      break;
    }
    case MsgKind::kCts: {
      // Receiver is ready: ship the payload.
      const RdvState& state = rendezvous_.at(meta.rdv_id);
      submit(state.src_rank, state.dst_rank, state.bytes, state.tag, state.send_req,
             MsgKind::kRdvData, meta.rdv_id);
      break;
    }
    case MsgKind::kRdvData: {
      const RdvState* rdv = rendezvous_.find(meta.rdv_id);
      assert(rdv != nullptr && rdv->recv_known);
      const ReqId recv_req = rdv->recv_req;
      const int dst_rank = rdv->dst_rank;
      rendezvous_.erase(meta.rdv_id);
      if (recv_req != kSinkRecv) {
        ranks_[static_cast<std::size_t>(dst_rank)]->complete_request(recv_req);
      }
      break;
    }
  }
}

Accumulator Job::comm_time_stats() const {
  Accumulator acc;
  for (const auto& rank : ranks_) acc.add(to_ms(rank->comm_time()));
  return acc;
}

std::int64_t Job::total_bytes_sent() const {
  std::int64_t total = 0;
  for (const auto& rank : ranks_) total += rank->bytes_sent();
  return total;
}

std::int64_t Job::total_messages_sent() const {
  std::int64_t total = 0;
  for (const auto& rank : ranks_) total += rank->messages_sent();
  return total;
}

std::int64_t Job::peak_ingress_bytes() const {
  std::int64_t peak = 0;
  for (const auto& rank : ranks_) {
    if (rank->peak_ingress_bytes() > peak) peak = rank->peak_ingress_bytes();
  }
  return peak;
}

double Job::injection_rate_gbs() const {
  const SimTime elapsed = execution_time();
  if (elapsed <= 0) return 0.0;
  // bytes / ns == GB/s
  return static_cast<double>(total_bytes_sent()) / to_ns(elapsed);
}

MpiSystem::MpiSystem(Network& network) { network.set_sink(*this); }

}  // namespace dfly::mpi
