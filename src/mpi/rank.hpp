#pragma once

#include <coroutine>
#include <cstdint>
#include <span>
#include <vector>

#include "mpi/match.hpp"
#include "mpi/task.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dfly::mpi {

class Job;

using ReqId = std::uint32_t;

/// Completion state of one outstanding non-blocking operation.
struct Request {
  bool in_use{false};
  bool complete{false};
  SimTime complete_time{0};
  std::coroutine_handle<> waiter{};
};

/// The simulated-MPI execution context of one rank (our Firefly stand-in).
///
/// Motifs drive it from a coroutine: non-blocking isend/irecv return request
/// ids, `co_await ctx.wait(r)` blocks the rank until completion, and
/// `co_await ctx.compute(ns)` models computation. Collectives (barrier,
/// allreduce tree, alltoall ring) are built on these primitives exactly as
/// SST/Firefly builds them, so their network footprint is faithful.
///
/// Accounting: time spent suspended in MPI awaits accumulates as the rank's
/// *communication time* (the paper's Fig 4/8/10 metric); consecutive sends
/// posted without an intervening block form an *ingress burst* whose maximum
/// is the rank's peak ingress volume (§IV metric 2).
///
/// Allocation discipline: the request-slot pool, the match-list pools and
/// the iteration-mark vector all keep their high-water storage, and the
/// span-based collective entry points borrow the caller's buffers instead of
/// copying them — so a rank in steady state issues MPI traffic without
/// touching the heap. A RankCtx recycled from a SimArena (via reinit()) is
/// observably identical to a fresh one: request ids are handed out 0, 1,
/// 2, ... again and every counter restarts at zero, only the container
/// capacity carries over (see docs/ARCHITECTURE.md).
class RankCtx final : public Component {
 public:
  RankCtx(Job& job, int rank, int node, Rng rng);

  /// Re-point and re-zero every piece of per-cell state so a RankCtx
  /// recycled from a per-worker arena behaves exactly like a freshly
  /// constructed one while keeping its container storage (request slots,
  /// match-list pools, iteration-mark capacity). The constructor funnels
  /// through this; Job calls it when rebuilding from a parked JobStorage.
  void reinit(Job& job, int rank, int node, Rng rng);

  int rank() const { return rank_; }
  int size() const;
  int node() const { return node_; }
  SimTime now() const;
  Rng& rng() { return rng_; }

  // --- non-blocking primitives ---------------------------------------------
  /// Post a send of `bytes` to `dst_rank`. Whether it goes eagerly or via
  /// the RTS/CTS rendezvous handshake is the Job's protocol decision
  /// (ProtocolConfig::eager_threshold); either way the returned request
  /// completes when the payload is fully on the wire.
  ReqId isend(int dst_rank, std::int64_t bytes, int tag);
  /// Post a receive for (src_rank, tag); kAnySource matches any sender. An
  /// already-buffered eager message completes the request immediately; an
  /// unexpected rendezvous RTS triggers the clear-to-send instead, and the
  /// request completes when the payload lands.
  ReqId irecv(int src_rank, int tag);

  // --- awaitables ------------------------------------------------------------
  struct [[nodiscard]] WaitAwaiter {
    RankCtx* ctx;
    ReqId id;
    SimTime suspended_at{-1};
    bool await_ready() const { return ctx->request(id).complete; }
    void await_suspend(std::coroutine_handle<> h) {
      suspended_at = ctx->now();
      ctx->note_block();
      ctx->request(id).waiter = h;
    }
    void await_resume() { ctx->finish_wait(id, suspended_at); }
  };
  WaitAwaiter wait(ReqId id) { return WaitAwaiter{this, id}; }

  struct [[nodiscard]] ComputeAwaiter {
    RankCtx* ctx;
    SimTime duration;
    bool await_ready() const { return duration <= 0; }
    void await_suspend(std::coroutine_handle<> h) {
      ctx->note_block();
      ctx->schedule_resume(h, duration);
    }
    void await_resume() {}
  };
  /// Model `duration` of computation (does not count as communication time).
  ComputeAwaiter compute(SimTime duration) { return ComputeAwaiter{this, duration}; }

  // --- composite operations (collectives.cpp) -------------------------------
  Task send(int dst_rank, std::int64_t bytes, int tag);  ///< isend + wait
  Task recv(int src_rank, int tag);                      ///< irecv + wait
  /// Wait for every request in `ids`. Borrows the caller's buffer: the span
  /// must stay valid until the await completes (a coroutine-frame local —
  /// the only call pattern in this codebase — always is). The ids are NOT
  /// consumed from the caller's container; reuse a window buffer by
  /// clear()ing it after the await.
  Task wait_all(std::span<const ReqId> ids);
  Task barrier();
  /// Binary-tree reduce + broadcast, `bytes` per edge (SST Allreduce).
  Task allreduce(std::int64_t bytes);
  /// Multi-step ring exchange over `members` (job-rank ids), `bytes` per
  /// pair (SST Alltoall): round i sends to member me+i, receives from me-i.
  /// Borrows `members` for the duration of the await (same rule as
  /// wait_all) — a motif can build the member list once and reuse it every
  /// iteration without per-call copies.
  Task alltoall(std::int64_t bytes, std::span<const int> members);

  /// Timestamp an application-defined iteration boundary.
  void mark_iteration() { iteration_marks_.push_back(now()); }

  /// Background-traffic mode: inbound eager messages that match no posted
  /// receive are dropped instead of parked (pure traffic generators like UR
  /// never consume what they receive; this bounds memory).
  void set_sink_mode(bool on) { sink_mode_ = on; }
  bool sink_mode() const { return sink_mode_; }

  /// Allocate a fresh collective tag. Ranks of one job allocate tags in
  /// lockstep (SPMD: every rank runs the same collective sequence), so the
  /// i-th collective gets the same tag on every rank. Used by the extended
  /// collective algorithms in mpi/coll.hpp.
  int alloc_coll_tag() { return next_coll_tag(); }

  // --- accounting ------------------------------------------------------------
  SimTime comm_time() const { return comm_time_; }
  std::int64_t bytes_sent() const { return bytes_sent_; }
  std::int64_t messages_sent() const { return messages_sent_; }
  std::int64_t peak_ingress_bytes() const { return peak_burst_; }
  const std::vector<SimTime>& iteration_marks() const { return iteration_marks_; }
  /// Carried match-list slot capacity (arena bookkeeping / test hook).
  std::size_t match_capacity() const { return match_.capacity(); }

  void handle(Engine& engine, const Event& event) override;

  // --- Job-side entry points -------------------------------------------------
  /// A complete eager message arrived for this rank.
  void deliver_eager(int src_rank, int tag, std::int64_t bytes);
  /// A rendezvous RTS header arrived for this rank.
  void deliver_rts(int src_rank, int tag, std::int64_t bytes, std::uint64_t rdv_id);
  void complete_request(ReqId id);
  Request& request(ReqId id) { return slots_[id]; }

 private:
  friend class Job;

  ReqId alloc_request();
  void release_request(ReqId id);
  void finish_wait(ReqId id, SimTime suspended_at);
  void note_block();
  void schedule_resume(std::coroutine_handle<> h, SimTime delay);
  int next_coll_tag() { return kCollTagBase + coll_seq_++; }

  static constexpr int kCollTagBase = 1 << 20;

  Job* job_;
  Engine* engine_{nullptr};  ///< the cell engine (the network's)
  int rank_;
  int node_;
  Rng rng_;
  MatchList match_;
  // Request slots are a plain vector (id == index): nothing holds a
  // Request& across a point where alloc_request could grow the vector, and
  // the capacity carries across reinit() so steady-state traffic allocates
  // nothing here.
  std::vector<Request> slots_;
  std::vector<ReqId> free_slots_;
  std::coroutine_handle<> pending_resume_{};

  SimTime comm_time_{0};
  std::int64_t bytes_sent_{0};
  std::int64_t messages_sent_{0};
  std::int64_t burst_{0};
  std::int64_t peak_burst_{0};
  int coll_seq_{0};
  bool sink_mode_{false};
  std::vector<SimTime> iteration_marks_;
};

}  // namespace dfly::mpi
