#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/flat_map.hpp"
#include "mpi/rank.hpp"
#include "mpi/task.hpp"

/// Arena-parked backing storage for the MPI layer.
///
/// A Job's steady-state footprint — one RankCtx per rank (request slots,
/// match-list pools, iteration marks), the coroutine task handles, and the
/// protocol-engine tracking maps — used to be rebuilt from scratch every
/// cell. This bundle lets a SimArena carry that storage across cells the
/// same way it carries the router/NIC buffers: a Job built with an arena
/// takes a parked bundle, reinit()s the recycled RankCtx objects in place,
/// and hands everything back (cleared, capacity intact) on destruction. See core/arena.hpp for the lifecycle rules and
/// docs/ARCHITECTURE.md for the pooled-type checklist.
namespace dfly::mpi {

/// Wire-protocol message classes (Firefly-style eager/rendezvous split).
enum class MsgKind : std::uint8_t { kEager, kRts, kCts, kRdvData };

/// Per-message tracking entry: everything the protocol engine needs to route
/// a completion back to the right rank and request.
struct MsgMeta {
  std::int32_t src_rank;
  std::int32_t dst_rank;
  std::int32_t tag;
  std::int64_t bytes;
  ReqId send_req;        ///< sender request (eager / rdv data)
  MsgKind kind;
  std::uint64_t rdv_id;  ///< rendezvous handle (0 if eager)
};

/// State of one in-flight rendezvous handshake (RTS posted, payload pending).
struct RdvState {
  std::int32_t src_rank;
  std::int32_t dst_rank;
  std::int32_t tag;
  std::int64_t bytes;
  ReqId send_req;
  ReqId recv_req{0};
  bool recv_known{false};
};

/// Everything one Job allocates per cell, recycled as one unit. The RankCtx
/// objects keep their container storage between cells and are re-pointed
/// with reinit(); the maps come back cleared with their tables intact.
struct JobStorage {
  std::vector<std::unique_ptr<RankCtx>> ranks;
  std::vector<Task> tasks;
  FlatMap<MsgMeta> inflight;
  FlatMap<RdvState> rendezvous;
};

}  // namespace dfly::mpi
