#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpi/rank.hpp"
#include "mpi/storage.hpp"
#include "mpi/task.hpp"
#include "net/network.hpp"
#include "stats/histogram.hpp"

namespace dfly {
class SimArena;
}

namespace dfly::mpi {

/// A communication motif: the per-rank program of one application.
/// Implementations live in src/workloads; `run` is a coroutine that issues
/// MPI operations through the RankCtx.
class Motif {
 public:
  virtual ~Motif() = default;
  virtual std::string name() const = 0;
  virtual Task run(RankCtx& ctx) const = 0;
};

/// Messaging-protocol parameters (Firefly-style eager/rendezvous split).
struct ProtocolConfig {
  /// Messages of at most this many bytes go eagerly (buffered at the
  /// receiver); larger ones run the RTS/CTS rendezvous handshake, so the
  /// payload only moves once the receive is posted.
  std::int64_t eager_threshold{32 * 1024};
  /// Size of RTS/CTS control messages on the wire.
  std::int64_t control_bytes{8};

  /// Equality (config round-trip tests).
  bool operator==(const ProtocolConfig&) const = default;
};

class MpiSystem;

/// Observer of application-level message posts (one call per MPI-level send,
/// before protocol splitting into eager/rendezvous control traffic). The
/// trace subsystem records through this hook.
class SendObserver {
 public:
  virtual ~SendObserver() = default;
  virtual void on_post_send(int app_id, SimTime when, int src_rank, int dst_rank,
                            std::int64_t bytes, int tag) = 0;
};

/// One running application: a set of ranks mapped 1:1 onto compute nodes,
/// all executing the same motif (SPMD).
///
/// The Job is also the messaging-protocol engine for its ranks: post_send
/// decides eager vs rendezvous (ProtocolConfig::eager_threshold), drives the
/// RTS/CTS handshake, and routes message completions back to the right
/// rank's request. In-flight messages and handshakes are tracked in FlatMaps
/// (one insert + one erase per message, allocation-free once the tables have
/// grown to the cell's peak).
///
/// Pass a SimArena to recycle the Job's backing storage across cells: the
/// RankCtx objects, the coroutine task handles and the tracking maps are
/// taken from the arena's parked JobStorage bundles, reinit()-ed in place,
/// and handed back (cleared, capacity intact) on destruction. Recycling is
/// observable-state-neutral — a recycled Job runs bit-identically to a fresh
/// one (see docs/ARCHITECTURE.md).
class Job {
 public:
  Job(Engine& engine, Network& network, MpiSystem& system, int app_id, std::string name,
      const Motif& motif, std::vector<int> nodes, std::uint64_t seed,
      ProtocolConfig protocol = {}, SimArena* arena = nullptr);
  ~Job();

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Launch every rank's coroutine (runs until first suspension).
  void start();

  bool done() const { return finished_ranks_ == static_cast<int>(ranks_.size()); }
  SimTime finish_time() const { return finish_time_; }
  SimTime start_time() const { return start_time_; }

  int app_id() const { return app_id_; }
  const std::string& name() const { return name_; }
  int size() const { return static_cast<int>(ranks_.size()); }
  int node_of(int rank) const { return nodes_[static_cast<std::size_t>(rank)]; }
  RankCtx& rank(int r) { return *ranks_[static_cast<std::size_t>(r)]; }
  const RankCtx& rank(int r) const { return *ranks_[static_cast<std::size_t>(r)]; }
  Network& network() { return *network_; }
  Engine& engine() { return *engine_; }
  const ProtocolConfig& protocol() const { return protocol_; }

  // --- metrics over all ranks (valid once done) -----------------------------
  /// Mean/σ/min/max of per-rank communication time (ms).
  Accumulator comm_time_stats() const;
  std::int64_t total_bytes_sent() const;
  std::int64_t total_messages_sent() const;
  /// Largest single-rank ingress burst (the application's peak ingress
  /// volume, §IV).
  std::int64_t peak_ingress_bytes() const;
  /// Execution time (job start to last rank finish).
  SimTime execution_time() const { return finish_time_ - start_time_; }
  /// Aggregate injection rate in GB/s (total bytes / execution time).
  double injection_rate_gbs() const;

  // --- protocol engine (used by RankCtx) -------------------------------------
  /// Start an application-level send; returns immediately (the request
  /// completes via eager injection or the rendezvous handshake).
  void post_send(int src_rank, int dst_rank, std::int64_t bytes, int tag, ReqId send_req);
  /// A posted receive matched an unexpected rendezvous RTS: clear the
  /// sender to transmit.
  void rdv_matched(std::uint64_t rdv_id, int dst_rank, ReqId recv_req);
  /// Sink-mode acceptance of an RTS: clear the sender, drop the payload on
  /// delivery without completing any receive request.
  void rdv_sink(std::uint64_t rdv_id, int dst_rank);

  void on_message_sent(std::uint64_t msg_id);
  void on_message_delivered(std::uint64_t msg_id);
  void rank_finished(RankCtx& ctx);

  /// Attach an application-level send observer (null to detach).
  void set_send_observer(SendObserver* observer) { send_observer_ = observer; }

 private:
  /// Sentinel receive-request id for sink-accepted rendezvous (rdv_sink).
  static constexpr ReqId kSinkRecv = 0xffffffffu;

  Task drive(RankCtx& ctx);
  std::uint64_t submit(int src_rank, int dst_rank, std::int64_t bytes, int tag, ReqId send_req,
                       MsgKind kind, std::uint64_t rdv_id);

  Engine* engine_;
  Network* network_;
  MpiSystem* system_;
  SimArena* arena_;
  int app_id_;
  std::string name_;
  const Motif* motif_;
  std::vector<int> nodes_;
  ProtocolConfig protocol_;
  std::vector<std::unique_ptr<RankCtx>> ranks_;
  std::vector<Task> tasks_;
  FlatMap<MsgMeta> inflight_;
  FlatMap<RdvState> rendezvous_;
  std::uint64_t next_rdv_id_{1};
  SendObserver* send_observer_{nullptr};
  int finished_ranks_{0};
  SimTime start_time_{0};
  SimTime finish_time_{0};
};

/// Routes network message events to the owning job (several jobs share one
/// network; message ids are globally unique).
class MpiSystem final : public MessageEvents {
 public:
  explicit MpiSystem(Network& network);

  MpiSystem(const MpiSystem&) = delete;
  MpiSystem& operator=(const MpiSystem&) = delete;

  void track(std::uint64_t msg_id, Job& job) { owners_.emplace(msg_id, &job); }

  void message_sent(std::uint64_t msg_id) override { owners_.at(msg_id)->on_message_sent(msg_id); }
  void message_delivered(std::uint64_t msg_id) override {
    Job* job = owners_.at(msg_id);
    owners_.erase(msg_id);
    job->on_message_delivered(msg_id);
  }

 private:
  FlatMap<Job*> owners_;
};

}  // namespace dfly::mpi
