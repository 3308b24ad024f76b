#include "net/nic.hpp"

#include <cassert>

#include "core/blueprint.hpp"
#include "net/router.hpp"

namespace dfly {

Nic::Nic(Engine& engine, const SystemBlueprint& blueprint, int node,
         PacketPool& pool, LinkStats& stats, PacketLog& packet_log) {
  reinit(engine, blueprint, node, pool, stats, packet_log);
}

void Nic::reinit(Engine& engine, const SystemBlueprint& blueprint, int node,
                 PacketPool& pool, LinkStats& stats, PacketLog& packet_log) {
  const Dragonfly& topo = blueprint.topo();
  const NetConfig& cfg = blueprint.net();
  engine_ = &engine;
  topo_ = &topo;
  cfg_ = &cfg;
  node_ = node;
  pool_ = &pool;
  stats_ = &stats;
  packet_log_ = &packet_log;
  links_ = &blueprint.links();
  router_ = nullptr;
  sink_ = nullptr;
  classes_ = nullptr;
  directory_ = nullptr;
  sendq_.clear();
  queued_bytes_ = 0;
  inbound_.clear();
  credits_ = cfg.buffer_packets;
  busy_until_ = 0;
  try_pending_ = false;
  rate_ = 1.0;
  ecn_notices_ = 0;
  last_decrease_ = -1;
  recover_pending_ = false;
}

void Nic::attach(Router& router) { router_ = &router; }

void Nic::enqueue_message(std::uint64_t msg_id, int dst_node, std::int64_t bytes, int app_id) {
  assert(bytes >= 1);
  sendq_.push_back(Chunk{msg_id, dst_node, bytes, static_cast<std::int16_t>(app_id)});
  queued_bytes_ += bytes;
  if (!try_pending_) {
    try_pending_ = true;
    engine_->schedule_at(engine_->now() >= busy_until_ ? engine_->now() : busy_until_, *this,
                         nic_ev::kTryInject);
  }
}

void Nic::expect_message(std::uint64_t msg_id, std::int64_t bytes) {
  assert(bytes >= 1);
  inbound_.emplace(msg_id, bytes);
}

void Nic::handle(Engine& engine, const Event& event) {
  switch (event.kind) {
    case nic_ev::kArrive:
      on_eject(engine, static_cast<std::uint32_t>(event.a));
      break;
    case nic_ev::kTryInject:
      try_pending_ = false;
      try_inject(engine);
      break;
    case nic_ev::kCredit:
      ++credits_;
      assert(credits_ <= cfg_->buffer_packets);
      if (!sendq_.empty() && !try_pending_) {
        try_pending_ = true;
        engine.schedule_at(engine.now() >= busy_until_ ? engine.now() : busy_until_, *this,
                           nic_ev::kTryInject);
      }
      break;
    case nic_ev::kSendDone:
      if (sink_ != nullptr) sink_->message_sent(event.a);
      break;
    case nic_ev::kLocalDone:
      if (sink_ != nullptr) {
        sink_->message_sent(event.a);
        sink_->message_delivered(event.a);
      }
      break;
    case nic_ev::kEcnNotice:
      on_ecn_notice(engine);
      break;
    case nic_ev::kRateRecover:
      on_rate_recover(engine);
      break;
    default:
      assert(false && "unknown nic event");
  }
}

void Nic::on_ecn_notice(Engine& engine) {
  const CongestionControlConfig& cc = cfg_->cc;
  ++ecn_notices_;
  // Coalesce: one multiplicative decrease per reaction window, so a burst
  // of marks from a single congestion episode cuts the rate once.
  if (last_decrease_ >= 0 && engine.now() - last_decrease_ < cc.decrease_guard) return;
  last_decrease_ = engine.now();
  rate_ *= cc.md_factor;
  if (rate_ < cc.min_rate) rate_ = cc.min_rate;
  if (!recover_pending_) {
    recover_pending_ = true;
    engine.schedule_at(engine.now() + cc.ai_period, *this, nic_ev::kRateRecover);
  }
}

void Nic::on_rate_recover(Engine& engine) {
  const CongestionControlConfig& cc = cfg_->cc;
  recover_pending_ = false;
  rate_ += cc.ai_step;
  if (rate_ < 1.0) {
    recover_pending_ = true;
    engine.schedule_at(engine.now() + cc.ai_period, *this, nic_ev::kRateRecover);
  } else {
    rate_ = 1.0;
  }
}

void Nic::try_inject(Engine& engine) {
  if (sendq_.empty()) return;
  if (engine.now() < busy_until_) {
    if (!try_pending_) {
      try_pending_ = true;
      engine.schedule_at(busy_until_, *this, nic_ev::kTryInject);
    }
    return;
  }
  if (credits_ == 0) return;  // kCredit re-arms us

  Chunk& chunk = sendq_.front();
  const auto payload =
      static_cast<std::int32_t>(chunk.remaining < cfg_->packet_bytes ? chunk.remaining
                                                                     : cfg_->packet_bytes);
  Packet& pkt = pool_->alloc();  // a default Packet: kAtSource, VC 0
  pkt.msg_id = chunk.msg_id;
  pkt.src_node = node_;
  pkt.dst_node = chunk.dst_node;
  pkt.bytes = payload;
  pkt.app_id = chunk.app_id;
  pkt.traffic_class = classes_ == nullptr ? 0 : classes_->klass(chunk.app_id);
  pkt.wire_time = engine.now();

  --credits_;
  const SimTime ser = cfg_->serialization(payload);
  // AIMD pacing: a throttled source occupies its injection wire 1/rate
  // longer per packet, i.e. injects at rate x link speed.
  busy_until_ = engine.now() + (rate_ >= 1.0 ? ser : static_cast<SimTime>(
                                                         static_cast<double>(ser) / rate_));
  stats_->add_traffic(links_->nic_out(node_), pkt.app_id, payload);

  const int in_port = topo_->terminal_port_of_node(node_);
  engine.schedule_at(busy_until_ + cfg_->terminal_latency + cfg_->router_latency, *router_,
                     router_ev::kArrive, pkt.id, static_cast<std::uint64_t>(in_port));

  chunk.remaining -= payload;
  queued_bytes_ -= payload;
  if (chunk.remaining == 0) {
    engine.schedule_at(busy_until_, *this, nic_ev::kSendDone, chunk.msg_id);
    sendq_.pop_front();
  }
  if (!sendq_.empty() && !try_pending_) {
    try_pending_ = true;
    engine.schedule_at(busy_until_, *this, nic_ev::kTryInject);
  }
}

void Nic::on_eject(Engine& engine, std::uint32_t packet_id) {
  Packet& pkt = pool_->get(packet_id);
  assert(pkt.dst_node == node_);

  // Reflect ECN marks to the source as a congestion notification. The
  // return path is modelled contention-free (control-plane bandwidth) at
  // the unloaded one-way latency of a three-hop Dragonfly path.
  if (pkt.ecn && cfg_->cc.enabled && directory_ != nullptr && pkt.src_node != node_) {
    const SimTime return_delay =
        cfg_->global_latency + 2 * cfg_->local_latency + cfg_->terminal_latency;
    engine.schedule_at(engine.now() + return_delay, directory_->nic_at(pkt.src_node),
                       nic_ev::kEcnNotice);
  }

  PacketRecord record;
  record.src_node = pkt.src_node;
  record.dst_node = pkt.dst_node;
  record.app_id = pkt.app_id;
  record.hops = static_cast<std::int16_t>(pkt.hops);
  record.nonminimal = pkt.nonminimal;
  record.wire_time = pkt.wire_time;
  record.eject_time = engine.now();
  record.bytes = pkt.bytes;
  packet_log_->record(record);

  // Return the router's terminal-port buffer slot.
  engine.schedule_at(engine.now() + cfg_->terminal_latency, *router_, router_ev::kCredit,
                     static_cast<std::uint64_t>(topo_->terminal_port_of_node(node_)),
                     static_cast<std::uint64_t>(pkt.out_vc));

  const std::uint64_t msg_id = pkt.msg_id;
  std::int64_t* remaining = inbound_.find(msg_id);
  assert(remaining != nullptr && "packet for unknown message");
  *remaining -= pkt.bytes;
  assert(*remaining >= 0);
  const bool complete = *remaining == 0;
  if (complete) inbound_.erase(msg_id);
  pool_->release(pkt);
  if (complete && sink_ != nullptr) sink_->message_delivered(msg_id);
}

}  // namespace dfly
