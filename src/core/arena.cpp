#include "core/arena.hpp"

#include <utility>

namespace dfly {

namespace {

thread_local SimArena* t_current_arena = nullptr;

template <typename T>
void track_peak(std::size_t& peak, T value) {
  if (static_cast<std::size_t>(value) > peak) peak = static_cast<std::size_t>(value);
}

}  // namespace

SimArena* SimArena::current() { return t_current_arena; }

bool SimArena::try_acquire(const void* owner) {
  if (owner_ != nullptr || owner == nullptr) return false;
  owner_ = owner;
  ++stats_.cells;
  return true;
}

void SimArena::release(const void* owner) {
  if (owner_ == owner) owner_ = nullptr;
}

SimArena::NetStorage SimArena::take_net() {
  NetStorage storage = std::move(net_);
  net_ = NetStorage{};
  storage.pool.reset();  // hand out slot ids 0, 1, 2, ... like a fresh pool
  return storage;
}

void SimArena::return_net(NetStorage&& storage) {
  track_peak(stats_.pool_peak_packets, storage.pool.peak_in_use());
  track_peak(stats_.pool_capacity, storage.pool.capacity());
  storage.pool.reset();
  net_ = std::move(storage);
}

mpi::JobStorage SimArena::take_job_storage() {
  if (job_storage_.empty()) return {};
  mpi::JobStorage storage = std::move(job_storage_.front());
  job_storage_.pop_front();
  return storage;
}

void SimArena::return_job_storage(mpi::JobStorage&& storage) {
  track_peak(stats_.inflight_capacity, storage.inflight.capacity());
  for (const auto& rank : storage.ranks) {
    if (rank != nullptr) track_peak(stats_.match_capacity, rank->match_capacity());
  }
  job_storage_.push_back(std::move(storage));
}

void SimArena::shed() {
  if (in_use()) return;  // a live Study owns the storage; nothing to drop
  net_ = NetStorage{};
  job_storage_.clear();
  job_storage_.shrink_to_fit();
}

ScopedArenaBinding::ScopedArenaBinding(SimArena* arena) : previous_(t_current_arena) {
  if (arena != nullptr) t_current_arena = arena;
}

ScopedArenaBinding::~ScopedArenaBinding() { t_current_arena = previous_; }

}  // namespace dfly
