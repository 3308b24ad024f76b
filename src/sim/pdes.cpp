#include "sim/pdes.hpp"

#include <cassert>
#include <optional>
#include <thread>
#include <utility>

#include "core/arena.hpp"

namespace dfly {

PdesCell::PdesCell(Engine& primary, CellPartition partition, SimArena* arena)
    : partition_(std::move(partition)), arena_(arena) {
  assert(partition_.num_domains >= 1);
  domains_.resize(static_cast<std::size_t>(partition_.num_domains));
  domains_[0].engine = &primary;
  for (std::int32_t d = 1; d < partition_.num_domains; ++d) {
    extras_.push_back(arena_ != nullptr ? arena_->take_extra_engine() : Engine{});
    domains_[static_cast<std::size_t>(d)].engine = &extras_.back();
  }
  shards_.resize(static_cast<std::size_t>(partition_.num_domains - 1));
  stats_.num_domains = partition_.num_domains;
  stats_.lookahead = partition_.lookahead;
}

PdesCell::~PdesCell() {
  for (Domain& dom : domains_) {
    if (dom.engine != nullptr) dom.engine->detach_pdes();
  }
  while (!extras_.empty()) {
    if (arena_ != nullptr) arena_->return_extra_engine(std::move(extras_.back()));
    extras_.pop_back();
  }
}

void PdesCell::begin_setup() {
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    domains_[d].engine->attach_pdes(this, static_cast<std::int32_t>(d));
  }
  next_seq_ = domains_[0].engine->next_seq_;
  mode_ = Mode::kSetup;
}

void PdesCell::begin_run() {
  assert(mode_ == Mode::kSetup);
  mode_ = Mode::kRun;
}

void PdesCell::on_schedule(Engine& from, SimTime when, Component& target,
                           std::uint32_t kind, std::uint64_t a, std::uint64_t b) {
  if (mode_ == Mode::kSetup) {
    // Single-threaded build/start: deliver directly with a true seq — the
    // calls happen in the same order as sequentially, so the seqs match.
    engine(target.pdes_domain()).push_raw(when, next_seq_++, target, kind, a, b);
    return;
  }
  Domain& dom = domains_[static_cast<std::size_t>(from.pdes_domain_id_)];
  const bool same_domain = target.pdes_domain() == from.pdes_domain_id_;
  const bool immediate = same_domain && when <= dom.run_until;
  const std::uint64_t index = dom.log.size();
  dom.log.push_back(LogEntry{from.now_, from.cur_seq_, when, &target, kind, a, b, immediate});
  if (immediate) {
    // In-window same-domain event: execute it this window under a
    // provisional seq; the barrier merge assigns its true seq afterwards.
    from.push_raw(when, kProvisionalBase + index, target, kind, a, b);
  } else if (!same_domain) {
    ++dom.cross_events;
    assert(when > dom.run_until && "cross-domain event violates the lookahead window");
  }
}

void PdesCell::merge_window() {
  for (Domain& dom : domains_) {
    dom.true_of.assign(dom.log.size(), 0);
    dom.cursor = 0;
  }
  for (;;) {
    // Pick the front entry with the smallest (creator_when, resolved creator
    // seq) across domains. Fronts are resolvable by construction: a
    // provisional creator seq points at an earlier index in the same log,
    // already consumed (true_of set) before any of its children surface.
    int best = -1;
    SimTime best_when = 0;
    std::uint64_t best_seq = 0;
    for (std::size_t d = 0; d < domains_.size(); ++d) {
      Domain& dom = domains_[d];
      if (dom.cursor >= dom.log.size()) continue;
      const LogEntry& entry = dom.log[dom.cursor];
      const std::uint64_t creator =
          entry.creator_seq >= kProvisionalBase
              ? dom.true_of[static_cast<std::size_t>(entry.creator_seq - kProvisionalBase)]
              : entry.creator_seq;
      if (best < 0 || entry.creator_when < best_when ||
          (entry.creator_when == best_when && creator < best_seq)) {
        best = static_cast<int>(d);
        best_when = entry.creator_when;
        best_seq = creator;
      }
    }
    if (best < 0) break;
    Domain& dom = domains_[static_cast<std::size_t>(best)];
    const LogEntry& entry = dom.log[dom.cursor];
    const std::uint64_t seq = next_seq_++;
    dom.true_of[dom.cursor] = seq;
    ++dom.cursor;
    ++stats_.merged_events;
    if (!entry.immediate) {
      engine(entry.target->pdes_domain())
          .push_raw(entry.when, seq, *entry.target, entry.kind, entry.a, entry.b);
    }
  }
  for (Domain& dom : domains_) dom.log.clear();
}

void PdesCell::finish() {
  if (finished_) return;
  finished_ = true;
  Engine& primary = *domains_[0].engine;
  for (std::size_t d = 1; d < domains_.size(); ++d) {
    Engine& e = *domains_[d].engine;
    primary.executed_ += e.executed_;
    if (e.now_ > primary.now_) primary.now_ = e.now_;
    for (std::size_t k = 0; k < e.stats_.scheduled_by_kind.size(); ++k) {
      primary.stats_.scheduled_by_kind[k] += e.stats_.scheduled_by_kind[k];
      primary.stats_.executed_by_kind[k] += e.stats_.executed_by_kind[k];
    }
  }
  primary.next_seq_ = next_seq_;
  for (Domain& dom : domains_) {
    stats_.cross_domain_events += dom.cross_events;
    dom.cross_events = 0;
    dom.log.clear();
    dom.engine->detach_pdes();
  }
  mode_ = Mode::kIdle;
}

PdesRunner::PdesRunner(PdesCell& cell, SimTime time_limit)
    : cell_(cell), time_limit_(time_limit), sync_(cell.num_domains()) {}

void PdesRunner::run() {
  cell_.begin_run();
  // Propagate the primary engine's wall-clock watchdog so a hung domain is
  // caught no matter which thread it runs on.
  Engine& primary = cell_.engine(0);
  const std::int32_t domains = cell_.num_domains();
  if (primary.has_wall_deadline()) {
    for (std::int32_t d = 1; d < domains; ++d) {
      cell_.engine(d).set_wall_deadline(primary.wall_deadline_);
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(domains - 1));
  for (std::int32_t d = 1; d < domains; ++d) {
    threads.emplace_back([this, d] { worker(d); });
  }
  worker(0);
  for (std::thread& t : threads) t.join();
  for (std::int32_t d = 1; d < domains; ++d) cell_.engine(d).clear_wall_deadline();
  std::exception_ptr error;
  {
    const MutexLock lock(error_mutex_);
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

void PdesRunner::worker(std::int32_t domain) {
  Engine& engine = cell_.engine(domain);
  for (;;) {
    sync_.arrive_and_wait();
    if (domain == 0) plan_next();
    sync_.arrive_and_wait();
    if (done_) return;
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        engine.run(run_until_);
      } catch (...) {
        failed_.store(true, std::memory_order_relaxed);
        const MutexLock lock(error_mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }
}

void PdesRunner::plan_next() {
  if (failed_.load(std::memory_order_relaxed)) {
    // A domain died mid-window; its log may be mid-append, so skip the merge
    // and shut down. finish()/teardown clears the logs.
    done_ = true;
    return;
  }
  cell_.merge_window();
  SimTime next = 0;
  bool any = false;
  for (std::int32_t d = 0; d < cell_.num_domains(); ++d) {
    const std::optional<SimTime> front = cell_.engine(d).next_event_time();
    if (!front) continue;
    if (!any || *front < next) {
      next = *front;
      any = true;
    }
  }
  if (!any || next > time_limit_) {
    done_ = true;
    return;
  }
  ++cell_.stats_.windows;
  // Window [next, next + lookahead - 1]: every cross-domain event created in
  // it lands at >= creator now + lookahead > window end, so delivery can wait
  // for the barrier. Clamped to the time limit — run_until bounds the
  // provisional-execution rule too, so a truncated window never executes an
  // event whose true seq would be assigned after the limit was passed.
  SimTime until = next + cell_.partition().lookahead - 1;
  if (until > time_limit_) until = time_limit_;
  run_until_ = until;
  for (std::int32_t d = 0; d < cell_.num_domains(); ++d) {
    cell_.domains_[static_cast<std::size_t>(d)].run_until = until;
  }
  done_ = false;
}

}  // namespace dfly
