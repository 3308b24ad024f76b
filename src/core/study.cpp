#include "core/study.hpp"

#include <cassert>
#include <chrono>
#include <stdexcept>

#include "core/arena.hpp"
#include "core/parallel.hpp"
#include "workloads/factory.hpp"

namespace dfly {

namespace {

/// Resolve the cell's immutable plan: explicit blueprint (key-checked),
/// thread-bound shared cache, else a private build. The resulting blueprint
/// content is identical in every case, so the choice never affects output.
std::shared_ptr<const SystemBlueprint> resolve_blueprint(
    const StudyConfig& config, std::shared_ptr<const SystemBlueprint> explicit_bp) {
  if (explicit_bp != nullptr) {
    if (!(explicit_bp->key() == BlueprintKey::of(config))) {
      throw std::invalid_argument(
          "Study: the supplied SystemBlueprint was built for a different BlueprintKey "
          "(topology or net config)");
    }
    return explicit_bp;
  }
  if (BlueprintCache* cache = BlueprintCache::current()) {
    return cache->get_or_build(config);
  }
  return SystemBlueprint::build(config);
}

}  // namespace

Study::Study(StudyConfig config, SimArena* arena,
             std::shared_ptr<const SystemBlueprint> blueprint)
    : config_(std::move(config)),
      blueprint_(resolve_blueprint(config_, std::move(blueprint))),
      placer_(blueprint_->topo(), config_.placement, Rng(config_.seed, 0x9 /*placement stream*/)) {
  SimArena* candidate = arena != nullptr ? arena : SimArena::current();
  if (candidate != nullptr && candidate->try_acquire(this)) arena_ = candidate;
}

Study::~Study() {
  // Tear the cell down in dependency order before releasing the arena: jobs
  // and the MPI system reference the network; the jobs' and the network's
  // destructors hand their storage back to the arena.
  jobs_.clear();
  traces_.clear();
  mpi_system_.reset();
  network_.reset();
  routing_.reset();
  motifs_.clear();
  if (arena_ != nullptr) arena_->release(this);
}

int Study::add_app(const std::string& name, int max_nodes) {
  if (ran_) throw std::logic_error("Study: cannot add jobs after run()");
  const int budget = max_nodes > 0 ? max_nodes : placer_.free_nodes();
  workloads::AppInstance app = workloads::make_app(name, budget, config_.scale);
  return add_motif(std::move(app.motif), app.nodes, name);
}

int Study::add_motif(std::unique_ptr<mpi::Motif> motif, int nodes, const std::string& label) {
  if (ran_) throw std::logic_error("Study: cannot add jobs after run()");
  PendingJob pending;
  pending.motif = std::move(motif);
  pending.label = label;
  pending.nodes = placer_.allocate(nodes);
  pending_.push_back(std::move(pending));
  return static_cast<int>(pending_.size()) - 1;
}

void Study::set_traffic_class(int app_id, int traffic_class) {
  if (ran_) throw std::logic_error("Study: cannot assign classes after run()");
  if (app_id < 0 || app_id >= static_cast<int>(pending_.size())) {
    throw std::out_of_range("Study::set_traffic_class: unknown app id");
  }
  pending_[static_cast<std::size_t>(app_id)].traffic_class = traffic_class;
}

void Study::record_trace(int app_id) {
  if (ran_) throw std::logic_error("Study: cannot enable tracing after run()");
  if (app_id < 0 || app_id >= static_cast<int>(pending_.size())) {
    throw std::out_of_range("Study::record_trace: unknown app id");
  }
  pending_[static_cast<std::size_t>(app_id)].record_trace = true;
}

const trace::MessageTrace& Study::trace(int app_id) const {
  if (app_id < 0 || app_id >= static_cast<int>(traces_.size()) ||
      traces_[static_cast<std::size_t>(app_id)] == nullptr) {
    throw std::out_of_range("Study::trace: tracing was not enabled for this app");
  }
  return *traces_[static_cast<std::size_t>(app_id)];
}

void Study::build() {
  const int num_apps = static_cast<int>(pending_.size());
  // Routing and network read their immutable inputs (topology, net config)
  // out of the shared blueprint — the addresses are stable for the Study's
  // lifetime because blueprint_ is held above — and their per-cell
  // parameters (UGAL, Q-adp, faults) out of config_.
  routing::RoutingContext context{&engine_,     &blueprint_->topo(), &blueprint_->net(),
                                  config_.seed, config_.ugal,        config_.qadp};
  routing_ = routing::make_routing(config_.routing, context);
  network_ = std::make_unique<Network>(engine_, *blueprint_, *routing_, num_apps,
                                       config_.seed, config_.observability, arena_);
  if (!config_.faults.empty()) network_->apply_faults(config_.faults);
  mpi_system_ = std::make_unique<mpi::MpiSystem>(*network_);
  int app_id = 0;
  for (auto& pending : pending_) {
    motifs_.push_back(std::move(pending.motif));
    jobs_.push_back(std::make_unique<mpi::Job>(engine_, *network_, *mpi_system_, app_id,
                                               pending.label, *motifs_.back(),
                                               std::move(pending.nodes), config_.seed,
                                               config_.protocol, arena_));
    network_->set_app_class(app_id, pending.traffic_class);
    traces_.push_back(pending.record_trace ? std::make_unique<trace::MessageTrace>() : nullptr);
    if (traces_.back() != nullptr) jobs_.back()->set_send_observer(traces_.back().get());
    ++app_id;
  }
  pending_.clear();
}

Report Study::run() {
  if (ran_) throw std::logic_error("Study: run() called twice");
  if (pending_.empty()) throw std::logic_error("Study: no jobs added");
  ran_ = true;
  build();
  for (auto& job : jobs_) job->start();
  // Arm the cooperative watchdog for this run only: a WallDeadlineExceeded
  // propagates to the caller (run_plan records it as a cell timeout) and the
  // Study tears down normally — same mid-flight teardown path as a
  // time_limit-capped run.
  if (config_.wall_limit_s > 0) {
    engine_.set_wall_deadline(std::chrono::steady_clock::now() +
                              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(config_.wall_limit_s)));
  }
  engine_.run(config_.time_limit);
  engine_.clear_wall_deadline();
  return report();
}

}  // namespace dfly
