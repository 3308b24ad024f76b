#include "core/plan.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/arena.hpp"
#include "core/json_report.hpp"
#include "core/mixed.hpp"
#include "core/pairwise.hpp"
#include "routing/factory.hpp"
#include "workloads/factory.hpp"

namespace dfly {

namespace {

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

void check_app(const std::string& context, const std::string& name) {
  if (!contains(workloads::app_names(), name)) {
    throw std::invalid_argument("ExperimentPlan: " + context + " names unknown application '" +
                                name + "'");
  }
}

void check_routing(const std::string& context, const std::string& name) {
  if (!contains(routing::all_routings(), name)) {
    throw std::invalid_argument("ExperimentPlan: " + context + " names unknown routing '" +
                                name + "'");
  }
}

/// CSV fields are plain identifiers/numbers today; quote defensively anyway
/// so a future label with a comma cannot corrupt the table.
std::string csv_field(const std::string& raw) {
  if (raw.find_first_of(",\"\n") == std::string::npos) return raw;
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_double(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

}  // namespace

const char* to_string(PlanMode mode) {
  switch (mode) {
    case PlanMode::kSingle: return "single";
    case PlanMode::kPairwise: return "pairwise";
    case PlanMode::kMixed: return "mixed";
    case PlanMode::kCustom: return "custom";
  }
  return "?";
}

PlanMode plan_mode_from_string(const std::string& name) {
  if (name == "single") return PlanMode::kSingle;
  if (name == "pairwise") return PlanMode::kPairwise;
  if (name == "mixed") return PlanMode::kMixed;
  throw std::invalid_argument("unknown plan mode: '" + name +
                              "' (expected single, pairwise or mixed)");
}

const char* to_string(PlanCellKind kind) {
  switch (kind) {
    case PlanCellKind::kSingle: return "single";
    case PlanCellKind::kPairwise: return "pairwise";
    case PlanCellKind::kMixed: return "mixed";
    case PlanCellKind::kMixedSolo: return "mixed_solo";
    case PlanCellKind::kCustom: return "custom";
  }
  return "?";
}

void PlanSink::begin(const ExperimentPlan&, const std::vector<PlanCell>&) {}
void PlanSink::cell_failed(const PlanCell&, const CellFailure&) {}
void PlanSink::end() {}

// --- cell identity -----------------------------------------------------------

namespace {

/// Field-by-field FNV-1a (never over raw struct bytes: no padding, stable
/// across platforms and processes).
class CellHasher {
 public:
  explicit CellHasher(std::uint64_t basis = 14695981039346656037ull) : h_(basis) {}

  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      step(static_cast<unsigned char>(v & 0xff));
      v >>= 8;
    }
  }
  /// Signed integers, enums and bools, sign-extended to 64 bits.
  void mix_int(std::int64_t v) { mix_u64(static_cast<std::uint64_t>(v)); }
  void mix_double(double v) {
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix_u64(bits);
  }
  void mix_string(const std::string& s) {
    mix_u64(s.size());
    for (const char c : s) step(static_cast<unsigned char>(c));
  }
  /// mix_string, but each character mixed as 8 bytes (config_hash's form).
  void mix_wide_string(const std::string& s) {
    mix_u64(s.size());
    for (const char c : s) mix_u64(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void step(unsigned char byte) {
    h_ ^= byte;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_;
};

/// First stage of plan_cell_hash: the config fields that describe the
/// system and its routing (plan_cell_hash mixes seed, scale and limits
/// itself; observability is left out). Journals and spools store the
/// result, so the field order and two quirks of this stage are frozen:
/// the offset basis is 1469598103934665603, one digit short of FNV-1a's,
/// and each string character is mixed as 8 bytes (mix_wide_string).
std::uint64_t config_hash(const StudyConfig& config) {
  CellHasher h(1469598103934665603ull);
  const DragonflyParams& topo = config.topo;
  h.mix_int(topo.p);
  h.mix_int(topo.a);
  h.mix_int(topo.h);
  h.mix_int(topo.g);
  h.mix_int(static_cast<int>(topo.arrangement));
  const NetConfig& net = config.net;
  h.mix_int(net.flit_bytes);
  h.mix_int(net.packet_bytes);
  h.mix_int(net.buffer_packets);
  h.mix_int(net.num_vcs);
  h.mix_double(net.link_gbps);
  h.mix_int(net.local_latency);
  h.mix_int(net.global_latency);
  h.mix_int(net.terminal_latency);
  h.mix_int(net.router_latency);
  h.mix_int(net.qos.num_classes);
  h.mix_u64(net.qos.weights.size());
  for (const int w : net.qos.weights) h.mix_int(w);
  h.mix_int(net.qos.quantum_packets);
  h.mix_int(net.cc.enabled);
  h.mix_int(net.cc.ecn_threshold_packets);
  h.mix_double(net.cc.md_factor);
  h.mix_double(net.cc.ai_step);
  h.mix_int(net.cc.ai_period);
  h.mix_double(net.cc.min_rate);
  h.mix_int(net.cc.decrease_guard);
  h.mix_wide_string(config.routing);
  h.mix_int(static_cast<int>(config.placement));
  h.mix_int(config.protocol.eager_threshold);
  h.mix_int(config.protocol.control_bytes);
  h.mix_int(config.ugal.min_candidates);
  h.mix_int(config.ugal.nonmin_candidates);
  h.mix_int(config.ugal.nonmin_weight);
  h.mix_int(config.ugal.bias);
  h.mix_double(config.qadp.alpha);
  h.mix_double(config.qadp.epsilon);
  h.mix_double(config.qadp.queue_weight);
  h.mix_u64(config.faults.size());
  for (const LinkFault& f : config.faults.faults()) {
    h.mix_int(f.router);
    h.mix_int(f.port);
    h.mix_int(f.slowdown);
    h.mix_int(f.extra_latency);
  }
  return h.value();
}

}  // namespace

std::uint64_t plan_cell_hash(const PlanCell& cell) {
  CellHasher h;
  h.mix_u64(config_hash(cell.config));
  h.mix_u64(cell.config.seed);
  h.mix_u64(static_cast<std::uint64_t>(cell.config.scale));
  h.mix_u64(static_cast<std::uint64_t>(cell.config.time_limit));
  h.mix_double(cell.config.wall_limit_s);
  h.mix_u64(static_cast<std::uint64_t>(cell.kind));
  h.mix_string(cell.variant);
  h.mix_string(cell.target);
  h.mix_string(cell.background);
  h.mix_u64(cell.jobs.size());
  for (const PlanJob& job : cell.jobs) {
    h.mix_string(job.app);
    h.mix_u64(static_cast<std::uint64_t>(job.nodes));
  }
  h.mix_u64(cell.index);
  return h.value();
}

// --- expansion ---------------------------------------------------------------

void ExperimentPlan::validate() const {
  for (const int scale : scales) {
    if (scale < 1) {
      throw std::invalid_argument("ExperimentPlan: scales must be >= 1, got " +
                                  std::to_string(scale));
    }
  }
  if (cell_timeout_s < 0) {
    throw std::invalid_argument("ExperimentPlan: cell_timeout_s must be >= 0");
  }
  if (cell_retries < 0) {
    throw std::invalid_argument("ExperimentPlan: cell_retries must be >= 0");
  }
  for (const std::string& name : routings) check_routing("routings axis", name);
  switch (mode) {
    case PlanMode::kSingle:
      if (jobs.empty()) {
        throw std::invalid_argument("ExperimentPlan: mode 'single' needs a non-empty job list "
                                    "(plan.jobs = APP:NODES,...)");
      }
      for (const PlanJob& job : jobs) {
        check_app("job list", job.app);
        if (job.nodes < 0) {
          throw std::invalid_argument("ExperimentPlan: job '" + job.app +
                                      "' has negative node count");
        }
      }
      break;
    case PlanMode::kPairwise:
      if (targets.empty() || backgrounds.empty()) {
        throw std::invalid_argument("ExperimentPlan: mode 'pairwise' needs plan.targets and "
                                    "plan.backgrounds");
      }
      for (const std::string& name : targets) check_app("targets axis", name);
      for (const std::string& name : backgrounds) {
        if (name != "None") check_app("backgrounds axis", name);
      }
      break;
    case PlanMode::kMixed:
      break;
    case PlanMode::kCustom:
      if (!custom) {
        throw std::invalid_argument("ExperimentPlan: mode 'custom' needs a custom runner");
      }
      break;
  }
}

std::vector<PlanCell> ExperimentPlan::expand() const {
  validate();
  std::vector<PlanCell> cells;

  const auto add_mix_cells = [&](const StudyConfig& config, const std::string& variant_label) {
    const auto push = [&](PlanCellKind kind, StudyConfig cell_config) {
      PlanCell cell;
      cell.kind = kind;
      cell.config = std::move(cell_config);
      cell.variant = variant_label;
      return cells.insert(cells.end(), std::move(cell));
    };
    switch (mode) {
      case PlanMode::kSingle: {
        const auto it = push(PlanCellKind::kSingle, config);
        it->jobs = jobs;
        break;
      }
      case PlanMode::kCustom:
        push(PlanCellKind::kCustom, config);
        break;
      case PlanMode::kPairwise:
        for (const std::string& target : targets) {
          for (const std::string& background : backgrounds) {
            const auto it = push(PlanCellKind::kPairwise, config);
            it->target = target;
            it->background = background;
          }
        }
        break;
      case PlanMode::kMixed:
        push(PlanCellKind::kMixed, config);
        if (mixed_solos) {
          for (const MixedJobSpec& spec : table2_mix()) {
            const auto it = push(PlanCellKind::kMixedSolo, config);
            it->target = spec.app;
          }
        }
        break;
    }
  };

  // Fixed nesting: variant > routing > placement > scale > seed. Axes are
  // applied after the variant overlay so an explicit axis always wins.
  const std::vector<PlanVariant> no_variant{PlanVariant{}};
  for (const PlanVariant& variant : variants.empty() ? no_variant : variants) {
    const StudyConfig varied =
        variant.overrides.values().empty() ? base : apply_config(base, variant.overrides);
    for (std::size_t r = 0; r < std::max<std::size_t>(routings.size(), 1); ++r) {
      for (std::size_t p = 0; p < std::max<std::size_t>(placements.size(), 1); ++p) {
        for (std::size_t sc = 0; sc < std::max<std::size_t>(scales.size(), 1); ++sc) {
          for (std::size_t sd = 0; sd < std::max<std::size_t>(seeds.size(), 1); ++sd) {
            StudyConfig config = varied;
            if (!routings.empty()) config.routing = routings[r];
            if (!placements.empty()) config.placement = placements[p];
            if (!scales.empty()) config.scale = scales[sc];
            if (!seeds.empty()) config.seed = seeds[sd];
            add_mix_cells(config, variant.label);
          }
        }
      }
    }
  }

  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].index = i;
  return cells;
}

// --- execution ---------------------------------------------------------------

Report run_plan_cell(const ExperimentPlan& plan, const PlanCell& cell) {
  switch (cell.kind) {
    case PlanCellKind::kSingle: {
      Study study(cell.config);
      for (const PlanJob& job : cell.jobs) study.add_app(job.app, job.nodes);
      return study.run();
    }
    case PlanCellKind::kPairwise:
      return run_pairwise(cell.config, cell.target, cell.background).full;
    case PlanCellKind::kMixed:
      return run_mixed(cell.config);
    case PlanCellKind::kMixedSolo:
      return run_mixed_solo(cell.config, cell.target);
    case PlanCellKind::kCustom:
      return plan.custom(cell);
  }
  throw std::logic_error("run_plan_cell: unhandled cell kind");
}

PlanShard parse_shard(const std::string& text) {
  const auto bad = [&]() -> PlanShard {
    throw std::invalid_argument("shard wants K/N with 1 <= K <= N (e.g. 2/4), got '" + text +
                                "'");
  };
  const auto parse_number = [&](const std::string& part) -> std::uint64_t {
    if (part.empty() || part.size() > 9) bad();
    std::uint64_t value = 0;
    for (const char c : part) {
      if (c < '0' || c > '9') bad();
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return value;
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return bad();
  const std::uint64_t k = parse_number(text.substr(0, slash));
  const std::uint64_t n = parse_number(text.substr(slash + 1));
  if (k < 1 || n < 1 || k > n) bad();
  return PlanShard{static_cast<std::size_t>(k - 1), static_cast<std::size_t>(n)};
}

namespace {

/// One cell's execution result, waiting in its emission slot.
struct CellResult {
  Report report;
  CellFailure failure;
  bool ok{false};
};

/// Run one cell with full fault isolation: never throws. Timeouts are final;
/// transient failures (bad_alloc / TransientCellError) are retried after
/// shedding the worker's arena and backing off.
CellResult run_cell_isolated(const ExperimentPlan& plan, const PlanCell& cell) {
  CellResult result;
  result.failure.index = cell.index;
  const int max_attempts = 1 + plan.cell_retries;
  for (int attempt = 1;; ++attempt) {
    result.failure.attempts = attempt;
    bool transient = false;
    try {
      if (plan.cell_timeout_s > 0 && cell.config.wall_limit_s <= 0) {
        PlanCell timed = cell;
        timed.config.wall_limit_s = plan.cell_timeout_s;
        result.report = run_plan_cell(plan, timed);
      } else {
        result.report = run_plan_cell(plan, cell);
      }
      result.ok = true;
      return result;
    } catch (const WallDeadlineExceeded& error) {
      result.failure.message = error.what();
      result.failure.timeout = true;
      return result;  // a timed-out cell would time out again: no retry
    } catch (const std::bad_alloc& error) {
      transient = true;
      result.failure.message = error.what();
    } catch (const TransientCellError& error) {
      transient = true;
      result.failure.message = error.what();
    } catch (const std::exception& error) {
      result.failure.message = error.what();
    } catch (...) {
      result.failure.message = "unknown exception";
    }
    if (!transient || attempt >= max_attempts) return result;
    // Transient retry: release every byte this worker is holding (the most
    // likely cure for bad_alloc), then back off briefly so a machine-wide
    // memory spike can pass. 10ms, 20ms, 40ms, ... capped at 640ms.
    if (SimArena* arena = SimArena::current()) arena->shed();
    const int shift = attempt - 1 < 6 ? attempt - 1 : 6;
    std::this_thread::sleep_for(std::chrono::milliseconds(10 << shift));
  }
}

}  // namespace

PlanOutcome run_plan(const ExperimentPlan& plan, PlanSink& sink,
                     const RunPlanOptions& options) {
  if (options.shard.count < 1 || options.shard.index >= options.shard.count) {
    throw std::invalid_argument("run_plan: shard index " + std::to_string(options.shard.index) +
                                " out of range for " + std::to_string(options.shard.count) +
                                " shards");
  }
  std::vector<PlanCell> cells = plan.expand();
  PlanOutcome outcome;
  std::vector<char> done(cells.size(), 0);

  // Replay the previous run's journal: each record is validated against the
  // re-expanded plan, then its cell is marked done and its outcome counted
  // as if this run had produced it — so exit status is stable across any
  // number of interrupt/resume cycles.
  if (options.resume != nullptr) {
    for (const JournalRecord& record : *options.resume) {
      if (record.cell >= cells.size()) {
        throw std::runtime_error("run_plan: journal records cell " +
                                 std::to_string(record.cell) + " but the plan expands to " +
                                 std::to_string(cells.size()) +
                                 " cells — the plan changed; remove the journal to start over");
      }
      const PlanCell& cell = cells[record.cell];
      if (plan_cell_hash(cell) != record.hash) {
        throw std::runtime_error("run_plan: journal hash mismatch for cell " +
                                 std::to_string(record.cell) +
                                 " — the plan changed under the journal; remove the journal "
                                 "(and the output) to start over");
      }
      if (!options.shard.selects(record.cell) || done[record.cell]) continue;
      done[record.cell] = 1;
      ++outcome.resumed;
      if (record.ok) {
        if (record.completed) ++outcome.completed;
      } else {
        CellFailure failure;
        failure.index = record.cell;
        failure.message = record.error;
        failure.attempts = record.attempts;
        failure.timeout = record.timeout;
        outcome.failures.push_back(std::move(failure));
      }
    }
  }

  std::vector<std::size_t> work;  // cell indices this invocation simulates
  work.reserve(cells.size());
  for (const PlanCell& cell : cells) {
    if (!options.shard.selects(cell.index)) continue;
    ++outcome.cells;
    if (!done[cell.index]) work.push_back(cell.index);
  }

  sink.begin(plan, cells);

  // Workers finish out of order; results wait in their slot until every
  // earlier cell has been emitted, then flush to the sink in index order (a
  // flushed slot is released immediately, so memory holds only the
  // out-of-order window, not the whole campaign).
  std::vector<CellResult> slots(work.size());
  std::vector<char> ready(work.size(), 0);
  std::size_t next_emit = 0;
  std::mutex emit_mutex;

  // Serialised by emit_mutex. May throw only AFTER the slot is consumed
  // (next_emit already advanced): a journal-append failure then surfaces as
  // a worker error without any cell being emitted twice.
  const auto emit = [&](std::size_t k) {
    const PlanCell& cell = cells[work[k]];
    CellResult result = std::move(slots[k]);
    slots[k] = CellResult{};
    if (result.ok) {
      try {
        sink.cell_done(cell, result.report);
      } catch (const std::exception& error) {
        result.ok = false;
        result.failure.sink_error = true;
        result.failure.message = error.what();
      } catch (...) {
        result.ok = false;
        result.failure.sink_error = true;
        result.failure.message = "unknown exception";
      }
    }
    if (result.ok) {
      if (result.report.completed) ++outcome.completed;
    } else {
      outcome.failures.push_back(result.failure);
      try {
        sink.cell_failed(cell, result.failure);
      } catch (...) {
        // cell_failed is advisory; the failure is already recorded.
      }
    }
    ++outcome.executed;
    if (options.journal != nullptr) {
      JournalRecord record;
      record.cell = cell.index;
      record.ok = result.ok;
      record.completed = result.ok && result.report.completed;
      record.hash = plan_cell_hash(cell);
      record.attempts = result.failure.attempts;
      record.timeout = result.failure.timeout;
      record.offset = options.output_offset ? options.output_offset() : 0;
      record.error = result.ok ? std::string() : result.failure.message;
      // Ordering contract: the output line is already flushed, so this
      // fsync'd record — carrying the post-line offset — commits the cell.
      // A crash in between leaves an orphan output line that --resume cuts
      // by truncating to the last journaled offset.
      options.journal->append(record);
    }
  };

  const auto run_one = [&](std::size_t k) {
    CellResult result;
    if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
      // Cancelled before this cell started: record it without simulating.
      // In-flight cells finish normally, so a cancel never tears a cell.
      result.failure.index = cells[work[k]].index;
      result.failure.message = "campaign cancelled";
      result.failure.attempts = 0;
    } else {
      result = run_cell_isolated(plan, cells[work[k]]);
    }
    const std::lock_guard<std::mutex> lock(emit_mutex);
    slots[k] = std::move(result);
    ready[k] = 1;
    while (next_emit < work.size() && ready[next_emit]) emit(next_emit++);
  };
  // The daemon passes its shared warm pool (per-worker arenas and the
  // cross-campaign BlueprintCache stay hot); a local run gets a private pool
  // with no more workers than cells.
  std::optional<SubmissionQueue> private_queue;
  SubmissionQueue* queue = options.queue;
  if (queue == nullptr && !work.empty()) {
    const std::size_t jobs = static_cast<std::size_t>(resolve_jobs(options.jobs));
    queue = &private_queue.emplace(static_cast<int>(std::min(jobs, work.size())));
  }
  if (queue != nullptr) queue->run_indexed(work.size(), run_one, &outcome.worker_errors);

  sink.end();

  // Resume-replayed and freshly-recorded failures interleave; present them
  // in cell order regardless of history.
  std::stable_sort(outcome.failures.begin(), outcome.failures.end(),
                   [](const CellFailure& a, const CellFailure& b) { return a.index < b.index; });
  return outcome;
}

PlanOutcome run_plan(const ExperimentPlan& plan, PlanSink& sink, int jobs) {
  RunPlanOptions options;
  options.jobs = jobs;
  return run_plan(plan, sink, options);
}

// --- sinks -------------------------------------------------------------------

void CollectSink::begin(const ExperimentPlan&, const std::vector<PlanCell>& cells) {
  cells_ = cells;
  reports_.assign(cells.size(), Report{});
  failures_.clear();
}

void CollectSink::cell_done(const PlanCell& cell, const Report& report) {
  reports_[cell.index] = report;
}

void CollectSink::cell_failed(const PlanCell&, const CellFailure& failure) {
  failures_.push_back(failure);
}

void TeeSink::begin(const ExperimentPlan& plan, const std::vector<PlanCell>& cells) {
  for (PlanSink* sink : sinks_) sink->begin(plan, cells);
}

void TeeSink::cell_done(const PlanCell& cell, const Report& report) {
  for (PlanSink* sink : sinks_) sink->cell_done(cell, report);
}

void TeeSink::cell_failed(const PlanCell& cell, const CellFailure& failure) {
  for (PlanSink* sink : sinks_) sink->cell_failed(cell, failure);
}

void TeeSink::end() {
  for (PlanSink* sink : sinks_) sink->end();
}

JsonlSink::JsonlSink(std::ostream& out) : out_(&out) {}

JsonlSink::JsonlSink(const std::string& path, bool append)
    : owned_(path, append ? std::ios::binary | std::ios::app
                          : std::ios::binary | std::ios::trunc),
      out_(&owned_),
      path_(path) {
  if (!owned_) throw std::runtime_error("JsonlSink: cannot open " + path);
  if (append) {
    // Resume continues after the (already truncated) existing content; the
    // journal offsets it writes must be absolute file sizes.
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (probe && probe.tellg() > 0) bytes_ = static_cast<std::uint64_t>(probe.tellg());
  }
}

std::string plan_cell_jsonl(const PlanCell& cell, const Report& report) {
  JsonWriter w;
  w.begin_object();
  w.key("cell").value(static_cast<std::uint64_t>(cell.index));
  w.key("kind").value(to_string(cell.kind));
  w.key("variant").value(cell.variant);
  w.key("routing").value(cell.config.routing);
  w.key("placement").value(to_string(cell.config.placement));
  w.key("seed").value(cell.config.seed);
  w.key("scale").value(cell.config.scale);
  w.key("target").value(cell.target);
  w.key("background").value(cell.background);
  w.key("jobs").begin_array();
  for (const PlanJob& job : cell.jobs) {
    w.begin_object();
    w.key("app").value(job.app);
    w.key("nodes").value(job.nodes);
    w.end_object();
  }
  w.end_array();
  w.key("report");
  write_report(w, report);
  w.end_object();
  return w.str();
}

void JsonlSink::cell_done(const PlanCell& cell, const Report& report) {
  const std::string line = plan_cell_jsonl(cell, report);
  *out_ << line << '\n' << std::flush;
  if (!out_->good()) {
    throw std::runtime_error("JsonlSink: write failed" +
                             (path_.empty() ? std::string() : " on " + path_));
  }
  bytes_ += line.size() + 1;
}

CsvSink::CsvSink(std::ostream& out) : out_(&out) {}

CsvSink::CsvSink(const std::string& path)
    : owned_(path + ".tmp", std::ios::binary | std::ios::trunc), out_(&owned_), path_(path) {
  if (!owned_) throw std::runtime_error("CsvSink: cannot open " + path + ".tmp");
}

void CsvSink::check_stream(const char* what) const {
  if (!out_->good()) {
    throw std::runtime_error(std::string("CsvSink: ") + what + " failed" +
                             (path_.empty() ? std::string() : " on " + path_ + ".tmp"));
  }
}

void CsvSink::begin(const ExperimentPlan&, const std::vector<PlanCell>&) {
  *out_ << "cell,kind,variant,routing,placement,seed,scale,target,background,app,nodes,"
           "comm_mean_ms,comm_std_ms,exec_ms,injection_rate_gbs,lat_mean_us,lat_p99_us,"
           "nonminimal_fraction,completed,makespan_ms,sys_lat_p99_us\n"
        << std::flush;
  check_stream("header write");
}

void CsvSink::cell_done(const PlanCell& cell, const Report& report) {
  const std::string prefix = std::to_string(cell.index) + ',' + to_string(cell.kind) + ',' +
                             csv_field(cell.variant) + ',' + csv_field(cell.config.routing) +
                             ',' + to_string(cell.config.placement) + ',' +
                             std::to_string(cell.config.seed) + ',' +
                             std::to_string(cell.config.scale) + ',' + csv_field(cell.target) +
                             ',' + csv_field(cell.background) + ',';
  const std::string suffix = std::string(report.completed ? "true" : "false") + ',' +
                             csv_double(to_ms(report.makespan)) + ',' +
                             csv_double(report.sys_lat_p99_us);
  for (const AppReport& app : report.apps) {
    *out_ << prefix << csv_field(app.app) << ',' << app.nodes << ','
          << csv_double(app.comm_mean_ms) << ',' << csv_double(app.comm_std_ms) << ','
          << csv_double(app.exec_ms) << ',' << csv_double(app.injection_rate_gbs) << ','
          << csv_double(app.lat_mean_us) << ',' << csv_double(app.lat_p99_us) << ','
          << csv_double(app.nonminimal_fraction) << ',' << suffix << '\n';
  }
  *out_ << std::flush;
  check_stream("write");
}

void CsvSink::end() {
  if (path_.empty()) return;  // ostream ctor: nothing to finalise
  owned_.flush();
  check_stream("flush");
  owned_.close();
  if (std::rename((path_ + ".tmp").c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("CsvSink: cannot rename " + path_ + ".tmp to " + path_ + ": " +
                             std::strerror(errno));
  }
}

// --- shard reassembly --------------------------------------------------------

std::size_t merge_shard_jsonl(const std::vector<std::string>& inputs,
                              const std::string& out_path, std::ostream* warnings) {
  static const char kPrefix[] = "{\"cell\":";
  static const std::size_t kPrefixLen = sizeof(kPrefix) - 1;

  std::vector<std::pair<std::uint64_t, std::string>> lines;
  for (const std::string& input : inputs) {
    std::ifstream in(input, std::ios::binary);
    if (!in) throw std::runtime_error("merge_shard_jsonl: cannot read " + input);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line.compare(0, kPrefixLen, kPrefix) != 0) {
        throw std::runtime_error("merge_shard_jsonl: " + input +
                                 ": line without a leading \"cell\" index");
      }
      std::size_t pos = kPrefixLen;
      std::uint64_t cell = 0;
      bool digits = false;
      while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
        cell = cell * 10 + static_cast<std::uint64_t>(line[pos] - '0');
        ++pos;
        digits = true;
      }
      if (!digits) {
        throw std::runtime_error("merge_shard_jsonl: " + input +
                                 ": malformed \"cell\" index");
      }
      lines.emplace_back(cell, std::move(line));
    }
  }

  std::stable_sort(lines.begin(), lines.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].first == lines[i - 1].first) {
      throw std::runtime_error("merge_shard_jsonl: cell " + std::to_string(lines[i].first) +
                               " appears in more than one input (overlapping shards?)");
    }
  }
  if (warnings != nullptr && !lines.empty()) {
    // Gaps are expected exactly where cells failed; surface them so a silent
    // partial merge cannot masquerade as a complete campaign.
    std::uint64_t expect = 0;
    for (const auto& [cell, line] : lines) {
      for (; expect < cell; ++expect) {
        *warnings << "merge-shards: no line for cell " << expect << " (failed or not run)\n";
      }
      expect = cell + 1;
    }
  }

  const std::string tmp = out_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("merge_shard_jsonl: cannot open " + tmp);
    for (const auto& [cell, line] : lines) out << line << '\n';
    out.flush();
    if (!out.good()) throw std::runtime_error("merge_shard_jsonl: write failed on " + tmp);
  }
  if (std::rename(tmp.c_str(), out_path.c_str()) != 0) {
    throw std::runtime_error("merge_shard_jsonl: cannot rename " + tmp + " to " + out_path +
                             ": " + std::strerror(errno));
  }
  return lines.size();
}

// --- config-file surface -----------------------------------------------------

namespace {

std::vector<PlanJob> parse_plan_jobs(const ConfigFile& file, const std::string& key) {
  std::vector<PlanJob> jobs;
  for (const std::string& item : file.get_string_list(key)) {
    PlanJob job;
    const auto colon = item.find(':');
    job.app = item.substr(0, colon);
    if (colon != std::string::npos) {
      try {
        std::size_t used = 0;
        job.nodes = std::stoi(item.substr(colon + 1), &used);
        if (used != item.size() - colon - 1) throw std::invalid_argument("trailing");
      } catch (const std::exception&) {
        throw std::invalid_argument("ConfigFile: " + file.where(key) + ": job '" + item +
                                    "' wants APP or APP:NODES");
      }
      // An explicit node count must be a real allocation: "fft3d:-3" and
      // "fft3d:0" used to slip through here and either throw much later
      // (without the offending line) or silently mean "fill the machine".
      if (job.nodes < 1) {
        throw std::invalid_argument("ConfigFile: " + file.where(key) + ": job '" + item +
                                    "' wants a node count >= 1 (write just '" + job.app +
                                    "' to fill the machine)");
      }
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Variant overrides are semicolon-separated `key=value` pairs, e.g.
///   plan.variant.qos2 = qos.num_classes=2; qos.weights=4,1
PlanVariant parse_variant(const ConfigFile& file, const std::string& key,
                          const std::string& label, const std::string& text) {
  PlanVariant variant;
  variant.label = label;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t semi = text.find(';', start);
    const std::size_t end = semi == std::string::npos ? text.size() : semi;
    std::string item = text.substr(start, end - start);
    const auto strip = [](std::string s) {
      const auto a = s.find_first_not_of(" \t");
      if (a == std::string::npos) return std::string();
      const auto b = s.find_last_not_of(" \t");
      return s.substr(a, b - a + 1);
    };
    item = strip(item);
    if (!item.empty()) {
      const auto eq = item.find('=');
      if (eq == std::string::npos || strip(item.substr(0, eq)).empty()) {
        throw std::invalid_argument("ConfigFile: " + file.where(key) + ": variant override '" +
                                    item + "' wants key=value");
      }
      variant.overrides.set(strip(item.substr(0, eq)), strip(item.substr(eq + 1)),
                            file.line_of(key));
    }
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  return variant;
}

}  // namespace

ExperimentPlan plan_from_config(const ConfigFile& file) {
  static const char* kVariantPrefix = "plan.variant.";
  static const std::vector<std::string> kPlanKeys{
      "plan.name",    "plan.mode",  "plan.routings",    "plan.placements",
      "plan.scales",  "plan.seeds", "plan.jobs",        "plan.targets",
      "plan.backgrounds", "plan.solos", "plan.cell_timeout_s", "plan.cell_retries",
  };

  ExperimentPlan plan;
  ConfigFile base_keys;
  for (const auto& [key, value] : file.values()) {
    if (key.rfind("plan.", 0) != 0) {
      base_keys.set(key, value, file.line_of(key));
      continue;
    }
    if (key.rfind(kVariantPrefix, 0) == 0) {
      const std::string label = key.substr(std::string(kVariantPrefix).size());
      if (label.empty()) {
        throw std::invalid_argument("plan_from_config: " + file.where(key) +
                                    ": variant needs a label (plan.variant.<label>)");
      }
      plan.variants.push_back(parse_variant(file, key, label, value));
      continue;
    }
    if (!contains(kPlanKeys, key)) {
      throw std::invalid_argument("plan_from_config: " + file.where(key) +
                                  ": unknown plan key '" + key + "'");
    }
  }
  plan.base = apply_config(StudyConfig{}, base_keys);

  plan.name = file.get_string("plan.name", "campaign");
  if (file.has("plan.mode")) plan.mode = plan_mode_from_string(file.get_string("plan.mode"));
  plan.routings = file.get_string_list("plan.routings");
  for (const std::string& name : file.get_string_list("plan.placements")) {
    try {
      plan.placements.push_back(placement_from_string(name));
    } catch (const std::exception&) {
      throw std::invalid_argument("ConfigFile: " + file.where("plan.placements") +
                                  ": unknown placement '" + name + "'");
    }
  }
  plan.scales = file.get_int_list("plan.scales");
  plan.seeds = file.get_seed_list("plan.seeds");
  plan.jobs = parse_plan_jobs(file, "plan.jobs");
  plan.targets = file.get_string_list("plan.targets");
  plan.backgrounds = file.get_string_list("plan.backgrounds");
  plan.mixed_solos = file.get_bool("plan.solos", true);
  plan.cell_timeout_s = file.get_double("plan.cell_timeout_s", 0.0);
  if (plan.cell_timeout_s < 0) {
    throw std::invalid_argument("ConfigFile: " + file.where("plan.cell_timeout_s") +
                                ": must be >= 0");
  }
  plan.cell_retries = file.get_int("plan.cell_retries", 2);
  if (plan.cell_retries < 0) {
    throw std::invalid_argument("ConfigFile: " + file.where("plan.cell_retries") +
                                ": must be >= 0");
  }

  plan.validate();
  return plan;
}

ExperimentPlan load_plan(const std::string& path) {
  return plan_from_config(ConfigFile::load(path));
}

}  // namespace dfly
