#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config_file.hpp"
#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "core/study.hpp"

/// Declarative experiment campaigns.
///
/// Every result in the paper — and in the companion Dragonfly+ interference
/// and application-aware-routing studies — is "a set of Studies over axes":
/// applications x routings x placements x seeds (x topology/QoS/fault
/// variants). ExperimentPlan is the one description of such a campaign: a
/// base StudyConfig, the axes to sweep, and a job-mix kind. It expands
/// deterministically into an ordered cell list and runs through ONE entry
/// point, run_plan(), on a SubmissionQueue (per-worker SimArena reuse and
/// cross-cell SystemBlueprint sharing intact), streaming each finished cell
/// to a PlanSink in cell order — so output bytes are identical for any
/// worker count.
///
/// Fault tolerance (docs/ROBUSTNESS.md): run_plan isolates every cell — a
/// throwing cell is recorded as a CellFailure and the campaign continues;
/// transient failures (std::bad_alloc, TransientCellError) are retried with
/// backoff after shedding the worker's arena; plan.cell_timeout_s arms a
/// per-cell wall-clock watchdog; an optional fsync'd PlanJournal makes the
/// campaign resumable byte-identically after any crash; and a PlanShard
/// runs a deterministic slice for multi-host fan-out (reassembled with
/// merge_shard_jsonl).
///
/// Every campaign driver — the CLI's --plan and --sweep, the daemon and the
/// bench drivers — builds an ExperimentPlan (programmatically, or from a
/// `plan.*` config file via plan_from_config / `dflysim --plan=FILE`).
namespace dfly {

/// How a plan populates each cell's job mix.
enum class PlanMode {
  kSingle,    ///< every cell runs the explicit `jobs` list (paper Figs 5-9)
  kPairwise,  ///< target x background half-machine matrix (paper Fig 4, §V)
  kMixed,     ///< Table II mix, plus per-app solo baselines (paper Fig 10)
  kCustom,    ///< programmatic: `custom` produces each cell's Report
};

const char* to_string(PlanMode mode);
/// Accepts "single", "pairwise", "mixed" (kCustom is programmatic-only).
PlanMode plan_mode_from_string(const std::string& name);

/// One application of an explicit job list. nodes == 0 fills the machine.
struct PlanJob {
  std::string app;
  int nodes{0};

  bool operator==(const PlanJob&) const = default;
};

/// A named overlay of config keys applied onto the base config — the
/// declarative form of "the same campaign, but with QoS classes on / a
/// degraded global link / a bigger machine". Any apply_config key works.
struct PlanVariant {
  std::string label;
  ConfigFile overrides;
};

/// What one expanded cell runs. kMixedSolo is the Fig 10 "alone" baseline:
/// the full Table II allocation sequence with every job except `target`
/// replaced by an idle placeholder.
enum class PlanCellKind { kSingle, kPairwise, kMixed, kMixedSolo, kCustom };

const char* to_string(PlanCellKind kind);

/// One fully-resolved simulation cell of a campaign.
struct PlanCell {
  std::size_t index{0};  ///< position in expansion (and emission) order
  PlanCellKind kind{PlanCellKind::kSingle};
  StudyConfig config{};  ///< base + variant overlay + axis values
  std::string variant;   ///< variant label, "" when no variant axis
  std::string target;      ///< pairwise target / mixed-solo app, else ""
  std::string background;  ///< pairwise background; "None" = standalone
  std::vector<PlanJob> jobs;  ///< kSingle job list, else empty
};

/// Stable identity hash of an expanded cell: everything that determines its
/// simulation output (system and routing config + seed/scale/limits + kind +
/// job mix + index). --resume recomputes this for every journaled cell and refuses to
/// skip a cell whose hash no longer matches — the plan file changed under
/// the journal. Stable across processes and platforms (FNV-1a over explicit
/// fields, never over raw struct bytes).
std::uint64_t plan_cell_hash(const PlanCell& cell);

/// Throw this from a kCustom runner (or any cell code) to mark a failure as
/// transient: run_plan retries the cell — like std::bad_alloc — instead of
/// recording it failed on first throw.
class TransientCellError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One isolated cell failure recorded by run_plan (the campaign continued).
struct CellFailure {
  std::size_t index{0};  ///< PlanCell.index of the failed cell
  std::string message;   ///< what() of the final attempt's exception
  int attempts{1};       ///< simulation attempts consumed (> 1 after retries)
  bool timeout{false};     ///< abandoned by the wall-clock watchdog
  bool sink_error{false};  ///< the simulation succeeded but a sink write failed
};

struct ExperimentPlan;

/// Streaming consumer of finished cells. run_plan() calls begin() once with
/// the full expansion, then — in cell-index order over the cells this run
/// executes — exactly one of cell_done() (the cell produced a Report) or
/// cell_failed() (the cell was recorded as failed) per cell; cell i is
/// delivered as soon as it *and every cell before it* has finished, so a
/// file sink flushes incrementally while workers are still running later
/// cells — then end() once. end() is called even when cells failed (sinks
/// must finalise whatever was delivered); it is skipped only when begin()
/// itself threw. Calls are serialised by run_plan (sinks need no locking of
/// their own). A cell_done() override that throws converts that cell into a
/// recorded sink_error failure — the campaign continues.
class PlanSink {
 public:
  virtual ~PlanSink() = default;
  virtual void begin(const ExperimentPlan& plan, const std::vector<PlanCell>& cells);
  virtual void cell_done(const PlanCell& cell, const Report& report) = 0;
  /// Default: ignore (file sinks simply have no line for the cell; the
  /// journal and PlanOutcome carry the failure).
  virtual void cell_failed(const PlanCell& cell, const CellFailure& failure);
  virtual void end();
};

/// Declarative description of a campaign. Expansion order is the fixed
/// nesting
///     variant > routing > placement > scale > seed > job-mix cell
/// (job-mix cells: pairwise = target-major over backgrounds, mixed = the mix
/// then each solo in table2_mix order, single/custom = one cell). An empty
/// axis means "the base config's value is the single point".
struct ExperimentPlan {
  std::string name{"campaign"};
  StudyConfig base{};
  PlanMode mode{PlanMode::kSingle};

  // --- axes ---------------------------------------------------------------
  std::vector<PlanVariant> variants;
  std::vector<std::string> routings;
  std::vector<PlacementPolicy> placements;
  std::vector<int> scales;
  std::vector<std::uint64_t> seeds;

  // --- job mix ------------------------------------------------------------
  std::vector<PlanJob> jobs;             ///< kSingle
  std::vector<std::string> targets;      ///< kPairwise
  std::vector<std::string> backgrounds;  ///< kPairwise; "None" = standalone
  bool mixed_solos{true};  ///< kMixed: append per-app solo baselines
  /// kCustom: produces each cell's Report (runs on a worker thread; must
  /// only touch state owned by its cell).
  std::function<Report(const PlanCell&)> custom;

  // --- robustness ---------------------------------------------------------
  /// > 0 arms a per-cell wall-clock watchdog: a cell still running after
  /// this many real seconds is abandoned (Engine throws WallDeadlineExceeded
  /// at the next deadline check) and recorded as a timeout failure — no
  /// retry. Cells whose config already sets wall_limit_s keep their own.
  double cell_timeout_s{0};
  /// Extra attempts granted to a cell that fails transiently (std::bad_alloc
  /// or TransientCellError): the worker sheds its arena, backs off
  /// (10ms << attempt, capped at 1s) and re-runs. 0 disables retries.
  int cell_retries{2};

  /// Deterministic ordered expansion; calls validate() first. Cell order and
  /// content depend only on the plan — never on jobs or timing.
  std::vector<PlanCell> expand() const;

  /// Structural checks (unknown app/routing names, empty job mix, missing
  /// custom runner, non-positive scales); throws std::invalid_argument.
  void validate() const;
};

/// Collects reports in cell order (and keeps the expansion for callers that
/// index results by axis position). Failed cells keep a default Report and
/// land in failures().
class CollectSink final : public PlanSink {
 public:
  void begin(const ExperimentPlan& plan, const std::vector<PlanCell>& cells) override;
  void cell_done(const PlanCell& cell, const Report& report) override;
  void cell_failed(const PlanCell& cell, const CellFailure& failure) override;

  const std::vector<PlanCell>& cells() const { return cells_; }
  const std::vector<Report>& reports() const { return reports_; }
  std::vector<Report>&& take_reports() { return std::move(reports_); }
  const std::vector<CellFailure>& failures() const { return failures_; }

 private:
  std::vector<PlanCell> cells_;
  std::vector<Report> reports_;
  std::vector<CellFailure> failures_;
};

/// One campaign-output JSON line for a finished cell (no trailing newline).
/// This is the single serialisation both output surfaces share: JsonlSink
/// writes exactly these bytes to its file/stream, and the daemon
/// (src/serve/) streams exactly these bytes to a submitting client — so a
/// socket-submitted campaign is byte-identical to `--plan=FILE --jsonl=-`
/// by construction, not by parallel maintenance of two formatters.
std::string plan_cell_jsonl(const PlanCell& cell, const Report& report);

/// JSON Lines: one self-contained object per cell —
///   {"cell":N,"kind":...,"variant":...,"routing":...,"placement":...,
///    "seed":N,"scale":N,"target":...,"background":...,"jobs":[...],
///    "report":{<report_to_json document>}}
/// — written and flushed as each cell completes, so a long campaign's
/// output is tail-able and survives interruption up to the last whole line.
/// Every append is error-checked: a short write (disk full, quota) throws
/// std::runtime_error, which run_plan records as a sink_error failure for
/// that cell instead of silently emitting a torn campaign file.
class JsonlSink final : public PlanSink {
 public:
  explicit JsonlSink(std::ostream& out);
  /// Opens `path` for writing (throws std::runtime_error on failure).
  /// `append` = true keeps existing content and continues after it — the
  /// --resume path, after the driver truncated the file to the last
  /// journaled offset.
  explicit JsonlSink(const std::string& path, bool append = false);

  void cell_done(const PlanCell& cell, const Report& report) override;

  /// Size in bytes of the stream after the last flushed cell (for a fresh
  /// file this equals bytes written; in append mode it starts at the
  /// pre-existing size). The journal records this as each cell's offset.
  std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::ofstream owned_;
  std::ostream* out_;
  std::string path_;  ///< "" for the ostream ctor (error messages only)
  std::uint64_t bytes_{0};
};

/// CSV: a header plus one row per (cell, application) — the flat table a
/// plotting notebook ingests directly. The path ctor writes to `path + ".tmp"`
/// and atomically renames onto `path` in end(), so readers only ever observe
/// a complete table — an interrupted campaign leaves the previous file
/// untouched (resume a partial campaign through the JSONL + journal pair,
/// not the CSV). Appends are error-checked like JsonlSink.
class CsvSink final : public PlanSink {
 public:
  explicit CsvSink(std::ostream& out);
  explicit CsvSink(const std::string& path);

  void begin(const ExperimentPlan& plan, const std::vector<PlanCell>& cells) override;
  void cell_done(const PlanCell& cell, const Report& report) override;
  void end() override;

 private:
  void check_stream(const char* what) const;

  std::ofstream owned_;
  std::ostream* out_;
  std::string path_;  ///< final destination; "" for the ostream ctor
};

/// Fans one campaign stream out to several sinks (console + JSONL + CSV is
/// the common CLI combination). Does not own the sinks.
class TeeSink final : public PlanSink {
 public:
  TeeSink() = default;
  explicit TeeSink(std::vector<PlanSink*> sinks) : sinks_(std::move(sinks)) {}

  void add(PlanSink* sink) { sinks_.push_back(sink); }

  void begin(const ExperimentPlan& plan, const std::vector<PlanCell>& cells) override;
  void cell_done(const PlanCell& cell, const Report& report) override;
  void cell_failed(const PlanCell& cell, const CellFailure& failure) override;
  void end() override;

 private:
  std::vector<PlanSink*> sinks_;
};

/// A deterministic 1-of-N slice of a campaign: shard k runs exactly the
/// cells with `index % count == index_`, so N invocations with the same plan
/// and k = 0..N-1 partition the expansion with no coordination. Parsed from
/// the CLI's 1-based "K/N" spelling by parse_shard.
struct PlanShard {
  std::size_t index{0};  ///< 0-based shard id
  std::size_t count{1};  ///< total shards; 1 = no sharding

  bool active() const { return count > 1; }
  bool selects(std::size_t cell_index) const {
    return count <= 1 || cell_index % count == index;
  }
};

/// Parse "K/N" (1 <= K <= N, e.g. "2/4") into the 0-based PlanShard; throws
/// std::invalid_argument on anything else.
PlanShard parse_shard(const std::string& text);

/// Outcome of a campaign run (drives the CLI exit status).
struct PlanOutcome {
  std::size_t cells{0};      ///< cells this invocation was responsible for
                             ///  (after shard selection; includes resumed)
  std::size_t executed{0};   ///< cells actually simulated by this invocation
  std::size_t resumed{0};    ///< cells skipped because the journal had them
  std::size_t completed{0};  ///< cells whose Report.completed is true
                             ///  (journaled completions count on resume)
  /// Every isolated cell failure, in cell order (journaled failures are
  /// replayed here on resume).
  std::vector<CellFailure> failures;
  /// Infrastructure failures that escaped cell isolation (journal/sink-end
  /// write errors, etc.), per worker.
  WorkerErrors worker_errors;

  /// Every cell produced a report, every report completed, and no
  /// infrastructure errors — the CLI's exit-0 condition.
  bool all_ok() const {
    return failures.empty() && !worker_errors.any() && completed == cells;
  }
};

/// Execution options for run_plan (all default to the plain local run).
struct RunPlanOptions {
  /// Worker count of the private SubmissionQueue run_plan builds when
  /// `queue` is null: > 0 = exact, 0 = DFSIM_JOBS else sequential; capped at
  /// the number of cells to run, so no worker starts idle.
  int jobs{0};
  /// Deterministic slice to execute (default: every cell).
  PlanShard shard{};
  /// When set, every finished cell (ok, failed or timed out) is durably
  /// journaled — fsync'd before the next cell emits. Not owned.
  PlanJournal* journal{nullptr};
  /// Recovered records of a previous run's journal: matching cells are
  /// skipped and their outcome replayed. Records are validated against the
  /// re-expanded plan via plan_cell_hash (mismatch throws std::runtime_error
  /// — the plan changed under the journal). Not owned; may be null.
  const std::vector<JournalRecord>* resume{nullptr};
  /// Size in bytes of the primary output stream after the cell that was just
  /// emitted (JsonlSink::bytes_written bound by the CLI). Recorded in each
  /// journal record as the resume truncation point; unset records offset 0.
  std::function<std::uint64_t()> output_offset;
  /// Cooperative cancellation (daemon mode: client disconnect / `cancel`
  /// op). Once it reads true, cells not yet started are recorded as
  /// "campaign cancelled" failures without simulating (attempts = 0);
  /// in-flight cells finish and emit normally. Not owned; may be null.
  const std::atomic<bool>* cancel{nullptr};
  /// When set, cells execute on this shared persistent pool (daemon mode:
  /// all campaigns multiplex onto one warm SubmissionQueue, sharing worker
  /// arenas and one BlueprintCache) instead of a private per-call queue;
  /// `jobs` is then ignored. Not owned.
  SubmissionQueue* queue{nullptr};
};

/// THE campaign entry point: expand the plan, run the cells on a
/// SubmissionQueue (options.queue, else a private queue of options.jobs
/// workers; per-worker arenas and the shared BlueprintCache apply either
/// way), and stream results to `sink` in cell order. Every cell is
/// fault-isolated: exceptions become recorded CellFailures (transient ones
/// retried per plan.cell_retries, watchdog timeouts per
/// plan.cell_timeout_s), the campaign always runs to the end, and sink.end()
/// is always called after begin() succeeded. Output is bit-identical for any
/// worker count — and, through the journal/resume pair, across crash-resume
/// boundaries and shard reassembly.
PlanOutcome run_plan(const ExperimentPlan& plan, PlanSink& sink,
                     const RunPlanOptions& options);
/// Convenience overload: local run with `jobs` workers, no shard/journal.
PlanOutcome run_plan(const ExperimentPlan& plan, PlanSink& sink, int jobs = 0);

/// Run one already-expanded cell on the calling thread (the per-cell work
/// run_plan schedules; exposed for tests and custom drivers).
Report run_plan_cell(const ExperimentPlan& plan, const PlanCell& cell);

/// Reassemble one campaign JSONL from per-shard outputs: every line of every
/// input is keyed by its leading `"cell":N`, sorted by cell index, and
/// written to `out_path` via a temp file + atomic rename. A duplicate cell
/// index across inputs throws std::runtime_error (overlapping shards); gaps
/// are tolerated (failed cells have no line) but reported on `warnings` when
/// provided. Returns the number of lines written.
std::size_t merge_shard_jsonl(const std::vector<std::string>& inputs,
                              const std::string& out_path,
                              std::ostream* warnings = nullptr);

/// Build a plan from a config file: every non-`plan.` key configures the
/// base StudyConfig via apply_config; `plan.*` keys describe the campaign —
///   plan.name        = fig4                     (default "campaign")
///   plan.mode        = single | pairwise | mixed  (default single)
///   plan.routings    = PAR,UGALg,Q-adp
///   plan.placements  = random,contiguous
///   plan.scales      = 1,8
///   plan.seeds       = 42..46,100              (ranges are inclusive)
///   plan.jobs        = FFT3D:528,Halo3D        (mode single; an explicit
///                      NODES must be >= 1, a bare APP fills the machine)
///   plan.targets     = FFT3D,LU                (mode pairwise)
///   plan.backgrounds = None,UR,Halo3D          (mode pairwise)
///   plan.solos       = true                    (mode mixed)
///   plan.cell_timeout_s = 900                  (wall-clock watchdog; 0 = off)
///   plan.cell_retries   = 2                    (transient-failure retries)
///   plan.variant.<label> = key=value; key=value  (repeatable; sorted by
///                          label; an empty value is the unmodified base)
/// Unknown plan keys throw std::invalid_argument naming the source line.
ExperimentPlan plan_from_config(const ConfigFile& file);

/// ConfigFile::load + plan_from_config.
ExperimentPlan load_plan(const std::string& path);

}  // namespace dfly
