#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

/// Crash-safe campaign completion journal.
///
/// `dflysim --plan=FILE --journal=J` appends one JSON line to J for every
/// cell the campaign finishes — succeeded, failed or timed out — and fsyncs
/// it before the next cell is emitted. After a crash (including `kill -9`),
/// `--resume` replays the journal: cells with a record are skipped, the
/// output JSONL is truncated back to the last journaled byte offset (cutting
/// any torn tail write), and the remaining cells run as if the campaign had
/// never stopped — the reassembled output is byte-identical to one
/// uninterrupted run. See docs/ROBUSTNESS.md for the workflow and format.
///
/// Record format (one line, stable key order, written by PlanJournal::format):
///
///   {"cell":17,"ok":true,"completed":true,"hash":"91ab...","attempts":1,
///    "timeout":false,"offset":83451,"error":""}
///
///   cell       PlanCell.index in the deterministic plan expansion
///   ok         the cell produced a report and was delivered to the sinks
///   completed  Report.completed of that report (false when !ok)
///   hash       plan_cell_hash() of the expanded cell, hex — resume refuses
///              a journal whose cells do not match the re-expanded plan
///   attempts   simulation attempts consumed (> 1 after transient retries)
///   timeout    the cell was abandoned by the wall-clock watchdog
///   offset     size in bytes of the primary output stream after this cell's
///              emission (unchanged for failed cells) — the resume
///              truncation point
///   error      first error message for failed cells, "" otherwise
namespace dfly {

/// One journal line, parsed or about to be written.
struct JournalRecord {
  std::uint64_t cell{0};
  bool ok{false};
  bool completed{false};
  std::uint64_t hash{0};
  int attempts{1};
  bool timeout{false};
  std::uint64_t offset{0};
  std::string error;

  bool operator==(const JournalRecord&) const = default;
};

/// Append-side of the journal: opens (creating if needed) in append mode and
/// makes every record durable — write + fsync — before append() returns, so
/// a record either exists completely or not at all after any crash. Write
/// failures throw std::runtime_error (the campaign driver records them).
class PlanJournal {
 public:
  explicit PlanJournal(const std::string& path);
  ~PlanJournal();
  PlanJournal(const PlanJournal&) = delete;
  PlanJournal& operator=(const PlanJournal&) = delete;

  const std::string& path() const { return path_; }

  /// Durably append one record (one fsync'd line).
  void append(const JournalRecord& record);

  /// Serialise a record as its journal line (without the trailing newline).
  static std::string format(const JournalRecord& record);
  /// Parse one journal line: exactly format()'s eight fields, in its order,
  /// and nothing after them. std::nullopt when the line is malformed or
  /// incomplete (a torn tail write).
  static std::optional<JournalRecord> parse_line(const std::string& line);

  /// Read every complete record of `path` and REPAIR the file in place: the
  /// first incomplete or unparsable line — a write torn by a crash — and
  /// everything after it is truncated away, so a subsequent PlanJournal can
  /// append cleanly. A missing file yields an empty vector (fresh start).
  /// IO errors other than non-existence throw std::runtime_error.
  static std::vector<JournalRecord> recover(const std::string& path);

 private:
  std::string path_;
  int fd_{-1};
};

/// The --resume step of the CLI and the daemon alike: recover
/// `journal_path` (repairing a torn tail), then truncate `output_path` back
/// to the last journaled offset (0 when no record survived), cutting any
/// torn output tail so the output can be reopened for appending. Returns the
/// journal's intact records, the cells the resumed campaign skips.
std::vector<JournalRecord> resume_output(const std::string& journal_path,
                                         const std::string& output_path);

/// Truncate `path` to exactly `size` bytes (used by --resume to cut a torn
/// output tail back to the last journaled offset). Throws std::runtime_error
/// on failure; truncating a missing file to 0 bytes creates it empty.
void truncate_file(const std::string& path, std::uint64_t size);

}  // namespace dfly
