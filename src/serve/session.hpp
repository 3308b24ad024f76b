#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "core/mutex.hpp"
#include "core/parallel.hpp"
#include "core/plan.hpp"

/// One accepted campaign inside the daemon (`dflysim --serve`).
///
/// A Campaign owns everything a submission needs to run, stream and survive:
/// its spool entry (<spool>/<id>.{plan,journal,jsonl,done}), the client
/// connection it streams results to (if any — a campaign resumed after a
/// daemon restart has none), its cooperative cancel flag, and the live
/// counters the `status` op reports. The driver body, run(), executes the
/// plan through the journal and the resume step (resume_output) the CLI
/// uses (see docs/ROBUSTNESS.md), so a daemon killed with SIGKILL resumes every
/// unfinished spool entry to byte-identical output on restart; cells execute
/// on the server's shared SubmissionQueue so every campaign shares warm
/// worker arenas and one BlueprintCache.
namespace dfly::serve {

class Campaign {
 public:
  enum class State { kQueued, kRunning, kDone, kCancelled, kFailed };

  /// `client_fd` < 0 = no attached client (spool resume). The campaign takes
  /// ownership of the fd and closes it when the stream ends.
  Campaign(std::string id, std::string spool_dir, std::string config_text, int client_fd,
           bool resume);
  ~Campaign();
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  const std::string& id() const { return id_; }
  std::string plan_path() const { return spool_base() + ".plan"; }
  std::string journal_path() const { return spool_base() + ".journal"; }
  std::string jsonl_path() const { return spool_base() + ".jsonl"; }
  std::string done_path() const { return spool_base() + ".done"; }

  /// Driver body (runs on its own thread): execute the campaign on the
  /// shared pool, stream to the spool JSONL + the client, journal every
  /// cell, write the .done marker. Never throws.
  void run(SubmissionQueue& queue);

  /// Request cooperative cancellation (cancel op, client disconnect,
  /// shutdown mode "now"): cells not yet started stop running; the driver
  /// finishes and marks the campaign cancelled.
  void cancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancel_.load(std::memory_order_relaxed); }

  State state() const { return state_.load(std::memory_order_relaxed); }
  bool finished() const {
    const State s = state();
    return s == State::kDone || s == State::kCancelled || s == State::kFailed;
  }

  /// One {"serve":"status",...} line (no trailing newline) for the status op.
  std::string status_line() const;

  static const char* to_string(State state);

 private:
  class StreamSink;
  class CountSink;

  std::string spool_base() const { return spool_dir_ + "/" + id_; }
  void write_done_marker(const std::string& state, const PlanOutcome* outcome);
  /// Close the client connection (idempotent; safe from the driver only).
  void close_client();

  std::string id_;
  std::string spool_dir_;
  std::string config_text_;
  int client_fd_;
  bool resume_;
  std::atomic<bool> cancel_{false};
  std::atomic<State> state_{State::kQueued};
  // Live counters for the status op (written by the driver thread, read by
  // the acceptor thread).
  std::atomic<std::size_t> cells_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> failed_{0};
  std::atomic<std::size_t> resumed_{0};
  // First fatal (infrastructure) error, for status after State::kFailed —
  // written by the driver thread, read by the acceptor's status op.
  mutable Mutex error_mutex_;
  std::string error_ GUARDED_BY(error_mutex_);
};

}  // namespace dfly::serve
