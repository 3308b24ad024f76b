#include "serve/session.hpp"

#include <unistd.h>

#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "core/config_file.hpp"
#include "core/journal.hpp"
#include "core/json_report.hpp"
#include "serve/protocol.hpp"

namespace dfly::serve {

const char* Campaign::to_string(State state) {
  switch (state) {
    case State::kQueued: return "queued";
    case State::kRunning: return "running";
    case State::kDone: return "done";
    case State::kCancelled: return "cancelled";
    case State::kFailed: return "failed";
  }
  return "?";
}

/// Streams results over the client connection: raw cell JSONL lines (the
/// same bytes JsonlSink writes — plan_cell_jsonl is the single formatter)
/// plus {"serve":"cell_failed",...} control lines. NEVER throws: a write
/// failure means the client is gone, which must cancel this campaign — not
/// convert a perfectly good, already-spooled cell into a sink_error failure
/// in the journal.
class Campaign::StreamSink final : public PlanSink {
 public:
  StreamSink(int fd, Campaign& campaign) : fd_(fd), campaign_(&campaign) {}

  void cell_done(const PlanCell& cell, const Report& report) override {
    send(plan_cell_jsonl(cell, report) + '\n');
  }

  void cell_failed(const PlanCell& cell, const CellFailure& failure) override {
    JsonWriter w;
    w.begin_object();
    w.key("serve").value("cell_failed");
    w.key("campaign").value(campaign_->id());
    w.key("cell").value(static_cast<std::uint64_t>(cell.index));
    w.key("message").value(failure.message);
    w.key("attempts").value(failure.attempts);
    w.key("timeout").value(failure.timeout);
    w.key("sink_error").value(failure.sink_error);
    w.end_object();
    send(w.str() + '\n');
  }

 private:
  void send(const std::string& line) {
    if (broken_) return;
    if (!write_all(fd_, line)) {
      // EPIPE/ECONNRESET: the client hung up mid-plan. Cancel exactly this
      // campaign; everything already journaled stays valid.
      broken_ = true;
      campaign_->cancel();
    }
  }

  int fd_;
  Campaign* campaign_;
  bool broken_{false};
};

/// Keeps the status-op counters live while the campaign streams.
class Campaign::CountSink final : public PlanSink {
 public:
  explicit CountSink(Campaign& campaign) : campaign_(&campaign) {}

  void begin(const ExperimentPlan&, const std::vector<PlanCell>& cells) override {
    campaign_->cells_.store(cells.size(), std::memory_order_relaxed);
  }
  void cell_done(const PlanCell&, const Report&) override {
    campaign_->completed_.fetch_add(1, std::memory_order_relaxed);
  }
  void cell_failed(const PlanCell&, const CellFailure&) override {
    campaign_->failed_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  Campaign* campaign_;
};

Campaign::Campaign(std::string id, std::string spool_dir, std::string config_text,
                   int client_fd, bool resume)
    : id_(std::move(id)),
      spool_dir_(std::move(spool_dir)),
      config_text_(std::move(config_text)),
      client_fd_(client_fd),
      resume_(resume) {}

Campaign::~Campaign() { close_client(); }

void Campaign::close_client() {
  if (client_fd_ >= 0) {
    ::close(client_fd_);
    client_fd_ = -1;
  }
}

void Campaign::write_done_marker(const std::string& state, const PlanOutcome* outcome) {
  // The marker is what tells a restarted daemon this spool entry needs no
  // resume. Best-effort (a failed marker write means one redundant resume,
  // which the journal machinery replays to identical output anyway).
  JsonWriter w;
  w.begin_object();
  w.key("state").value(state);
  if (outcome != nullptr) {
    w.key("cells").value(static_cast<std::uint64_t>(outcome->cells));
    w.key("completed").value(static_cast<std::uint64_t>(outcome->completed));
    w.key("failed").value(static_cast<std::uint64_t>(outcome->failures.size()));
    w.key("resumed").value(static_cast<std::uint64_t>(outcome->resumed));
  }
  w.end_object();
  std::ofstream marker(done_path(), std::ios::binary | std::ios::trunc);
  marker << w.str() << '\n';
}

void Campaign::run(SubmissionQueue& queue) {
  state_.store(State::kRunning, std::memory_order_relaxed);
  PlanOutcome outcome;
  bool ran = false;
  std::string fatal;
  try {
    ConfigFile file = ConfigFile::parse(config_text_);
    const ExperimentPlan plan = plan_from_config(file);

    RunPlanOptions options;
    options.queue = &queue;
    options.cancel = &cancel_;

    std::vector<JournalRecord> resume_records;
    if (resume_) {
      resume_records = resume_output(journal_path(), jsonl_path());
      options.resume = &resume_records;
    }
    JsonlSink jsonl(jsonl_path(), /*append=*/resume_);
    PlanJournal journal(journal_path());
    options.journal = &journal;
    options.output_offset = [&jsonl] { return jsonl.bytes_written(); };

    // Sink order matters: the spool JSONL commits first (its offset is what
    // the journal records), counters next, the client stream last — and the
    // stream sink never throws, so a vanished client can never poison the
    // durable record of a finished cell.
    TeeSink sinks;
    sinks.add(&jsonl);
    CountSink counts(*this);
    sinks.add(&counts);
    std::unique_ptr<StreamSink> stream;
    if (client_fd_ >= 0) {
      stream = std::make_unique<StreamSink>(client_fd_, *this);
      sinks.add(stream.get());
    }

    outcome = run_plan(plan, sinks, options);
    ran = true;
  } catch (const std::exception& error) {
    fatal = error.what();
  } catch (...) {
    fatal = "unknown exception";
  }

  State final_state;
  if (!ran) {
    final_state = State::kFailed;
    {
      const MutexLock lock(error_mutex_);
      error_ = fatal;
    }
    write_done_marker("failed", nullptr);
  } else {
    completed_.store(outcome.completed, std::memory_order_relaxed);
    failed_.store(outcome.failures.size(), std::memory_order_relaxed);
    resumed_.store(outcome.resumed, std::memory_order_relaxed);
    cells_.store(outcome.cells, std::memory_order_relaxed);
    final_state = cancelled() ? State::kCancelled : State::kDone;
    write_done_marker(to_string(final_state), &outcome);
  }

  // Final control line to the client, then EOF.
  if (client_fd_ >= 0) {
    JsonWriter w;
    w.begin_object();
    if (!ran) {
      w.key("serve").value("error");
      w.key("campaign").value(id_);
      w.key("message").value(fatal);
    } else {
      w.key("serve").value("done");
      w.key("campaign").value(id_);
      w.key("ok").value(outcome.all_ok());
      w.key("cells").value(static_cast<std::uint64_t>(outcome.cells));
      w.key("completed").value(static_cast<std::uint64_t>(outcome.completed));
      w.key("failed").value(static_cast<std::uint64_t>(outcome.failures.size()));
      w.key("resumed").value(static_cast<std::uint64_t>(outcome.resumed));
      w.key("cancelled").value(cancelled());
    }
    w.end_object();
    write_all(client_fd_, w.str() + '\n');
    close_client();
  }
  state_.store(final_state, std::memory_order_relaxed);
}

std::string Campaign::status_line() const {
  JsonWriter w;
  w.begin_object();
  w.key("serve").value("status");
  w.key("campaign").value(id_);
  w.key("state").value(to_string(state()));
  w.key("cells").value(static_cast<std::uint64_t>(cells_.load(std::memory_order_relaxed)));
  w.key("completed")
      .value(static_cast<std::uint64_t>(completed_.load(std::memory_order_relaxed)));
  w.key("failed").value(static_cast<std::uint64_t>(failed_.load(std::memory_order_relaxed)));
  w.key("resumed").value(static_cast<std::uint64_t>(resumed_.load(std::memory_order_relaxed)));
  {
    const MutexLock lock(error_mutex_);
    w.key("error").value(error_);
  }
  w.end_object();
  return w.str();
}

}  // namespace dfly::serve
