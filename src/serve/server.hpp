#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/blueprint.hpp"
#include "core/mutex.hpp"
#include "core/parallel.hpp"
#include "serve/session.hpp"

/// The campaign daemon behind `dflysim --serve=SOCKET`.
///
/// One long-running process owns a unix-domain listening socket, a spool
/// directory, and a single warm SubmissionQueue (shared worker arenas + one
/// BlueprintCache). Clients connect, send one newline-delimited JSON request
/// (see serve/protocol.hpp), and either get a one-line answer (status /
/// cancel / stats / shutdown) or — for submit — a streamed campaign:
/// accepted header, raw JSONL cell lines byte-identical to a local
/// `--plan ... --jsonl=-` run, and a final done line. Every accepted
/// campaign is journaled under the spool directory, so a daemon killed with
/// SIGKILL resumes all unfinished campaigns on restart and completes their
/// spool outputs byte-identically (docs/DAEMON.md).
namespace dfly::serve {

struct ServeOptions {
  std::string socket_path;  ///< unix-domain socket to listen on
  /// Spool directory for <id>.{plan,journal,jsonl,done}; defaults to
  /// socket_path + ".spool". Created if missing.
  std::string spool_dir;
  /// Worker threads of the shared pool: > 0 exact, else DFSIM_JOBS, else
  /// one worker (resolve_jobs).
  int jobs{0};
};

class Server {
 public:
  /// Binds + listens (replacing any stale socket file) and creates the
  /// spool directory. Throws std::runtime_error on socket/spool errors.
  explicit Server(ServeOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept-and-dispatch loop. First resumes every unfinished spool entry,
  /// then serves requests until a shutdown op arrives or request_stop() is
  /// called; drains (or, for shutdown mode "now", cancels) active campaigns
  /// before returning. Returns the process exit status (0).
  int serve();

  /// Ask the accept loop to stop (safe from another thread or — being a
  /// lock-free atomic store — from a signal handler). Equivalent to a
  /// shutdown op with mode "drain".
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  const std::string& socket_path() const { return options_.socket_path; }
  const std::string& spool_dir() const { return options_.spool_dir; }
  int jobs() const { return queue_.jobs(); }
  /// Stats of the pool-wide blueprint cache (cross-campaign sharing proof).
  BlueprintCache::Stats cache_stats() { return queue_.cache().stats(); }

 private:
  /// One client connection still waiting for its request line.
  struct PendingConn {
    int fd{-1};
    std::string buffer;
  };

  void scan_spool_for_resume() EXCLUDES(mutex_);
  void start_campaign(const std::shared_ptr<Campaign>& campaign) EXCLUDES(mutex_);
  /// Handle one complete request line; owns the decision to keep `fd` (a
  /// submit hands it to the campaign) or close it. Never throws.
  void dispatch(const std::string& line, int fd) EXCLUDES(mutex_);
  void reply_and_close(int fd, const std::string& line);
  std::string next_campaign_id() EXCLUDES(mutex_);
  void reap_finished_drivers(bool join_all) EXCLUDES(mutex_);

  ServeOptions options_;
  SubmissionQueue queue_;
  int listen_fd_{-1};
  std::atomic<bool> stop_{false};
  // Acceptor-loop-only state: the poll bookkeeping and shutdown latches are
  // touched by serve()'s thread alone, never by campaign drivers.
  bool shutdown_requested_{false};
  bool shutdown_drain_{true};
  std::vector<PendingConn> pending_;
  // Campaign bookkeeping. Today only the acceptor thread touches these, but
  // the lock (and the annotations proving it is taken) is the contract the
  // multi-node coordinator work builds on: campaign drivers stay confined to
  // their Campaign, and every id/map/driver-list access goes through mutex_.
  Mutex mutex_;
  std::size_t next_id_ GUARDED_BY(mutex_){1};
  std::map<std::string, std::shared_ptr<Campaign>> campaigns_ GUARDED_BY(mutex_);
  std::vector<std::pair<std::thread, std::shared_ptr<Campaign>>> drivers_ GUARDED_BY(mutex_);
};

}  // namespace dfly::serve
