#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pairwise.hpp"
#include "core/parallel.hpp"
#include "core/study.hpp"

namespace dfly::bench {

/// Worker count every bench uses when a call site does not pass one:
/// --jobs=N (recorded by Options::parse), else DFSIM_JOBS, else
/// hardware_jobs() (every core, capped by memory).
int default_jobs();
/// Record the harness-wide --jobs value (0 = unset). Options::parse calls
/// this; exposed for drivers with their own flag parsing.
void set_default_jobs(int jobs);

/// Run independent simulation tasks concurrently (each task is a complete
/// Study; they share no state) on a private dfly::SubmissionQueue of
/// `threads` workers (default: default_jobs()), never more than there are
/// tasks. Results are returned in submission order, so callers print
/// deterministic tables. Every task runs; if any threw, throws
/// std::runtime_error carrying the per-worker failure summary.
template <typename T>
std::vector<T> parallel_map(const std::vector<std::function<T()>>& tasks, int threads = 0) {
  std::vector<T> results(tasks.size());
  if (tasks.empty()) return results;
  const std::size_t jobs = static_cast<std::size_t>(threads > 0 ? threads : default_jobs());
  SubmissionQueue queue(static_cast<int>(std::min(jobs, tasks.size())));
  WorkerErrors errors;
  queue.run_indexed(tasks.size(), [&](std::size_t i) { results[i] = tasks[i](); }, &errors);
  if (errors.any()) throw std::runtime_error(errors.summary());
  return results;
}

/// Common command-line options for the experiment harnesses.
///
///   --scale=N        iteration divisor (default 8; 1 = paper-scale volumes)
///   --seed=N         placement/routing RNG seed
///   --routing=NAME   restrict to one routing (default: the paper's four)
///   --jobs=N         worker threads for independent cells (default:
///                    DFSIM_JOBS, else all cores, memory-capped — see
///                    memory_jobs_cap)
///   --json=FILE      also write the bench's machine-readable report
///   --full           shorthand for --scale=1
///   --quick          shorthand for --scale=32
///   --smoke          CI mode: --scale=64 plus a bench-defined minimal sweep
///
/// --json and --smoke are opt-in per bench (`Caps`): a driver that has not
/// implemented them rejects the flag instead of silently ignoring it.
///
/// Which optional flags a bench actually honours (namespace scope so it can
/// be a default argument of Options::parse). `jobs` defaults on because
/// every cell-sweep bench routes through parallel_map / the core batch
/// drivers; the few strictly-sequential benches opt out so --jobs is
/// rejected, not silently ignored.
struct Caps {
  bool json{false};
  bool smoke{false};
  bool jobs{true};
};

struct Options {
  int scale{8};
  std::uint64_t seed{42};
  std::string routing;    ///< empty = sweep the paper's four routings
  int jobs{0};            ///< 0 = DFSIM_JOBS, else all cores (memory-capped)
  std::string json_path;  ///< empty = console table only
  bool smoke{false};      ///< benches shrink their sweep to a representative cell or two

  /// `default_scale` lets heavy benches (the 168-cell Fig 4 sweep) default
  /// to a coarser scale so the whole suite completes in minutes; --scale
  /// and --full always override.
  static Options parse(int argc, char** argv, int default_scale = 8, Caps caps = Caps{});

  /// Routings to sweep (honours --routing).
  std::vector<std::string> routings() const;

  /// A StudyConfig for the paper's 1,056-node system with these options.
  StudyConfig config(const std::string& routing_name) const;
};

/// Printf-style row helpers for aligned console tables.
void print_header(const std::string& title);
void print_rule();

/// Format helpers.
std::string fmt(double value, int decimals = 2);

}  // namespace dfly::bench
