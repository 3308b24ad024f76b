#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/study.hpp"

/// Flat `key = value` configuration files for the experiment binaries.
///
/// Every bench accepts `--config=FILE` (and `dflysim` additionally accepts
/// `--plan=FILE`, see core/plan.hpp) so the paper system — and any variant —
/// can be described declaratively instead of recompiled. Format:
///
///     # paper.cfg — the 1,056-node SC'22 system
///     topo.p = 4
///     topo.a = 8
///     topo.h = 4
///     topo.g = 33
///     routing = Q-adp
///     placement = random
///     seed = 42
///     net.buffer_packets = 30
///     qos.num_classes = 2
///     qos.weights = 4,1
///     cc.enabled = true
///
/// Lines starting with `#` or `;` are comments; whitespace is trimmed;
/// duplicate keys are rejected (naming both lines) and unknown keys are
/// rejected by `apply_config` (typo safety).
namespace dfly {

class ConfigFile {
 public:
  ConfigFile() = default;

  /// Parse from a file (throws std::runtime_error on IO failure or syntax
  /// errors — no '=', empty key, duplicate key; messages name the offending
  /// line number) or from an in-memory string.
  static ConfigFile load(const std::string& path);
  static ConfigFile parse(const std::string& text);

  bool has(const std::string& key) const { return values_.count(key) > 0; }
  /// 1-based source line of `key` (0 = set programmatically or absent).
  int line_of(const std::string& key) const;
  /// "line N" when the key has a source line, else "key 'K'" — the prefix
  /// every value-error message uses so config mistakes point at the file.
  std::string where(const std::string& key) const;

  /// Typed getters; the default is returned when the key is absent. Throws
  /// std::invalid_argument when a present value fails to convert; the
  /// message names the source line when the key came from a file.
  std::string get_string(const std::string& key, const std::string& fallback = "") const;
  int get_int(const std::string& key, int fallback = 0) const;
  double get_double(const std::string& key, double fallback = 0.0) const;
  /// Accepts true/false/1/0/yes/no/on/off (case-insensitive).
  bool get_bool(const std::string& key, bool fallback = false) const;
  /// Comma-separated integer list.
  std::vector<int> get_int_list(const std::string& key) const;
  /// Comma-separated string list (items trimmed; empty items rejected).
  std::vector<std::string> get_string_list(const std::string& key) const;
  /// Comma-separated seed list where each item is either one seed (`42`) or
  /// an inclusive range (`42..46`). Errors name the offending line.
  std::vector<std::uint64_t> get_seed_list(const std::string& key) const;

  void set(const std::string& key, const std::string& value, int line = 0) {
    values_[key] = value;
    lines_[key] = line;
  }
  const std::map<std::string, std::string>& values() const { return values_; }

  /// Re-emit as parseable `key = value` text (keys in sorted order). A
  /// ConfigFile survives parse(emit()) exactly.
  std::string emit() const;

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, int> lines_;  ///< 1-based source line per key
};

/// Overlay a config file onto a StudyConfig. Recognised keys:
///   topo.{p,a,h,g}            Dragonfly shape
///   topo.arrangement          relative/absolute global-link wiring
///   routing                   MIN/VALg/VALn/UGALg/UGALn/PAR/Q-adp/...
///   placement                 random/contiguous/linear
///   seed, scale               run knobs
///   time_limit_ms             simulation guard (simulated clock)
///   wall_limit_s              cooperative real-time watchdog (0 = off)
///   net.{flit_bytes,packet_bytes,buffer_packets,num_vcs,link_gbps}
///   net.{local_latency_ns,global_latency_ns,router_latency_ns}
///   protocol.{eager_threshold,control_bytes}  eager/rendezvous split
///   qos.{num_classes,weights,quantum_packets}
///   cc.{enabled,ecn_threshold_packets,md_factor,ai_step,min_rate}
///   qadp.{alpha,epsilon,queue_weight}         Q-adaptive hyperparameters
///   ugal.{bias,nonmin_weight,min_candidates,nonmin_candidates}
///   faults                    router:port:slowdown[:extra_ns],...
/// Unknown keys throw std::invalid_argument (naming the source line when the
/// file was parsed from text). `plan.*` keys belong to plan_from_config
/// (core/plan.hpp) and are rejected here.
StudyConfig apply_config(StudyConfig base, const ConfigFile& file);

/// The exact inverse of apply_config: emit every accepted key from `config`
/// (the `faults` key is omitted when the plan is empty). Both directions are
/// driven by one key table, so
///   apply_config(StudyConfig{}, ConfigFile::parse(config_to_file(c).emit()))
/// reproduces `c` for every key (time_limit at millisecond granularity).
ConfigFile config_to_file(const StudyConfig& config);

/// `text` as a whole decimal integer of at least `min` for command-line
/// `flag`. Anything else — junk, a trailing suffix, overflow, a value below
/// `min` — throws std::invalid_argument with one line naming the flag, so a
/// typo never runs a different experiment than the one asked for. dflysim
/// and the bench harness parse every integer flag through this.
template <typename T>
T int_flag(const char* flag, const std::string& text, T min) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value < min) {
    throw std::invalid_argument(std::string(flag) + " wants an integer >= " +
                                std::to_string(min) + ", got '" + text + "'");
  }
  return value;
}

}  // namespace dfly
