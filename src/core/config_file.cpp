#include "core/config_file.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

namespace dfly {

namespace {

std::string trim(const std::string& raw) {
  const auto first = raw.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = raw.find_last_not_of(" \t\r\n");
  return raw.substr(first, last - first + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Shortest decimal that parses back to the same double, so emit/parse
/// round-trips bit-exactly without printing 17 digits for "0.2".
std::string format_double(double v) {
  char buffer[40];
  for (const int precision : {9, 17}) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, v);
    if (std::stod(buffer) == v) break;
  }
  return buffer;
}

std::string format_fault_plan(const FaultPlan& plan) {
  std::string out;
  for (const LinkFault& fault : plan.faults()) {
    if (!out.empty()) out += ',';
    out += std::to_string(fault.router) + ':' + std::to_string(fault.port) + ':' +
           std::to_string(fault.slowdown) + ':' + std::to_string(fault.extra_latency / kNs);
  }
  return out;
}

std::string join_ints(const std::vector<int>& values) {
  std::string out;
  for (const int v : values) {
    if (!out.empty()) out += ',';
    out += std::to_string(v);
  }
  return out;
}

}  // namespace

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ConfigFile: cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile file;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#' || stripped.front() == ';') continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("ConfigFile: line " + std::to_string(line_no) +
                               " has no '=': " + stripped);
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("ConfigFile: empty key on line " + std::to_string(line_no));
    }
    if (file.has(key)) {
      throw std::runtime_error("ConfigFile: duplicate key '" + key + "' on line " +
                               std::to_string(line_no) + " (first set on line " +
                               std::to_string(file.line_of(key)) + ")");
    }
    file.set(key, value, line_no);
  }
  return file;
}

int ConfigFile::line_of(const std::string& key) const {
  const auto it = lines_.find(key);
  return it == lines_.end() ? 0 : it->second;
}

std::string ConfigFile::where(const std::string& key) const {
  const int line = line_of(key);
  if (line > 0) return "line " + std::to_string(line);
  return "key '" + key + "'";
}

std::string ConfigFile::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int ConfigFile::get_int(const std::string& key, int fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const int v = std::stoi(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("ConfigFile: " + where(key) + ": '" + key +
                                "' is not an int: " + it->second);
  }
}

double ConfigFile::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double v = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("ConfigFile: " + where(key) + ": '" + key +
                                "' is not a number: " + it->second);
  }
}

bool ConfigFile::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string v = lower(it->second);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("ConfigFile: " + where(key) + ": '" + key +
                              "' is not a bool: " + it->second);
}

std::vector<int> ConfigFile::get_int_list(const std::string& key) const {
  const auto it = values_.find(key);
  std::vector<int> out;
  if (it == values_.end()) return out;
  std::istringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::string t = trim(item);
    if (t.empty()) continue;
    try {
      out.push_back(std::stoi(t));
    } catch (const std::exception&) {
      throw std::invalid_argument("ConfigFile: " + where(key) + ": '" + key +
                                  "' has a non-int item: " + t);
    }
  }
  return out;
}

std::vector<std::string> ConfigFile::get_string_list(const std::string& key) const {
  const auto it = values_.find(key);
  std::vector<std::string> out;
  if (it == values_.end()) return out;
  std::istringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::string t = trim(item);
    if (t.empty()) {
      throw std::invalid_argument("ConfigFile: " + where(key) + ": '" + key +
                                  "' has an empty item: " + it->second);
    }
    out.push_back(t);
  }
  return out;
}

std::vector<std::uint64_t> ConfigFile::get_seed_list(const std::string& key) const {
  std::vector<std::uint64_t> out;
  if (!has(key)) return out;
  const auto fail = [&](const std::string& item, const std::string& why) -> void {
    throw std::invalid_argument("ConfigFile: " + where(key) + ": '" + key + "' item '" + item +
                                "' " + why + " (expected N or A..B)");
  };
  const auto parse_seed = [&](const std::string& item, const std::string& text) {
    // Digits only: std::stoull would silently wrap "-1" to 2^64-1.
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
      fail(item, "is not a seed");
    }
    try {
      std::size_t used = 0;
      const std::uint64_t v = std::stoull(text, &used);
      if (used != text.size()) throw std::invalid_argument("trailing");
      return v;
    } catch (const std::exception&) {
      fail(item, "is not a seed");
      return std::uint64_t{0};  // unreachable
    }
  };
  for (const std::string& item : get_string_list(key)) {
    const auto dots = item.find("..");
    if (dots == std::string::npos) {
      out.push_back(parse_seed(item, item));
      continue;
    }
    const std::uint64_t first = parse_seed(item, trim(item.substr(0, dots)));
    const std::uint64_t last = parse_seed(item, trim(item.substr(dots + 2)));
    if (last < first) fail(item, "is a descending range");
    for (std::uint64_t seed = first; seed <= last; ++seed) {
      out.push_back(seed);
      if (seed == last) break;  // guard: last == UINT64_MAX must not wrap
    }
  }
  return out;
}

std::string ConfigFile::emit() const {
  std::string out;
  for (const auto& [key, value] : values_) {
    out += key + " = " + value + "\n";
  }
  return out;
}

namespace {

/// One accepted config key: how to apply its text onto a StudyConfig and how
/// to emit it back from one. Both apply_config and config_to_file walk this
/// single table, so the two directions cannot drift apart.
struct KeySpec {
  const char* key;
  std::function<void(StudyConfig&, const ConfigFile&, const std::string&)> apply;
  std::function<std::string(const StudyConfig&)> to_text;
};

const std::vector<KeySpec>& key_specs() {
  using C = StudyConfig;
  using F = ConfigFile;
  static const std::vector<KeySpec> specs{
      {"topo.p", [](C& c, const F& f, const std::string& k) { c.topo.p = f.get_int(k); },
       [](const C& c) { return std::to_string(c.topo.p); }},
      {"topo.a", [](C& c, const F& f, const std::string& k) { c.topo.a = f.get_int(k); },
       [](const C& c) { return std::to_string(c.topo.a); }},
      {"topo.h", [](C& c, const F& f, const std::string& k) { c.topo.h = f.get_int(k); },
       [](const C& c) { return std::to_string(c.topo.h); }},
      {"topo.g", [](C& c, const F& f, const std::string& k) { c.topo.g = f.get_int(k); },
       [](const C& c) { return std::to_string(c.topo.g); }},
      {"topo.arrangement",
       [](C& c, const F& f, const std::string& k) {
         c.topo.arrangement = arrangement_from_string(f.get_string(k));
       },
       [](const C& c) { return std::string(to_string(c.topo.arrangement)); }},
      {"routing", [](C& c, const F& f, const std::string& k) { c.routing = f.get_string(k); },
       [](const C& c) { return c.routing; }},
      {"placement",
       [](C& c, const F& f, const std::string& k) {
         c.placement = placement_from_string(f.get_string(k));
       },
       [](const C& c) { return std::string(to_string(c.placement)); }},
      {"seed",
       [](C& c, const F& f, const std::string& k) {
         const std::vector<std::uint64_t> seeds = f.get_seed_list(k);
         if (seeds.size() != 1) {
           throw std::invalid_argument("ConfigFile: " + f.where(k) +
                                       ": 'seed' wants exactly one seed (use plan.seeds for "
                                       "a multi-seed axis)");
         }
         c.seed = seeds.front();
       },
       [](const C& c) { return std::to_string(c.seed); }},
      {"scale",
       [](C& c, const F& f, const std::string& k) {
         c.scale = f.get_int(k);
         if (c.scale < 1) {
           throw std::invalid_argument("ConfigFile: " + f.where(k) + ": 'scale' must be >= 1");
         }
       },
       [](const C& c) { return std::to_string(c.scale); }},
      {"time_limit_ms",
       [](C& c, const F& f, const std::string& k) { c.time_limit = f.get_int(k) * kMs; },
       [](const C& c) { return std::to_string(c.time_limit / kMs); }},
      {"wall_limit_s",
       [](C& c, const F& f, const std::string& k) {
         c.wall_limit_s = f.get_double(k);
         if (c.wall_limit_s < 0) {
           throw std::invalid_argument("ConfigFile: " + f.where(k) +
                                       ": 'wall_limit_s' must be >= 0");
         }
       },
       [](const C& c) { return format_double(c.wall_limit_s); }},
      {"net.flit_bytes",
       [](C& c, const F& f, const std::string& k) { c.net.flit_bytes = f.get_int(k); },
       [](const C& c) { return std::to_string(c.net.flit_bytes); }},
      {"net.packet_bytes",
       [](C& c, const F& f, const std::string& k) { c.net.packet_bytes = f.get_int(k); },
       [](const C& c) { return std::to_string(c.net.packet_bytes); }},
      {"net.buffer_packets",
       [](C& c, const F& f, const std::string& k) { c.net.buffer_packets = f.get_int(k); },
       [](const C& c) { return std::to_string(c.net.buffer_packets); }},
      {"net.num_vcs",
       [](C& c, const F& f, const std::string& k) { c.net.num_vcs = f.get_int(k); },
       [](const C& c) { return std::to_string(c.net.num_vcs); }},
      {"net.link_gbps",
       [](C& c, const F& f, const std::string& k) { c.net.link_gbps = f.get_double(k); },
       [](const C& c) { return format_double(c.net.link_gbps); }},
      {"net.local_latency_ns",
       [](C& c, const F& f, const std::string& k) { c.net.local_latency = f.get_int(k) * kNs; },
       [](const C& c) { return std::to_string(c.net.local_latency / kNs); }},
      {"net.global_latency_ns",
       [](C& c, const F& f, const std::string& k) { c.net.global_latency = f.get_int(k) * kNs; },
       [](const C& c) { return std::to_string(c.net.global_latency / kNs); }},
      {"net.router_latency_ns",
       [](C& c, const F& f, const std::string& k) { c.net.router_latency = f.get_int(k) * kNs; },
       [](const C& c) { return std::to_string(c.net.router_latency / kNs); }},
      {"protocol.eager_threshold",
       [](C& c, const F& f, const std::string& k) { c.protocol.eager_threshold = f.get_int(k); },
       [](const C& c) { return std::to_string(c.protocol.eager_threshold); }},
      {"protocol.control_bytes",
       [](C& c, const F& f, const std::string& k) { c.protocol.control_bytes = f.get_int(k); },
       [](const C& c) { return std::to_string(c.protocol.control_bytes); }},
      {"qos.num_classes",
       [](C& c, const F& f, const std::string& k) { c.net.qos.num_classes = f.get_int(k); },
       [](const C& c) { return std::to_string(c.net.qos.num_classes); }},
      {"qos.weights",
       [](C& c, const F& f, const std::string& k) { c.net.qos.weights = f.get_int_list(k); },
       [](const C& c) { return join_ints(c.net.qos.weights); }},
      {"qos.quantum_packets",
       [](C& c, const F& f, const std::string& k) { c.net.qos.quantum_packets = f.get_int(k); },
       [](const C& c) { return std::to_string(c.net.qos.quantum_packets); }},
      {"cc.enabled",
       [](C& c, const F& f, const std::string& k) { c.net.cc.enabled = f.get_bool(k); },
       [](const C& c) { return std::string(c.net.cc.enabled ? "true" : "false"); }},
      {"cc.ecn_threshold_packets",
       [](C& c, const F& f, const std::string& k) {
         c.net.cc.ecn_threshold_packets = f.get_int(k);
       },
       [](const C& c) { return std::to_string(c.net.cc.ecn_threshold_packets); }},
      {"cc.md_factor",
       [](C& c, const F& f, const std::string& k) { c.net.cc.md_factor = f.get_double(k); },
       [](const C& c) { return format_double(c.net.cc.md_factor); }},
      {"cc.ai_step",
       [](C& c, const F& f, const std::string& k) { c.net.cc.ai_step = f.get_double(k); },
       [](const C& c) { return format_double(c.net.cc.ai_step); }},
      {"cc.min_rate",
       [](C& c, const F& f, const std::string& k) { c.net.cc.min_rate = f.get_double(k); },
       [](const C& c) { return format_double(c.net.cc.min_rate); }},
      {"qadp.alpha",
       [](C& c, const F& f, const std::string& k) { c.qadp.alpha = f.get_double(k); },
       [](const C& c) { return format_double(c.qadp.alpha); }},
      {"qadp.epsilon",
       [](C& c, const F& f, const std::string& k) { c.qadp.epsilon = f.get_double(k); },
       [](const C& c) { return format_double(c.qadp.epsilon); }},
      {"qadp.queue_weight",
       [](C& c, const F& f, const std::string& k) { c.qadp.queue_weight = f.get_double(k); },
       [](const C& c) { return format_double(c.qadp.queue_weight); }},
      {"ugal.bias", [](C& c, const F& f, const std::string& k) { c.ugal.bias = f.get_int(k); },
       [](const C& c) { return std::to_string(c.ugal.bias); }},
      {"ugal.nonmin_weight",
       [](C& c, const F& f, const std::string& k) { c.ugal.nonmin_weight = f.get_int(k); },
       [](const C& c) { return std::to_string(c.ugal.nonmin_weight); }},
      {"ugal.min_candidates",
       [](C& c, const F& f, const std::string& k) { c.ugal.min_candidates = f.get_int(k); },
       [](const C& c) { return std::to_string(c.ugal.min_candidates); }},
      {"ugal.nonmin_candidates",
       [](C& c, const F& f, const std::string& k) { c.ugal.nonmin_candidates = f.get_int(k); },
       [](const C& c) { return std::to_string(c.ugal.nonmin_candidates); }},
      {"faults",
       [](C& c, const F& f, const std::string& k) {
         c.faults = parse_fault_plan(f.get_string(k));
       },
       [](const C& c) { return format_fault_plan(c.faults); }},
  };
  return specs;
}

const KeySpec* find_spec(const std::string& key) {
  for (const KeySpec& spec : key_specs()) {
    if (key == spec.key) return &spec;
  }
  return nullptr;
}

}  // namespace

StudyConfig apply_config(StudyConfig base, const ConfigFile& file) {
  for (const auto& [key, value] : file.values()) {
    (void)value;
    const KeySpec* spec = find_spec(key);
    if (spec == nullptr) {
      throw std::invalid_argument("apply_config: " + file.where(key) + ": unknown key '" + key +
                                  "'");
    }
    spec->apply(base, file, key);
  }
  return base;
}

ConfigFile config_to_file(const StudyConfig& config) {
  ConfigFile file;
  for (const KeySpec& spec : key_specs()) {
    const std::string text = spec.to_text(config);
    if (std::string(spec.key) == "faults" && text.empty()) continue;
    file.set(spec.key, text);
  }
  return file;
}

}  // namespace dfly
