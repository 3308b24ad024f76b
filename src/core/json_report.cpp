#include "core/json_report.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace dfly {

JsonWriter& JsonWriter::begin_object() {
  comma_if_needed();
  out_ += '{';
  stack_.push_back(Ctx::kObject);
  first_.push_back(true);
  want_key_ = true;
  has_pending_key_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Ctx::kObject) {
    throw std::logic_error("JsonWriter: end_object outside an object");
  }
  if (has_pending_key_) throw std::logic_error("JsonWriter: key without value");
  out_ += '}';
  stack_.pop_back();
  first_.pop_back();
  on_value();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_if_needed();
  out_ += '[';
  stack_.push_back(Ctx::kArray);
  first_.push_back(true);
  want_key_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Ctx::kArray) {
    throw std::logic_error("JsonWriter: end_array outside an array");
  }
  out_ += ']';
  stack_.pop_back();
  first_.pop_back();
  on_value();
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  if (stack_.empty() || stack_.back() != Ctx::kObject) {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  if (has_pending_key_) throw std::logic_error("JsonWriter: consecutive keys");
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  out_ += '"' + escape(name) + "\":";
  has_pending_key_ = true;
  want_key_ = false;
  return *this;
}

void JsonWriter::comma_if_needed() {
  if (stack_.empty()) {
    if (!out_.empty()) throw std::logic_error("JsonWriter: multiple top-level values");
    return;
  }
  if (stack_.back() == Ctx::kObject) {
    if (!has_pending_key_) throw std::logic_error("JsonWriter: value in object without key");
    has_pending_key_ = false;
    return;  // the key already emitted the comma
  }
  if (!first_.back()) out_ += ',';
  first_.back() = false;
}

void JsonWriter::on_value() {
  if (!stack_.empty() && stack_.back() == Ctx::kObject) want_key_ = true;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma_if_needed();
  out_ += '"' + escape(v) + '"';
  on_value();
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
  comma_if_needed();
  if (std::isfinite(v)) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.9g", v);
    out_ += buffer;
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
  on_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_if_needed();
  out_ += std::to_string(v);
  on_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_if_needed();
  out_ += std::to_string(v);
  on_value();
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_if_needed();
  out_ += v ? "true" : "false";
  on_value();
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma_if_needed();
  out_ += "null";
  on_value();
  return *this;
}

std::string JsonWriter::str() const {
  if (!stack_.empty()) throw std::logic_error("JsonWriter: unclosed containers");
  return out_;
}

std::string JsonWriter::escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonReader::fail(const std::string& why) const {
  throw std::invalid_argument(context_ + ": " + why + " at byte " + std::to_string(pos_));
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\r' || text_[pos_] == '\n')) {
    ++pos_;
  }
}

bool JsonReader::at_end() {
  skip_ws();
  return pos_ >= text_.size();
}

char JsonReader::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonReader::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonReader::consume(char c) {
  if (at_end() || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

std::string JsonReader::parse_string() {
  expect('"');
  std::string out;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return out;
    }
    if (c != '\\') {
      out += c;
      ++pos_;
      continue;
    }
    if (pos_ + 1 >= text_.size()) fail("truncated escape");
    const char esc = text_[pos_ + 1];
    pos_ += 2;
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_ + static_cast<std::size_t>(i)];
          value <<= 4;
          if (h >= '0' && h <= '9') {
            value |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            value |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            value |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            fail("bad \\u escape");
          }
        }
        // The reader is byte-oriented (plan files are ASCII/UTF-8 passed
        // through verbatim); only control characters are \u-escaped.
        if (value > 0xff) fail("\\u escape above 0xff unsupported");
        out += static_cast<char>(value);
        pos_ += 4;
        break;
      }
      default: fail("unknown escape");
    }
  }
  fail("unterminated string");
}

std::string JsonReader::parse_scalar() {
  const char c = peek();
  const std::size_t start = pos_;
  if (c == '-' || (c >= '0' && c <= '9')) {
    ++pos_;
    const std::string_view number_chars = "0123456789.eE+-";
    while (pos_ < text_.size() && number_chars.find(text_[pos_]) != std::string_view::npos) {
      ++pos_;
    }
    return std::string(text_.substr(start, pos_ - start));
  }
  for (const char* word : {"true", "false", "null"}) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return word;
    }
  }
  fail("unsupported value");
}

bool JsonReader::find_field(const std::string& key, std::string& out) {
  const char open = peek();
  if (open == '"') {
    parse_string();
    return false;
  }
  if (open != '{' && open != '[') {
    parse_scalar();
    return false;
  }
  const char close = open == '{' ? '}' : ']';
  ++pos_;
  if (consume(close)) return false;
  for (;;) {
    if (open == '{') {
      const std::string name = parse_string();
      expect(':');
      if (name == key && peek() != '{' && peek() != '[') {
        out = peek() == '"' ? parse_string() : parse_scalar();
        return true;
      }
    }
    if (find_field(key, out)) return true;
    if (consume(close)) return false;
    expect(',');
  }
}

std::vector<std::pair<std::string, std::string>> JsonReader::parse_string_object() {
  std::vector<std::pair<std::string, std::string>> out;
  expect('{');
  if (consume('}')) return out;
  for (;;) {
    std::string key = parse_string();
    expect(':');
    std::string value = parse_string();
    out.emplace_back(std::move(key), std::move(value));
    if (consume('}')) return out;
    expect(',');
  }
}

namespace {

void write_app(JsonWriter& w, const AppReport& app) {
  w.begin_object();
  w.key("app").value(app.app);
  w.key("app_id").value(app.app_id);
  w.key("nodes").value(app.nodes);
  w.key("comm_mean_ms").value(app.comm_mean_ms);
  w.key("comm_std_ms").value(app.comm_std_ms);
  w.key("comm_max_ms").value(app.comm_max_ms);
  w.key("exec_ms").value(app.exec_ms);
  w.key("total_msg_mb").value(app.total_msg_mb);
  w.key("injection_rate_gbs").value(app.injection_rate_gbs);
  w.key("peak_ingress_bytes").value(app.peak_ingress_bytes);
  w.key("lat_mean_us").value(app.lat_mean_us);
  w.key("lat_p50_us").value(app.lat_p50_us);
  w.key("lat_p95_us").value(app.lat_p95_us);
  w.key("lat_p99_us").value(app.lat_p99_us);
  w.key("packets").value(app.packets);
  w.key("nonminimal_fraction").value(app.nonminimal_fraction);
  w.key("mean_hops").value(app.mean_hops);
  w.end_object();
}

void write_stat(JsonWriter& w, const char* name, const SweepStat& stat) {
  w.key(name).begin_object();
  w.key("mean").value(stat.mean);
  w.key("stddev").value(stat.stddev);
  w.key("min").value(stat.min);
  w.key("max").value(stat.max);
  w.key("ci95_half").value(stat.ci95_half);
  w.key("n").value(stat.n);
  w.end_object();
}

}  // namespace

std::string report_to_json(const Report& report) {
  JsonWriter w;
  write_report(w, report);
  return w.str();
}

void write_report(JsonWriter& w, const Report& report) {
  w.begin_object();
  w.key("routing").value(report.routing);
  w.key("completed").value(report.completed);
  w.key("makespan_ms").value(to_ms(report.makespan));
  w.key("sys_lat_mean_us").value(report.sys_lat_mean_us);
  w.key("sys_lat_p50_us").value(report.sys_lat_p50_us);
  w.key("sys_lat_p95_us").value(report.sys_lat_p95_us);
  w.key("sys_lat_p99_us").value(report.sys_lat_p99_us);
  w.key("agg_throughput_gb_per_ms").value(report.agg_throughput_gb_per_ms);
  w.key("local_stall_ms").value(report.local_stall_ms);
  w.key("global_stall_ms").value(report.global_stall_ms);
  w.key("congestion_mean").value(report.congestion_mean);
  w.key("congestion_max").value(report.congestion_max);
  w.key("congestion_imbalance").value(report.congestion_imbalance);
  w.key("events_executed").value(report.events_executed);
  w.key("apps").begin_array();
  for (const AppReport& app : report.apps) write_app(w, app);
  w.end_array();
  w.end_object();
}

std::string sweep_to_json(const SweepSummary& summary) {
  JsonWriter w;
  w.begin_object();
  w.key("routing").value(summary.routing);
  w.key("runs").value(summary.runs);
  w.key("completed_runs").value(summary.completed_runs);
  write_stat(w, "makespan_ms", summary.makespan_ms);
  write_stat(w, "sys_lat_p99_us", summary.sys_lat_p99_us);
  write_stat(w, "agg_throughput", summary.agg_throughput);
  write_stat(w, "local_stall_ms", summary.local_stall_ms);
  write_stat(w, "global_stall_ms", summary.global_stall_ms);
  write_stat(w, "congestion_imbalance", summary.congestion_imbalance);
  w.key("apps").begin_array();
  for (const AppSweep& app : summary.apps) {
    w.begin_object();
    w.key("app").value(app.app);
    write_stat(w, "comm_ms", app.comm_ms);
    write_stat(w, "exec_ms", app.exec_ms);
    write_stat(w, "lat_mean_us", app.lat_mean_us);
    write_stat(w, "lat_p99_us", app.lat_p99_us);
    write_stat(w, "nonminimal_fraction", app.nonminimal_fraction);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void save_json(const std::string& path, const std::string& json) {
  // Whole-file write via temp + atomic rename: a reader (or a crash) never
  // observes a half-written document, and a failed write leaves any previous
  // file at `path` untouched.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("save_json: cannot open " + tmp);
    out << json << '\n';
    out.flush();
    if (!out.good()) throw std::runtime_error("save_json: write failed on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("save_json: cannot rename " + tmp + " to " + path + ": " +
                             std::strerror(errno));
  }
}

}  // namespace dfly
