#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/study.hpp"
#include "core/sweep.hpp"

/// Machine-readable run output, and the one JSON reader.
///
/// Complements the IO module's CSV streams: where CSV carries bulk series
/// (per-packet records, congestion matrices), the JSON report is the
/// single-document summary of one run or one sweep — the thing a CI job or
/// a plotting notebook ingests. Hand-rolled writer (no dependency), RFC 8259
/// escaping, stable key order. JsonReader reads back what JsonWriter writes:
/// the daemon's requests and control lines, and the campaign journal.
namespace dfly {

/// Streaming JSON writer with container tracking; misuse (value outside a
/// container, key inside an array) throws std::logic_error.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Key for the next value (objects only).
  JsonWriter& key(const std::string& name);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Final document; throws if containers are still open.
  std::string str() const;

  static std::string escape(const std::string& raw);

 private:
  enum class Ctx : char { kObject, kArray };

  void comma_if_needed();
  void on_value();

  std::string out_;
  std::vector<Ctx> stack_;
  std::vector<bool> first_;
  bool want_key_{false};
  bool has_pending_key_{false};
};

/// Minimal recursive-descent reader over one JSON text: the daemon's requests
/// (one object of string keys whose values are strings, objects-of-strings
/// or scalars), any value find_field walks, and journal lines. It decodes
/// strings exactly as JsonWriter escaped them and builds no tree. Every error
/// throws std::invalid_argument("<context>: <why> at byte N"). `text` must
/// outlive the reader.
class JsonReader {
 public:
  JsonReader(std::string_view text, std::string context)
      : text_(text), context_(std::move(context)) {}

  [[noreturn]] void fail(const std::string& why) const;

  /// True when only whitespace is left.
  bool at_end();
  /// The next non-whitespace character; fails at the end of the text.
  char peek();
  /// Skip whitespace and `c`, which must come next.
  void expect(char c);
  /// Skip whitespace and `c` if it comes next; false otherwise.
  bool consume(char c);

  /// Read one string. Bytes pass through verbatim; a \u escape above 0xff
  /// fails, since JsonWriter \u-escapes only control characters.
  std::string parse_string();
  /// Read one scalar value (number / true / false / null) as its text.
  std::string parse_scalar();

  /// Walk one value of any shape. When an object field named `key` with a
  /// string or scalar value comes first in document order (at any depth),
  /// store that value in `out` and return true, leaving the rest unread.
  bool find_field(const std::string& key, std::string& out);

  /// Parse {"k":"v",...} where every value must be a string.
  std::vector<std::pair<std::string, std::string>> parse_string_object();

 private:
  void skip_ws();

  std::string_view text_;
  std::string context_;
  std::size_t pos_{0};
};

/// Serialise a single run's Report.
std::string report_to_json(const Report& report);

/// Write a Report as one JSON object into an open writer (the compositional
/// form report_to_json and the plan sinks share, so a report embedded in a
/// JSONL record is byte-identical to the standalone document).
void write_report(JsonWriter& w, const Report& report);

/// Serialise a SweepSummary (multi-seed aggregate).
std::string sweep_to_json(const SweepSummary& summary);

/// Write `json` to `path` (throws on IO failure).
void save_json(const std::string& path, const std::string& json);

}  // namespace dfly
