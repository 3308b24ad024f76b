#include "core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/json_report.hpp"

namespace dfly {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error("PlanJournal: " + what + " " + path + ": " + std::strerror(errno));
}

std::string hash_to_hex(std::uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

/// `text` read as a T in `base`; every character must be a digit of it.
template <typename T>
T to_number(const JsonReader& in, const std::string& text, int base = 10) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value, base);
  if (error != std::errc() || stop != end) in.fail("bad number '" + text + "'");
  return value;
}

bool to_bool(const JsonReader& in, const std::string& text) {
  if (text != "true" && text != "false") in.fail("expected true or false");
  return text == "true";
}

}  // namespace

PlanJournal::PlanJournal(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("cannot open", path);
}

PlanJournal::~PlanJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void PlanJournal::append(const JournalRecord& record) {
  const std::string line = format(record) + '\n';
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed on", path_);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) throw_errno("fsync failed on", path_);
}

std::string PlanJournal::format(const JournalRecord& record) {
  JsonWriter w;
  w.begin_object();
  w.key("cell").value(record.cell);
  w.key("ok").value(record.ok);
  w.key("completed").value(record.completed);
  w.key("hash").value(hash_to_hex(record.hash));
  w.key("attempts").value(record.attempts);
  w.key("timeout").value(record.timeout);
  w.key("offset").value(record.offset);
  w.key("error").value(record.error);
  w.end_object();
  return w.str();
}

std::optional<JournalRecord> PlanJournal::parse_line(const std::string& line) {
  try {
    JsonReader in(line, "journal");
    // format()'s eight fields in its order; `separator` opens each one.
    const auto key = [&in](char separator, const char* name) {
      in.expect(separator);
      if (in.parse_string() != name) in.fail(std::string("expected key \"") + name + '"');
      in.expect(':');
    };
    JournalRecord record;
    key('{', "cell");
    record.cell = to_number<std::uint64_t>(in, in.parse_scalar());
    key(',', "ok");
    record.ok = to_bool(in, in.parse_scalar());
    key(',', "completed");
    record.completed = to_bool(in, in.parse_scalar());
    key(',', "hash");
    const std::string hash = in.parse_string();
    if (hash.size() != 16) in.fail("hash is not 16 hex digits");
    record.hash = to_number<std::uint64_t>(in, hash, 16);
    key(',', "attempts");
    record.attempts = to_number<int>(in, in.parse_scalar());
    key(',', "timeout");
    record.timeout = to_bool(in, in.parse_scalar());
    key(',', "offset");
    record.offset = to_number<std::uint64_t>(in, in.parse_scalar());
    key(',', "error");
    record.error = in.parse_string();
    in.expect('}');
    if (!in.at_end() || line.back() != '}') in.fail("bytes after the record");
    return record;
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // torn or corrupt
  }
}

std::vector<JournalRecord> PlanJournal::recover(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (::access(path.c_str(), F_OK) != 0) return {};  // fresh start
    throw std::runtime_error("PlanJournal: cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  in.close();

  std::vector<JournalRecord> records;
  std::size_t start = 0;
  std::uint64_t good_end = 0;  // byte offset just past the last intact record
  while (start < text.size()) {
    const std::size_t newline = text.find('\n', start);
    if (newline == std::string::npos) break;  // torn tail: no terminator
    const std::optional<JournalRecord> record =
        parse_line(text.substr(start, newline - start));
    if (!record) break;  // torn or corrupt line: discard it and the rest
    records.push_back(*record);
    start = newline + 1;
    good_end = start;
  }
  if (good_end != text.size()) truncate_file(path, good_end);
  return records;
}

std::vector<JournalRecord> resume_output(const std::string& journal_path,
                                        const std::string& output_path) {
  std::vector<JournalRecord> records = PlanJournal::recover(journal_path);
  truncate_file(output_path, records.empty() ? 0 : records.back().offset);
  return records;
}

void truncate_file(const std::string& path, std::uint64_t size) {
  // O_CREAT so that truncating a missing output to offset 0 (fresh resume
  // with an empty journal) leaves a well-defined empty file behind.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("cannot open for truncation", path);
  const int rc = ::ftruncate(fd, static_cast<off_t>(size));
  ::close(fd);
  if (rc != 0) throw_errno("cannot truncate", path);
}

}  // namespace dfly
