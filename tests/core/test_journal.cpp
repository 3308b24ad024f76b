// Tests for the crash-safe campaign journal (core/journal.hpp): the record
// format round-trips (including escaped error strings), every torn prefix of
// a line and every malformed line is rejected, recover() repairs a torn tail
// in place, and resume_output and truncate_file cut an output back to a
// journaled offset.

#include "core/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace dfly {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

JournalRecord sample_record() {
  JournalRecord record;
  record.cell = 17;
  record.ok = true;
  record.completed = true;
  record.hash = 0x091ab00ffee12d34ull;
  record.attempts = 3;
  record.timeout = false;
  record.offset = 83451;
  record.error = "";
  return record;
}

TEST(Journal, FormatUsesTheDocumentedStableKeyOrder) {
  EXPECT_EQ(PlanJournal::format(sample_record()),
            "{\"cell\":17,\"ok\":true,\"completed\":true,"
            "\"hash\":\"091ab00ffee12d34\",\"attempts\":3,"
            "\"timeout\":false,\"offset\":83451,\"error\":\"\"}");
}

TEST(Journal, FormatParseRoundTripsIncludingEscapedErrors) {
  JournalRecord record = sample_record();
  record.ok = false;
  record.completed = false;
  record.timeout = true;
  record.error = "bad \"quote\"\nand\ttab and\x01 control and back\\slash";
  std::optional<JournalRecord> parsed = PlanJournal::parse_line(PlanJournal::format(record));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, record);

  // Every byte JsonWriter escapes: each control character, '"' and '\'.
  record.error.clear();
  for (char c = 0x01; c < 0x20; ++c) record.error += c;
  record.error += "\"\\";
  parsed = PlanJournal::parse_line(PlanJournal::format(record));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, record);
}

TEST(Journal, EveryTornPrefixOfALineIsRejected) {
  // A crash can cut a journal write at any byte; no strict prefix may parse
  // as a (wrong) complete record.
  JournalRecord record = sample_record();
  record.ok = false;
  record.error = "engine: allocation failed";
  const std::string line = PlanJournal::format(record);
  for (std::size_t n = 0; n < line.size(); ++n) {
    EXPECT_FALSE(PlanJournal::parse_line(line.substr(0, n)).has_value()) << "prefix " << n;
  }
  ASSERT_TRUE(PlanJournal::parse_line(line).has_value());
  EXPECT_FALSE(PlanJournal::parse_line("not json").has_value());
  EXPECT_FALSE(PlanJournal::parse_line("{\"cell\":}").has_value());
}

/// sample_record()'s line with its one occurrence of `from` replaced by `to`.
std::string edited_line(const std::string& from, const std::string& to) {
  std::string line = PlanJournal::format(sample_record());
  const std::size_t at = line.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? line : line.replace(at, from.size(), to);
}

// A line is intact only with format()'s eight fields in order and nothing
// after them. The journal once read each of the first five lines below as a
// record for cell 17.
TEST(Journal, RejectsACellIndexThatOverflows) {
  // 2^64 + 17 would wrap to cell 17.
  EXPECT_FALSE(
      PlanJournal::parse_line(edited_line("\"cell\":17", "\"cell\":18446744073709551633"))
          .has_value());
}

TEST(Journal, RejectsAHashThatIsNotHex) {
  // Read as hash 0, it made --resume stop with a false "plan changed" error.
  EXPECT_FALSE(
      PlanJournal::parse_line(edited_line("091ab00ffee12d34", "zzzzzzzzzzzzzzzz")).has_value());
}

TEST(Journal, RejectsACellIndexWithTrailingLetters) {
  EXPECT_FALSE(
      PlanJournal::parse_line(edited_line("\"cell\":17", "\"cell\":17abc")).has_value());
}

TEST(Journal, RejectsBytesAfterTheClosingBrace) {
  // Two records run together, as when a newline is lost.
  const std::string line = PlanJournal::format(sample_record());
  EXPECT_FALSE(PlanJournal::parse_line(line + line).has_value());
}

TEST(Journal, RejectsKeysOutOfOrder) {
  EXPECT_FALSE(PlanJournal::parse_line(edited_line("\"cell\":17,\"ok\":true",
                                                   "\"ok\":true,\"cell\":17"))
                   .has_value());
}

TEST(Journal, RejectsAMissingKey) {
  EXPECT_FALSE(PlanJournal::parse_line(edited_line("\"attempts\":3,", "")).has_value());
}

TEST(Journal, RejectsAUnicodeEscapeAboveFF) {
  EXPECT_FALSE(
      PlanJournal::parse_line(edited_line("\"error\":\"\"", "\"error\":\"\\u0100\""))
          .has_value());
}

TEST(Journal, AppendedRecordsRecoverInOrderAcrossReopens) {
  const std::string path = std::string(::testing::TempDir()) + "/dfly_journal_append.journal";
  std::remove(path.c_str());

  JournalRecord first = sample_record();
  JournalRecord second = sample_record();
  second.cell = 18;
  second.ok = false;
  second.error = "cell exploded";
  {
    PlanJournal journal(path);
    journal.append(first);
    journal.append(second);
  }
  std::vector<JournalRecord> records = PlanJournal::recover(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], first);
  EXPECT_EQ(records[1], second);

  // Reopening appends after the existing records — the resume path.
  JournalRecord third = sample_record();
  third.cell = 19;
  {
    PlanJournal journal(path);
    journal.append(third);
  }
  records = PlanJournal::recover(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2], third);
  std::remove(path.c_str());
}

TEST(Journal, RecoverTruncatesATornTailInPlace) {
  const std::string path = std::string(::testing::TempDir()) + "/dfly_journal_torn.journal";
  const std::string intact =
      PlanJournal::format(sample_record()) + "\n" + PlanJournal::format(sample_record()) + "\n";
  write_file(path, intact + "{\"cell\":9,\"ok\":fa");

  const std::vector<JournalRecord> records = PlanJournal::recover(path);
  EXPECT_EQ(records.size(), 2u);
  // The torn line is gone from disk, so a new PlanJournal appends cleanly...
  EXPECT_EQ(read_file(path), intact);
  // ...and recovery is idempotent.
  EXPECT_EQ(PlanJournal::recover(path).size(), 2u);
  EXPECT_EQ(read_file(path), intact);
  std::remove(path.c_str());
}

TEST(Journal, RecoverDiscardsEverythingAfterACorruptLine) {
  // Corruption mid-file (not just at the tail) must not let later records
  // sneak past it: resume would otherwise skip cells the output never got.
  const std::string path = std::string(::testing::TempDir()) + "/dfly_journal_corrupt.journal";
  JournalRecord record = sample_record();
  const std::string good = PlanJournal::format(record) + "\n";
  write_file(path, good + "garbage line\n" + good);
  EXPECT_EQ(PlanJournal::recover(path).size(), 1u);
  EXPECT_EQ(read_file(path), good);
  std::remove(path.c_str());
}

TEST(Journal, ResumeOutputCutsTheOutputToTheLastGoodOffset) {
  const std::string journal = std::string(::testing::TempDir()) + "/dfly_resume_output.journal";
  const std::string output = std::string(::testing::TempDir()) + "/dfly_resume_output.jsonl";
  JournalRecord first = sample_record();
  first.offset = 6;
  JournalRecord second = sample_record();
  second.cell = 18;
  second.offset = 12;
  const std::string intact =
      PlanJournal::format(first) + "\n" + PlanJournal::format(second) + "\n";
  write_file(journal, intact + "{\"cell\":19,\"ok\":tr");
  write_file(output, "cell1\ncell2\ncell3-torn");

  const std::vector<JournalRecord> records = resume_output(journal, output);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], second);
  EXPECT_EQ(read_file(journal), intact);
  EXPECT_EQ(read_file(output), "cell1\ncell2\n");
  std::remove(journal.c_str());
  std::remove(output.c_str());
}

TEST(Journal, RecoverOfAMissingFileIsAFreshStart) {
  EXPECT_TRUE(
      PlanJournal::recover(std::string(::testing::TempDir()) + "/dfly_no_such.journal").empty());
}

TEST(Journal, TruncateFileCutsAndCreates) {
  const std::string path = std::string(::testing::TempDir()) + "/dfly_truncate.bin";
  write_file(path, "hello world");
  truncate_file(path, 5);
  EXPECT_EQ(read_file(path), "hello");

  const std::string missing = std::string(::testing::TempDir()) + "/dfly_truncate_missing.bin";
  std::remove(missing.c_str());
  truncate_file(missing, 0);  // resume with an empty journal: empty output
  EXPECT_EQ(read_file(missing), "");
  std::remove(path.c_str());
  std::remove(missing.c_str());
}

}  // namespace
}  // namespace dfly
