// Write-ahead journal gates (DESIGN.md §16): CRC framing, append/recover
// round-trips, torn-tail truncation, corrupt-head rejection, and the
// quarantine helper for corrupt advisory caches.
#include "common/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"

namespace swiftsim {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  const std::string p = ::testing::TempDir() + "/" + name;
  std::error_code ec;
  fs::remove(p, ec);
  fs::remove(p + ".corrupt", ec);
  return p;
}

std::uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(Crc32, KnownAnswerAndChaining) {
  // The CRC-32/ISO-HDLC check value — pins the polynomial and the
  // reflect/invert conventions so journals stay readable across builds.
  const char kCheck[] = "123456789";
  EXPECT_EQ(Crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);

  // Chaining via `seed` must equal the one-shot computation.
  const std::uint32_t head = Crc32(kCheck, 4);
  EXPECT_EQ(Crc32(kCheck + 4, 5, head), Crc32(kCheck, 9));
}

TEST(Journal, AppendRecoverRoundTrip) {
  const std::string path = TempPath("journal_roundtrip.journal");
  const std::vector<std::string> payloads = {
      "rung screen 0 123 0.5",
      "",                                   // empty payload is legal
      std::string("bin\0\nary\xff", 9),     // NULs and newlines too
      std::string(5000, 'x'),
  };
  {
    Journal j;
    j.Open(path, /*truncate=*/true);
    for (const std::string& p : payloads) j.Append(p);
    EXPECT_EQ(j.appended(), payloads.size());
    EXPECT_EQ(j.bytes(), FileSize(path));
    j.Close();
  }
  const JournalRecovery rec = ReadJournal(path);
  EXPECT_EQ(rec.records, payloads);
  EXPECT_EQ(rec.valid_bytes, FileSize(path));
  EXPECT_EQ(rec.truncated_bytes, 0u);
}

TEST(Journal, ReopenAppendsAfterRecoveredPrefix) {
  const std::string path = TempPath("journal_reopen.journal");
  {
    Journal j;
    j.Open(path, /*truncate=*/true);
    j.Append("one");
    j.Append("two");
  }
  {
    JournalRecovery rec;
    Journal j;
    j.Open(path, /*truncate=*/false, &rec);
    ASSERT_EQ(rec.records.size(), 2u);
    j.Append("three");
  }
  const JournalRecovery rec = ReadJournal(path);
  EXPECT_EQ(rec.records,
            (std::vector<std::string>{"one", "two", "three"}));
}

TEST(Journal, TornTailIsTruncatedNotFatal) {
  const std::string path = TempPath("journal_torn.journal");
  {
    Journal j;
    j.Open(path, /*truncate=*/true);
    j.Append("alpha");
    j.Append("beta");
    j.Append("gamma-gets-torn");
  }
  // Cut the last record mid-frame — the shape a SIGKILL mid-write leaves.
  const std::uint64_t full = FileSize(path);
  fs::resize_file(path, full - 7);

  const JournalRecovery peek = ReadJournal(path);
  EXPECT_EQ(peek.records, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_GT(peek.truncated_bytes, 0u);

  // Recovery-mode Open physically drops the tail, then appends continue
  // from the valid prefix.
  JournalRecovery rec;
  Journal j;
  j.Open(path, /*truncate=*/false, &rec);
  EXPECT_EQ(rec.records, peek.records);
  EXPECT_EQ(FileSize(path), rec.valid_bytes);
  j.Append("delta");
  j.Close();
  EXPECT_EQ(ReadJournal(path).records,
            (std::vector<std::string>{"alpha", "beta", "delta"}));
}

TEST(Journal, CorruptMidRecordTruncatesFromTheTear) {
  const std::string path = TempPath("journal_bitflip.journal");
  std::uint64_t first_two;
  {
    Journal j;
    j.Open(path, /*truncate=*/true);
    j.Append("aaaa");
    j.Append("bbbb");
    first_two = j.bytes();
    j.Append("cccc");
  }
  // Flip one payload byte of the middle... actually the last record: the
  // longest-valid-prefix rule must stop at the damage.
  std::string raw = ReadRaw(path);
  raw[raw.size() - 2] ^= 0x40;
  WriteRaw(path, raw);

  const JournalRecovery rec = ReadJournal(path);
  EXPECT_EQ(rec.records, (std::vector<std::string>{"aaaa", "bbbb"}));
  EXPECT_EQ(rec.valid_bytes, first_two);
  EXPECT_EQ(rec.truncated_bytes, FileSize(path) - first_two);
}

TEST(Journal, CorruptHeadRaisesInsteadOfEmptying) {
  const std::string path = TempPath("journal_badhead.journal");
  WriteRaw(path, "definitely not a journal file\n");
  EXPECT_THROW(ReadJournal(path), SimError);
  Journal j;
  EXPECT_THROW(j.Open(path, /*truncate=*/false), SimError);
  // Truncating open is allowed to pave over it — that is an explicit
  // fresh-segment request, not silent recovery.
  j.Open(path, /*truncate=*/true);
  j.Append("fresh");
  j.Close();
  EXPECT_EQ(ReadJournal(path).records, (std::vector<std::string>{"fresh"}));
}

TEST(Journal, MissingFileStartsEmptyAndReadThrows) {
  const std::string path = TempPath("journal_missing.journal");
  EXPECT_THROW(ReadJournal(path), SimError);
  Journal j;
  JournalRecovery rec;
  j.Open(path, /*truncate=*/false, &rec);
  EXPECT_TRUE(rec.records.empty());
  j.Append("born");
  j.Close();
  EXPECT_EQ(ReadJournal(path).records, (std::vector<std::string>{"born"}));
}

TEST(Journal, QuarantineMovesFileAside) {
  const std::string path = TempPath("quarantine_victim.cache");
  WriteRaw(path, "garbled cache bytes");
  QuarantineCorruptFile(path, "checksum mismatch (test)");
  EXPECT_FALSE(fs::exists(path));
  ASSERT_TRUE(fs::exists(path + ".corrupt"));
  EXPECT_EQ(ReadRaw(path + ".corrupt"), "garbled cache bytes");

  // A second quarantine of the same name replaces the previous one.
  WriteRaw(path, "second casualty");
  QuarantineCorruptFile(path, "checksum mismatch again (test)");
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(ReadRaw(path + ".corrupt"), "second casualty");
}

}  // namespace
}  // namespace swiftsim
