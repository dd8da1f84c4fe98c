// Crash-consistency toolkit (DESIGN.md §16): a write-ahead journal plus
// the quarantine helper for corrupt advisory caches.
//
// The journal is an append-only file of CRC32-framed records. Each record
// is `[magic u32][payload length u32][payload crc32 u32][payload bytes]`;
// the file opens with an 8-byte format magic so a journal is never
// confused with another file kind. Every append is fsync'd — a record
// that Append() returned from survives SIGKILL of the writer. Recovery
// reads the longest valid prefix and truncates a torn tail (a record cut
// mid-write by a crash) instead of failing: everything before the tear
// is intact by construction, everything after it was never
// acknowledged. A corrupt head, by contrast, means the file is not
// a journal at all and raises SimError — recovery never silently empties
// a file it does not recognize.
//
// Consumer: the resumable DSE sweep engine (dse_engine.h) journals point
// completions and rung decisions.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace swiftsim {

/// Plain CRC-32 (IEEE 802.3 polynomial, the zlib one). `seed` chains
/// incremental computations; pass the previous return value.
std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// What recovery found in an existing journal file.
struct JournalRecovery {
  std::vector<std::string> records;  // valid payloads, append order
  std::uint64_t valid_bytes = 0;     // file prefix the records occupy
  std::uint64_t truncated_bytes = 0; // torn tail dropped past the prefix
};

/// Reads every valid record of `path` without modifying the file. Throws
/// SimError when the file is missing/unreadable or its head is not a
/// journal; a torn tail is reported, not raised.
JournalRecovery ReadJournal(const std::string& path);

class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens `path` for appending. `truncate` starts a fresh segment
  /// (dropping any previous content); otherwise an existing file is
  /// recovered — valid records land in `*recovered` (may be null) and a
  /// torn tail is physically truncated off so appends extend a valid
  /// prefix. A missing file starts empty in both modes.
  void Open(const std::string& path, bool truncate,
            JournalRecovery* recovered = nullptr);

  /// Appends one framed record and fsyncs it (thread-safe). The payload
  /// may hold any bytes, newlines included.
  void Append(std::string_view payload);

  void Close();

  std::uint64_t bytes() const;     // file size on disk
  std::uint64_t appended() const;  // records appended since Open

 private:
  mutable std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  std::uint64_t bytes_ = 0;
  std::uint64_t appended_ = 0;
};

/// Moves a corrupt advisory file (memo cache, compact trace cache) aside
/// to "<path>.corrupt" — replacing any previous quarantine of the same
/// name, falling back to plain removal — and logs one structured warning
/// line naming the path, destination and reason. The caller then
/// proceeds as a cold miss; nothing is raised.
void QuarantineCorruptFile(const std::string& path, const std::string& reason);

}  // namespace swiftsim
