#include "common/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/log.h"
#include "common/status.h"

namespace swiftsim {
namespace {

// 8-byte file head: format name + version + newline, so `head -c8` on a
// journal is self-describing and a version bump invalidates old segments.
constexpr char kFileMagic[8] = {'S', 'S', 'J', 'R', 'N', 'L', '1', '\n'};
constexpr std::uint32_t kRecordMagic = 0x4C4E524Au;  // "JRNL" little-endian
// Frames larger than this are garbage lengths from a torn/overwritten
// region, not real records — recovery truncates there.
constexpr std::uint32_t kMaxRecordBytes = 1u << 26;

struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
};
static_assert(sizeof(FrameHeader) == 12, "frame header must be packed");

const std::array<std::uint32_t, 256>& CrcTable() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void WriteAll(int fd, const void* data, std::size_t n, const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      SS_CHECK(false, "write to journal '" + path + "' failed: " +
                          std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    SS_CHECK(false, "fsync of journal '" + path + "' failed: " +
                        std::strerror(errno));
  }
}

/// Best-effort directory fsync so a file creation is durable, not just the
/// file contents. Some filesystems reject O_RDONLY on directories; a
/// failure here narrows the durability window, it does not break recovery.
void FsyncParentDir(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Scans `data` (the file bytes past the head magic) for the longest valid
/// record prefix. Returns the byte offset where the valid prefix ends.
std::size_t ScanRecords(const char* data, std::size_t size,
                        std::vector<std::string>* out) {
  std::size_t off = 0;
  for (;;) {
    if (size - off < sizeof(FrameHeader)) break;
    FrameHeader h;
    std::memcpy(&h, data + off, sizeof h);
    if (h.magic != kRecordMagic || h.length > kMaxRecordBytes) break;
    if (size - off - sizeof h < h.length) break;  // torn payload
    const char* payload = data + off + sizeof h;
    if (Crc32(payload, h.length) != h.crc) break;
    if (out != nullptr) out->emplace_back(payload, h.length);
    off += sizeof h + h.length;
  }
  return off;
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  SS_CHECK(f != nullptr, "cannot read journal '" + path + "'");
  std::string data;
  char chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    data.append(chunk, n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  SS_CHECK(!bad, "error reading journal '" + path + "'");
  return data;
}

JournalRecovery RecoverBytes(const std::string& data, const std::string& path) {
  JournalRecovery rec;
  SS_CHECK(data.size() >= sizeof kFileMagic &&
               std::memcmp(data.data(), kFileMagic, sizeof kFileMagic) == 0,
           "'" + path + "' is not a Swift-Sim journal (bad or missing head)");
  const std::size_t valid =
      sizeof kFileMagic + ScanRecords(data.data() + sizeof kFileMagic,
                                      data.size() - sizeof kFileMagic,
                                      &rec.records);
  rec.valid_bytes = valid;
  rec.truncated_bytes = data.size() - valid;
  return rec;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto& table = CrcTable();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

JournalRecovery ReadJournal(const std::string& path) {
  return RecoverBytes(ReadWholeFile(path), path);
}

Journal::~Journal() {
  try {
    Close();
  } catch (...) {
    // Destruction must not throw; the segment is already durable up to the
    // last acknowledged Append.
  }
}

void Journal::Open(const std::string& path, bool truncate,
                   JournalRecovery* recovered) {
  std::lock_guard<std::mutex> lock(mu_);
  SS_CHECK(fd_ < 0, "journal is already open ('" + path_ + "')");
  SS_CHECK(!path.empty(), "journal path is empty");
  path_ = path;
  appended_ = 0;

  bool fresh = truncate;
  if (!truncate) {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0 || st.st_size == 0) {
      fresh = true;  // missing or empty file: start a new segment
    }
  }

  if (fresh) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    SS_CHECK(fd_ >= 0, "cannot create journal '" + path + "': " +
                           std::strerror(errno));
    WriteAll(fd_, kFileMagic, sizeof kFileMagic, path_);
    FsyncFd(fd_, path_);
    FsyncParentDir(path_);
    bytes_ = sizeof kFileMagic;
    if (recovered != nullptr) *recovered = JournalRecovery{};
    return;
  }

  // Recovery: find the longest valid prefix, hand its records back, and
  // physically truncate the torn tail so appends extend valid framing.
  JournalRecovery rec = RecoverBytes(ReadWholeFile(path), path);
  fd_ = ::open(path.c_str(), O_WRONLY, 0644);
  SS_CHECK(fd_ >= 0, "cannot open journal '" + path + "' for append: " +
                         std::strerror(errno));
  if (rec.truncated_bytes > 0) {
    SS_CHECK(::ftruncate(fd_, static_cast<off_t>(rec.valid_bytes)) == 0,
             "cannot truncate torn tail of journal '" + path + "': " +
                 std::strerror(errno));
    FsyncFd(fd_, path_);
    SS_LOG(kWarning) << "journal: recovered path=" << path
                    << " records=" << rec.records.size()
                    << " torn_tail_bytes=" << rec.truncated_bytes;
  }
  SS_CHECK(::lseek(fd_, static_cast<off_t>(rec.valid_bytes), SEEK_SET) >= 0,
           "cannot seek journal '" + path + "'");
  bytes_ = rec.valid_bytes;
  if (recovered != nullptr) *recovered = std::move(rec);
}

void Journal::Append(std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  SS_CHECK(fd_ >= 0, "journal is not open");
  SS_CHECK(payload.size() <= kMaxRecordBytes, "journal record too large");
  FrameHeader h;
  h.magic = kRecordMagic;
  h.length = static_cast<std::uint32_t>(payload.size());
  h.crc = Crc32(payload.data(), payload.size());
  // One buffered write per record keeps a crash tear inside a single
  // frame: recovery drops at most the record being written.
  std::string frame;
  frame.reserve(sizeof h + payload.size());
  frame.append(reinterpret_cast<const char*>(&h), sizeof h);
  frame.append(payload.data(), payload.size());
  WriteAll(fd_, frame.data(), frame.size(), path_);
  FsyncFd(fd_, path_);
  bytes_ += frame.size();
  ++appended_;
}

void Journal::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  FsyncFd(fd_, path_);
  ::close(fd_);
  fd_ = -1;
}

std::uint64_t Journal::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t Journal::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

void QuarantineCorruptFile(const std::string& path, const std::string& reason) {
  const std::string dest = path + ".corrupt";
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  std::string disposition = "quarantined";
  if (std::rename(path.c_str(), dest.c_str()) != 0) {
    disposition = std::remove(path.c_str()) == 0 ? "removed" : "rename_failed";
  }
  SS_LOG(kWarning) << "corrupt-cache: " << disposition << " path=" << path
                  << " dest=" << dest << " bytes=" << (ec ? 0 : size)
                  << " reason=\"" << reason << "\"";
}

}  // namespace swiftsim
