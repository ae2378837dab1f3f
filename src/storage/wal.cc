#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "storage/page_store.h"  // DurableSyncActive()

namespace rtb::storage {
namespace {

// On-disk frame: a 24-byte header followed by payload_len payload bytes.
// The CRC covers everything after itself (length, LSN, type, page id,
// payload), so any bit of a half-written record fails the check.
struct WalDiskHeader {
  uint32_t crc;
  uint32_t payload_len;
  uint64_t lsn;
  uint32_t type;
  uint32_t page_id;
};
static_assert(sizeof(WalDiskHeader) == 24);

constexpr size_t kWalHeaderSize = sizeof(WalDiskHeader);
// Sanity bound while scanning: no record's payload exceeds this (pages are
// a few KiB; logical payloads are tiny). Anything larger is torn garbage.
constexpr uint32_t kMaxWalPayload = 1u << 24;

// The frame header and the slice-by-8 loads below are little-endian, like
// every host this builds for.
static_assert(std::endian::native == std::endian::little);

// Slice-by-8 tables: kCrcTables[0] is the classic bytewise table, and
// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the CRC over eight bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;
constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}
constexpr CrcTables kCrcTables = MakeCrcTables();

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// First index in [i, n) where a and b differ (n when none).
size_t NextDiff(const uint8_t* a, const uint8_t* b, size_t i, size_t n) {
  for (; i + 8 <= n; i += 8) {
    const uint64_t x = Load64(a + i) ^ Load64(b + i);
    if (x != 0) return i + (std::countr_zero(x) >> 3);
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

// First index in [i, n) where a and b agree (n when none). A zero byte of
// the XOR marks an equal byte; the classic has-zero-byte mask flags the
// lowest one exactly.
size_t NextEqual(const uint8_t* a, const uint8_t* b, size_t i, size_t n) {
  for (; i + 8 <= n; i += 8) {
    const uint64_t x = Load64(a + i) ^ Load64(b + i);
    const uint64_t zero =
        (x - 0x0101010101010101ull) & ~x & 0x8080808080808080ull;
    if (zero != 0) return i + (std::countr_zero(zero) >> 3);
  }
  while (i < n && a[i] != b[i]) ++i;
  return i;
}

// The changed runs of `before` vs `after` as (offset, length), with runs
// whose gap is shorter than a run header merged.
void DiffRuns(const uint8_t* before, const uint8_t* after, size_t n,
              std::vector<std::pair<uint32_t, uint32_t>>* runs) {
  runs->clear();
  size_t start = NextDiff(before, after, 0, n);
  while (start < n) {
    size_t end = NextEqual(before, after, start, n);
    size_t next = n;
    while (end < n) {
      next = NextDiff(before, after, end, n);
      if (next == n || next - end >= kWalRunHeaderSize) break;
      end = NextEqual(before, after, next, n);
      next = n;
    }
    runs->emplace_back(static_cast<uint32_t>(start),
                       static_cast<uint32_t>(end - start));
    start = next;
  }
}

}  // namespace

uint32_t Crc32(uint32_t crc, const uint8_t* data, size_t len) {
  crc = ~crc;
  for (; len >= 8; data += 8, len -= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, data, sizeof(lo));
    std::memcpy(&hi, data + 4, sizeof(hi));
    lo ^= crc;
    crc = kCrcTables[7][lo & 0xFFu] ^ kCrcTables[6][(lo >> 8) & 0xFFu] ^
          kCrcTables[5][(lo >> 16) & 0xFFu] ^ kCrcTables[4][lo >> 24] ^
          kCrcTables[3][hi & 0xFFu] ^ kCrcTables[2][(hi >> 8) & 0xFFu] ^
          kCrcTables[1][(hi >> 16) & 0xFFu] ^ kCrcTables[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = kCrcTables[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

Status DecodePageRuns(const WalRecord& record, size_t page_size,
                      std::vector<WalRun>* runs) {
  runs->clear();
  const std::vector<uint8_t>& p = record.payload;
  switch (record.type) {
    case WalRecordType::kPageImage:
    case WalRecordType::kBeforeImage: {
      if (p.size() != page_size) {
        return Status::Corruption("wal: full-page record is not one page");
      }
      WalRun run;
      run.length = static_cast<uint32_t>(page_size);
      (record.type == WalRecordType::kPageImage ? run.new_bytes
                                                : run.old_bytes) = p.data();
      runs->push_back(run);
      return Status::OK();
    }
    case WalRecordType::kPageDelta:
      break;
    default:
      return Status::Corruption("wal: not a page record");
  }
  size_t pos = 0;
  while (pos < p.size()) {
    if (p.size() - pos < kWalRunHeaderSize) {
      return Status::Corruption("wal: run header overflows the payload");
    }
    WalRun run;
    std::memcpy(&run.offset, p.data() + pos, sizeof(run.offset));
    std::memcpy(&run.length, p.data() + pos + 4, sizeof(run.length));
    pos += kWalRunHeaderSize;
    if (run.length == 0 ||
        uint64_t{run.offset} + run.length > uint64_t{page_size}) {
      return Status::Corruption("wal: run overflows the page");
    }
    if ((p.size() - pos) / 2 < run.length) {
      return Status::Corruption("wal: run overflows the payload");
    }
    run.old_bytes = p.data() + pos;
    run.new_bytes = run.old_bytes + run.length;
    pos += 2 * size_t{run.length};
    runs->push_back(run);
  }
  if (runs->empty()) return Status::Corruption("wal: page record has no runs");
  return Status::OK();
}

namespace {

bool InitialWal() {
#if defined(RTB_WAL_ENABLED)
  if (const char* env = std::getenv("RTB_WAL")) {
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0) {
      return true;
    }
  }
#endif
  return false;
}

std::atomic<bool>& WalSlot() {
  static std::atomic<bool> slot{InitialWal()};
  return slot;
}

}  // namespace

bool WalAvailable() {
#if defined(RTB_WAL_ENABLED)
  return true;
#else
  return false;
#endif
}

bool WalActive() { return WalSlot().load(std::memory_order_relaxed); }

bool SetWal(bool on) {
  if (on && !WalAvailable()) return false;
  WalSlot().store(on, std::memory_order_relaxed);
  return true;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     Options options) {
  if (options.group_commit_window == 0) {
    return Status::InvalidArgument("wal: group_commit_window must be >= 1");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create wal " + path);
  }
  // fsync-on-create: the (empty) log must exist durably before any record
  // in it can claim to. Directory-entry durability would additionally need
  // an fsync of the parent directory; we stop at the file, like the store.
  if (DurableSyncActive() && ::fsync(fd) != 0) {
    ::close(fd);
    return Status::IoError(path + ": fsync after create failed");
  }
  return std::unique_ptr<WalWriter>(new WalWriter(path, fd, options));
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path) {
  return Create(path, Options());
}

WalWriter::~WalWriter() {
  const bool dead = !sticky_error_.ok();
  Status s = Close();
  if (!s.ok() && !dead) {
    // A dead (simulated-crash) writer failing to close is expected; a live
    // one losing its final drain is not.
    std::fprintf(stderr,
                 "WalWriter: final drain failed in destructor (call Close() "
                 "to handle): %s\n",
                 s.ToString().c_str());
  }
}

size_t WalWriter::BeginFrame(WalRecordType type, PageId page_id,
                             size_t payload_len) {
  WalDiskHeader header;
  header.crc = 0;
  header.payload_len = static_cast<uint32_t>(payload_len);
  header.lsn = next_lsn_;
  header.type = static_cast<uint32_t>(type);
  header.page_id = page_id;
  const size_t frame_start = pending_.size();
  const auto* bytes = reinterpret_cast<const uint8_t*>(&header);
  pending_.insert(pending_.end(), bytes, bytes + kWalHeaderSize);
  return frame_start;
}

Lsn WalWriter::FinishFrame(size_t frame_start) {
  uint8_t* frame = pending_.data() + frame_start;
  const size_t frame_len = pending_.size() - frame_start;
  const uint32_t crc = Crc32(0, frame + sizeof(uint32_t),
                             frame_len - sizeof(uint32_t));
  std::memcpy(frame, &crc, sizeof(crc));
  const Lsn lsn = next_lsn_++;
  buffered_lsn_ = lsn;
  ++stats_.records;
  stats_.bytes += frame_len;
  return lsn;
}

Lsn WalWriter::AppendLocked(WalRecordType type, PageId page_id,
                            const uint8_t* payload, size_t len) {
  const size_t frame_start = BeginFrame(type, page_id, len);
  pending_.insert(pending_.end(), payload, payload + len);
  return FinishFrame(frame_start);
}

Lsn WalWriter::AppendDeltaLocked(PageId page_id, const uint8_t* before,
                                 const uint8_t* after, size_t page_size) {
  DiffRuns(before, after, page_size, &runs_);
  if (runs_.empty()) return kNoLsn;
  size_t payload_len = 0;
  for (const auto& [offset, length] : runs_) {
    payload_len += kWalRunHeaderSize + 2 * size_t{length};
  }
  const size_t frame_start =
      BeginFrame(WalRecordType::kPageDelta, page_id, payload_len);
  for (const auto& [offset, length] : runs_) {
    uint32_t run_header[2] = {offset, length};
    const auto* h = reinterpret_cast<const uint8_t*>(run_header);
    pending_.insert(pending_.end(), h, h + kWalRunHeaderSize);
    pending_.insert(pending_.end(), before + offset, before + offset + length);
    pending_.insert(pending_.end(), after + offset, after + offset + length);
  }
  return FinishFrame(frame_start);
}

void WalWriter::AppendPageDeltas(PageDelta* deltas, size_t n,
                                 size_t page_size) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    deltas[i].lsn = AppendDeltaLocked(deltas[i].page_id, deltas[i].before,
                                      deltas[i].after, page_size);
  }
  stats_.log_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

Lsn WalWriter::AppendLogicalUpdate(const uint8_t* data, size_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(WalRecordType::kLogicalUpdate, kInvalidPageId, data,
                      len);
}

Result<Lsn> WalWriter::Commit(uint64_t num_pages) {
  std::unique_lock<std::mutex> lk(mu_);
  RTB_RETURN_IF_ERROR(sticky_error_);
  uint8_t payload[sizeof(uint64_t)];
  std::memcpy(payload, &num_pages, sizeof(num_pages));
  const Lsn lsn = AppendLocked(WalRecordType::kCommit, kInvalidPageId,
                               payload, sizeof(payload));
  ++stats_.commits;
  if (++commits_since_sync_ < options_.group_commit_window) {
    // Deferred durability: this commit rides a later sync point.
    return lsn;
  }
  commits_since_sync_ = 0;
  for (;;) {
    RTB_RETURN_IF_ERROR(sticky_error_);
    if (durable_lsn_.load(std::memory_order_relaxed) >= lsn) return lsn;
    if (!sync_in_progress_) break;
    cv_.wait(lk);
  }
  RTB_RETURN_IF_ERROR(DrainLocked(lk));
  return lsn;
}

Status WalWriter::EnsureDurable(Lsn lsn) {
  if (lsn == kNoLsn) return Status::OK();
  if (Durable(lsn)) return Status::OK();
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    RTB_RETURN_IF_ERROR(sticky_error_);
    if (durable_lsn_.load(std::memory_order_relaxed) >= lsn) {
      return Status::OK();
    }
    if (!sync_in_progress_) break;
    // A leader is draining; its sync may already cover `lsn`.
    cv_.wait(lk);
  }
  return DrainLocked(lk);
}

Status WalWriter::DrainLocked(std::unique_lock<std::mutex>& lk) {
  if (pending_.empty()) return Status::OK();
  sync_in_progress_ = true;
  draining_.swap(pending_);
  const Lsn target = buffered_lsn_;
  lk.unlock();
  const auto start = std::chrono::steady_clock::now();
  Status s = WriteAndSync(draining_);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  lk.lock();
  draining_.clear();
  sync_in_progress_ = false;
  stats_.sync_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  if (s.ok()) {
    ++stats_.fsyncs;
    if (target > durable_lsn_.load(std::memory_order_relaxed)) {
      durable_lsn_.store(target, std::memory_order_release);
    }
  } else {
    sticky_error_ = s;
  }
  cv_.notify_all();
  return s;
}

Status WalWriter::WriteAndSync(const std::vector<uint8_t>& group) {
  const size_t total = group.size();
  size_t allowed = total;
  if (options_.fault_hook != nullptr) {
    allowed = std::min(options_.fault_hook->BeforeWrite(total), total);
  }
  // One pwrite in the common case, partial-write-safe in general.
  size_t done = 0;
  while (done < allowed) {
    const ssize_t put =
        ::pwrite(fd_, group.data() + done, allowed - done,
                 static_cast<off_t>(file_size_ + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(path_ + ": wal write failed");
    }
    done += static_cast<size_t>(put);
  }
  file_size_ += allowed;
  if (allowed < total) {
    return Status::IoError(path_ + ": simulated crash tore the log write");
  }
  if (options_.fault_hook != nullptr && options_.fault_hook->FailSync()) {
    return Status::IoError(path_ + ": simulated crash before fdatasync");
  }
  if (DurableSyncActive() && ::fdatasync(fd_) != 0) {
    return Status::IoError(path_ + ": fdatasync failed");
  }
  return Status::OK();
}

Status WalWriter::Checkpoint(uint64_t num_pages) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    RTB_RETURN_IF_ERROR(sticky_error_);
    if (!sync_in_progress_) break;
    cv_.wait(lk);
  }
  // The caller flushed and fsynced the store first, so every record logged
  // up to here — including any still buffered — is redundant with durable
  // data pages. The log restarts as a single checkpoint record.
  pending_.clear();
  if (::ftruncate(fd_, 0) != 0) {
    sticky_error_ = Status::IoError(path_ + ": wal truncate failed");
    return sticky_error_;
  }
  file_size_ = 0;
  uint8_t payload[sizeof(uint64_t)];
  std::memcpy(payload, &num_pages, sizeof(num_pages));
  AppendLocked(WalRecordType::kCheckpoint, kInvalidPageId, payload,
               sizeof(payload));
  commits_since_sync_ = 0;
  return DrainLocked(lk);
}

Status WalWriter::Close() {
  std::unique_lock<std::mutex> lk(mu_);
  if (fd_ < 0) return Status::OK();
  Status result = sticky_error_;
  if (result.ok()) {
    while (sync_in_progress_) cv_.wait(lk);
    result = sticky_error_;
  }
  if (result.ok() && !pending_.empty()) {
    result = DrainLocked(lk);
  }
  if (::close(fd_) != 0 && result.ok()) {
    result = Status::IoError(path_ + ": close failed");
  }
  fd_ = -1;
  return result;
}

Result<std::unique_ptr<WalReader>> WalReader::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("wal not found: " + path);
    }
    return Status::IoError("cannot open wal " + path);
  }
  std::vector<uint8_t> data;
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError(path + ": wal read failed");
    }
    if (got == 0) break;
    data.insert(data.end(), buf, buf + got);
  }
  ::close(fd);
  return std::unique_ptr<WalReader>(new WalReader(std::move(data)));
}

bool WalReader::Next(WalRecord* out) {
  if (done_) return false;
  if (data_.size() - pos_ < kWalHeaderSize) {
    // Trailing bytes too short for a header are a torn append (a clean end
    // lands exactly on a record boundary).
    torn_tail_ = pos_ < data_.size();
    done_ = true;
    return false;
  }
  WalDiskHeader header;
  std::memcpy(&header, data_.data() + pos_, kWalHeaderSize);
  if (header.payload_len > kMaxWalPayload ||
      data_.size() - pos_ - kWalHeaderSize < header.payload_len) {
    torn_tail_ = true;
    done_ = true;
    return false;
  }
  const size_t frame = kWalHeaderSize + header.payload_len;
  const uint32_t crc = Crc32(0, data_.data() + pos_ + sizeof(uint32_t),
                             frame - sizeof(uint32_t));
  if (crc != header.crc) {
    torn_tail_ = true;
    done_ = true;
    return false;
  }
  out->type = static_cast<WalRecordType>(header.type);
  out->lsn = header.lsn;
  out->page_id = header.page_id;
  out->num_pages = 0;
  out->payload.assign(data_.begin() + static_cast<ptrdiff_t>(pos_ + kWalHeaderSize),
                      data_.begin() + static_cast<ptrdiff_t>(pos_ + frame));
  if ((out->type == WalRecordType::kCommit ||
       out->type == WalRecordType::kCheckpoint) &&
      out->payload.size() >= sizeof(uint64_t)) {
    std::memcpy(&out->num_pages, out->payload.data(), sizeof(uint64_t));
  }
  pos_ += frame;
  valid_bytes_ = pos_;
  return true;
}

}  // namespace rtb::storage
