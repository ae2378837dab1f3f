// Framing and group-commit units for storage::WalWriter / WalReader:
//
//   * CRC — the slice-by-8 Crc32 gives the IEEE known answer and equals a
//     bitwise reference at every length and alignment, and a frame built
//     by hand with the reference CRC reads back;
//   * round trip — every record type the writer emits survives write +
//     read with its LSN, page id, payload and page-count field intact;
//   * range records — random mutations of a page log runs whose new bytes
//     rebuild the page and whose old bytes rebuild its shadow, an
//     unchanged page logs nothing, and malformed runs decode as Corruption;
//   * durability buffering — records buffered under a deferred window are
//     genuinely absent from the file until a sync point (the property the
//     crash tests rely on), and EnsureDurable drains them;
//   * group commit — window 1 forces one fsync per commit, window N one
//     per N commits, and Close drains the remainder;
//   * corruption — a flipped bit or a truncated tail stops the reader at
//     the last whole record with torn_tail() set, never a bad decode;
//   * checkpoint — restarts the file with a single checkpoint record;
//   * sticky death — a failed sync point kills the writer permanently.
//
// Runs with the DurableSync seam off: WalStats::fsyncs counts durability
// points, not syscalls, so the counts are exact on any filesystem.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/fault_injection.h"
#include "storage/page_store.h"
#include "storage/wal.h"
#include "util/rng.h"
#include "wal_frames.h"

namespace rtb::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_durable_ = DurableSyncActive();
    SetDurableSync(false);
  }
  void TearDown() override { SetDurableSync(was_durable_); }

  std::string Path(const char* name) {
    return ::testing::TempDir() + "/rtb_wal_" + std::to_string(::getpid()) +
           "_" + name;
  }

  static uint64_t FileSize(const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                          : 0;
  }

  static std::vector<uint8_t> Bytes(size_t n, uint8_t seed) {
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seed + i);
    return out;
  }

  static std::vector<WalRecord> ReadAll(const std::string& path,
                                        bool* torn = nullptr) {
    auto reader = WalReader::Open(path);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<WalRecord> records;
    WalRecord rec;
    while ((*reader)->Next(&rec)) records.push_back(rec);
    if (torn != nullptr) *torn = (*reader)->torn_tail();
    return records;
  }

  // Appends one kPageDelta record for `before` -> `after`; returns its LSN
  // (kNoLsn when the bytes are equal).
  static Lsn AppendDelta(WalWriter* writer, PageId id,
                         const std::vector<uint8_t>& before,
                         const std::vector<uint8_t>& after) {
    PageDelta delta;
    delta.page_id = id;
    delta.before = before.data();
    delta.after = after.data();
    writer->AppendPageDeltas(&delta, 1, before.size());
    return delta.lsn;
  }

  bool was_durable_ = false;
};

// Copies one side of `runs` into `page`.
void ApplyRuns(const std::vector<WalRun>& runs, bool new_side,
               std::vector<uint8_t>* page) {
  for (const WalRun& run : runs) {
    const uint8_t* bytes = new_side ? run.new_bytes : run.old_bytes;
    ASSERT_NE(bytes, nullptr);
    std::memcpy(page->data() + run.offset, bytes, run.length);
  }
}

TEST_F(WalTest, Crc32KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(0, reinterpret_cast<const uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(Crc32(0, nullptr, 0), 0u);
  // Continuing from a partial CRC equals one pass over the whole input.
  const auto* bytes = reinterpret_cast<const uint8_t*>(check);
  EXPECT_EQ(Crc32(Crc32(0, bytes, 4), bytes + 4, 5), 0xCBF43926u);
}

TEST_F(WalTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(42);
  std::vector<uint8_t> buf(1024 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.UniformInt(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32(0, buf.data() + offset, len),
                testutil::ReferenceCrc32(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST_F(WalTest, ReadsFramesBuiltWithTheReferenceCrc) {
  const std::string path = Path("reference_frames");
  std::remove(path.c_str());
  const std::vector<uint8_t> image = Bytes(64, 3);
  const std::vector<uint8_t> runs = {4, 0, 0, 0, 2, 0, 0, 0, 1, 2, 3, 4};
  ASSERT_TRUE(testutil::AppendToFile(
      path, testutil::WalFrame(
                static_cast<uint32_t>(WalRecordType::kCheckpoint), 1,
                kInvalidPageId, testutil::PageCountPayload(2))));
  ASSERT_TRUE(testutil::AppendToFile(
      path,
      testutil::WalFrame(static_cast<uint32_t>(WalRecordType::kPageImage), 2,
                         1, image)));
  ASSERT_TRUE(testutil::AppendToFile(
      path,
      testutil::WalFrame(static_cast<uint32_t>(WalRecordType::kPageDelta), 3,
                         0, runs)));
  bool torn = true;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(records[0].num_pages, 2u);
  EXPECT_EQ(records[1].type, WalRecordType::kPageImage);
  EXPECT_EQ(records[1].lsn, 2u);
  EXPECT_EQ(records[1].page_id, 1u);
  EXPECT_EQ(records[1].payload, image);
  EXPECT_EQ(records[2].type, WalRecordType::kPageDelta);
  EXPECT_EQ(records[2].payload, runs);
  std::vector<WalRun> decoded;
  ASSERT_TRUE(DecodePageRuns(records[2], 64, &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].offset, 4u);
  EXPECT_EQ(decoded[0].length, 2u);
  EXPECT_EQ(decoded[0].old_bytes[1], 2);
  EXPECT_EQ(decoded[0].new_bytes[0], 3);

  // And the writer's frames check out against the reference CRC.
  const std::string written = Path("reference_written");
  auto writer = WalWriter::Create(written);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Commit(9).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  std::ifstream in(written, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, testutil::WalFrame(
                       static_cast<uint32_t>(WalRecordType::kCommit), 1,
                       kInvalidPageId, testutil::PageCountPayload(9)));
}

TEST_F(WalTest, SeamIsOffByDefaultAndSwitchable) {
  // The binary under test is built with -DRTB_WAL=ON; runtime default off.
  ASSERT_TRUE(WalAvailable());
  const bool was = WalActive();
  EXPECT_TRUE(SetWal(true));
  EXPECT_TRUE(WalActive());
  EXPECT_TRUE(SetWal(false));
  EXPECT_FALSE(WalActive());
  SetWal(was);
}

TEST_F(WalTest, RejectsZeroWindow) {
  WalWriter::Options options;
  options.group_commit_window = 0;
  auto writer = WalWriter::Create(Path("zero_window"), options);
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WalTest, RoundTripsEveryRecordType) {
  const std::string path = Path("round_trip");
  auto writer = WalWriter::Create(path);  // Window 1.
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::vector<uint8_t> before = Bytes(64, 90);
  std::vector<uint8_t> after = before;
  after[5] = 0;
  const std::vector<uint8_t> unchanged = Bytes(64, 10);
  const std::vector<uint8_t> logical = Bytes(24, 7);
  EXPECT_EQ(AppendDelta(writer->get(), 3, before, after), 1u);
  EXPECT_EQ(AppendDelta(writer->get(), 4, unchanged, unchanged), kNoLsn);
  EXPECT_EQ((*writer)->AppendLogicalUpdate(logical.data(), logical.size()),
            2u);
  const std::vector<uint8_t> page_count = testutil::PageCountPayload(17);
  EXPECT_EQ((*writer)->stats().records, 2u);
  auto commit = (*writer)->Commit(/*num_pages=*/17);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(*commit, 3u);
  EXPECT_TRUE((*writer)->Durable(*commit));  // Window 1 forces the group.
  ASSERT_TRUE((*writer)->Close().ok());

  bool torn = true;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, WalRecordType::kPageDelta);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].page_id, 3u);
  // One run: header, one old byte, one new byte.
  EXPECT_EQ(records[0].payload.size(), kWalRunHeaderSize + 2);
  std::vector<WalRun> runs;
  ASSERT_TRUE(DecodePageRuns(records[0], before.size(), &runs).ok());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 5u);
  EXPECT_EQ(runs[0].length, 1u);
  EXPECT_EQ(runs[0].old_bytes[0], before[5]);
  EXPECT_EQ(runs[0].new_bytes[0], 0);
  EXPECT_EQ(records[1].type, WalRecordType::kLogicalUpdate);
  EXPECT_EQ(records[1].payload, logical);
  EXPECT_EQ(records[2].type, WalRecordType::kCommit);
  EXPECT_EQ(records[2].lsn, 3u);
  EXPECT_EQ(records[2].num_pages, 17u);
  EXPECT_EQ(records[2].payload, page_count);
}

TEST_F(WalTest, DeferredRecordsStayOutOfTheFileUntilASyncPoint) {
  const std::string path = Path("deferred");
  WalWriter::Options options;
  options.group_commit_window = 8;
  auto writer = WalWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  const std::vector<uint8_t> logical = Bytes(32, 1);
  (*writer)->AppendLogicalUpdate(logical.data(), logical.size());
  auto commit = (*writer)->Commit(1);
  ASSERT_TRUE(commit.ok());
  // Two records buffered, no sync point yet: the file must not contain
  // them — that is what makes a simulated crash lose exactly the
  // unsynced suffix.
  EXPECT_EQ(FileSize(path), 0u);
  EXPECT_FALSE((*writer)->Durable(*commit));
  EXPECT_EQ((*writer)->stats().fsyncs, 0u);

  ASSERT_TRUE((*writer)->EnsureDurable(*commit).ok());
  EXPECT_TRUE((*writer)->Durable(*commit));
  EXPECT_EQ((*writer)->stats().fsyncs, 1u);
  EXPECT_GT(FileSize(path), 0u);
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(ReadAll(path).size(), 2u);
}

TEST_F(WalTest, GroupCommitCoalescesDurabilityPoints) {
  const std::vector<uint8_t> before = Bytes(48, 3);
  const std::vector<uint8_t> after = Bytes(48, 4);

  // Window 1: every commit is its own durability point.
  auto forced = WalWriter::Create(Path("window1"));
  ASSERT_TRUE(forced.ok());
  for (int i = 0; i < 8; ++i) {
    AppendDelta(forced->get(), 0, before, after);
    ASSERT_TRUE((*forced)->Commit(1).ok());
  }
  EXPECT_EQ((*forced)->stats().commits, 8u);
  EXPECT_EQ((*forced)->stats().fsyncs, 8u);
  ASSERT_TRUE((*forced)->Close().ok());

  // Window 8: sixteen commits drain twice.
  WalWriter::Options options;
  options.group_commit_window = 8;
  auto grouped = WalWriter::Create(Path("window8"), options);
  ASSERT_TRUE(grouped.ok());
  for (int i = 0; i < 16; ++i) {
    AppendDelta(grouped->get(), 0, before, after);
    ASSERT_TRUE((*grouped)->Commit(1).ok());
  }
  EXPECT_EQ((*grouped)->stats().commits, 16u);
  EXPECT_EQ((*grouped)->stats().fsyncs, 2u);

  // A partial group (3 more commits) drains once on Close.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*grouped)->Commit(1).ok());
  }
  EXPECT_EQ((*grouped)->stats().fsyncs, 2u);
  ASSERT_TRUE((*grouped)->Close().ok());
  EXPECT_EQ((*grouped)->stats().fsyncs, 3u);
}

TEST_F(WalTest, ReaderRejectsAFlippedBit) {
  const std::string path = Path("crc");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*writer)->Commit(1).ok());  // 24B header + 8B payload each.
  }
  ASSERT_TRUE((*writer)->Close().ok());
  ASSERT_EQ(ReadAll(path).size(), 3u);

  // Flip one payload bit of the middle record.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(32 + 24);
    char b = 0;
    f.read(&b, 1);
    f.seekp(32 + 24);
    b = static_cast<char>(b ^ 0x01);
    f.write(&b, 1);
  }
  bool torn = false;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 1u);  // The scan stops at the bad frame.
  EXPECT_EQ(records[0].lsn, 1u);
}

TEST_F(WalTest, ReaderRejectsAFlippedBitInARangeRecord) {
  const std::string path = Path("crc_range");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  const std::vector<uint8_t> before = Bytes(256, 0);
  std::vector<uint8_t> after = before;
  for (size_t i = 100; i < 140; ++i) after[i] = 0xEE;
  ASSERT_TRUE((*writer)->Commit(1).ok());
  ASSERT_EQ(AppendDelta(writer->get(), 7, before, after), 2u);
  ASSERT_TRUE((*writer)->Commit(1).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  ASSERT_EQ(ReadAll(path).size(), 3u);

  // Flip one bit among the range record's new bytes (commit frame, range
  // header, run header, 40 old bytes, then the new ones).
  const std::streamoff at = 32 + 24 + kWalRunHeaderSize + 40 + 3;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(at);
    char b = 0;
    f.read(&b, 1);
    EXPECT_EQ(static_cast<uint8_t>(b), 0xEE);
    f.seekp(at);
    b = static_cast<char>(b ^ 0x10);
    f.write(&b, 1);
  }
  bool torn = false;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kCommit);
}

TEST_F(WalTest, ReaderStopsAtATruncatedTail) {
  const std::string path = Path("torn");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Commit(1).ok());
  ASSERT_TRUE((*writer)->Commit(2).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  const uint64_t full = FileSize(path);
  ASSERT_TRUE(::truncate(path.c_str(), static_cast<off_t>(full - 5)) == 0);

  bool torn = false;
  const std::vector<WalRecord> records = ReadAll(path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].num_pages, 1u);

  auto reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  WalRecord rec;
  while ((*reader)->Next(&rec)) {
  }
  EXPECT_EQ((*reader)->valid_bytes(), full / 2);  // One whole record.
}

TEST_F(WalTest, ReaderStopsAtATruncatedRangeRecord) {
  const std::string path = Path("torn_range");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  const std::vector<uint8_t> before = Bytes(512, 9);
  const std::vector<uint8_t> after = Bytes(512, 10);  // Every byte differs.
  ASSERT_TRUE((*writer)->Commit(1).ok());
  ASSERT_EQ(AppendDelta(writer->get(), 2, before, after), 2u);
  ASSERT_TRUE((*writer)->Close().ok());
  const uint64_t full = FileSize(path);
  EXPECT_EQ(full, 32 + 24 + kWalRunHeaderSize + 2 * 512);
  // Tear inside the run's new bytes, then inside its old bytes.
  for (const uint64_t cut : {uint64_t{5}, uint64_t{600}}) {
    ASSERT_TRUE(::truncate(path.c_str(), static_cast<off_t>(full - cut)) ==
                0);
    bool torn = false;
    const std::vector<WalRecord> records = ReadAll(path, &torn);
    EXPECT_TRUE(torn);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].type, WalRecordType::kCommit);
  }
}

// Applying a range record's new bytes to the shadow rebuilds the page;
// applying its old bytes to the page rebuilds the shadow.
TEST_F(WalTest, RangeRecordsRoundTripRandomMutations) {
  constexpr size_t kPage = 512;
  const std::string path = Path("range_property");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  Rng rng(2024);

  struct Case {
    std::vector<uint8_t> shadow;
    std::vector<uint8_t> frame;
    Lsn lsn = kNoLsn;
    size_t expect_runs = 0;  // 0 = any count.
  };
  std::vector<Case> cases;
  const auto flip = [](std::vector<uint8_t>* page, size_t i) {
    (*page)[i] = static_cast<uint8_t>(~(*page)[i]);
  };
  for (int trial = 0; trial < 400; ++trial) {
    Case c;
    c.shadow.resize(kPage);
    for (uint8_t& b : c.shadow) b = static_cast<uint8_t>(rng.UniformInt(4));
    c.frame = c.shadow;
    const size_t at = rng.UniformInt(kPage - 2 * kWalRunHeaderSize - 2);
    switch (trial % 8) {
      case 0:  // No change.
        break;
      case 1:  // One byte anywhere.
        flip(&c.frame, at);
        c.expect_runs = 1;
        break;
      case 2:  // First and last byte: far apart, two runs.
        flip(&c.frame, 0);
        flip(&c.frame, kPage - 1);
        c.expect_runs = 2;
        break;
      case 3:  // The whole page.
        for (size_t i = 0; i < kPage; ++i) flip(&c.frame, i);
        c.expect_runs = 1;
        break;
      case 4:  // Gap one short of a run header: merged into one run.
        flip(&c.frame, at);
        flip(&c.frame, at + kWalRunHeaderSize);
        c.expect_runs = 1;
        break;
      case 5:  // Gap of exactly a run header: two runs.
        flip(&c.frame, at);
        flip(&c.frame, at + kWalRunHeaderSize + 1);
        c.expect_runs = 2;
        break;
      default:  // Random sprinkle of short runs.
        for (uint64_t k = 0, n = 1 + rng.UniformInt(12); k < n; ++k) {
          const size_t start = rng.UniformInt(kPage);
          const size_t len = 1 + rng.UniformInt(24);
          for (size_t i = start; i < std::min(kPage, start + len); ++i) {
            c.frame[i] = static_cast<uint8_t>(rng.UniformInt(256));
          }
        }
        break;
    }
    c.lsn = AppendDelta(writer->get(), static_cast<PageId>(trial), c.shadow,
                        c.frame);
    EXPECT_EQ(c.lsn == kNoLsn, c.shadow == c.frame) << "trial " << trial;
    cases.push_back(std::move(c));
  }
  ASSERT_TRUE((*writer)->Close().ok());

  const std::vector<WalRecord> records = ReadAll(path);
  size_t next = 0;
  std::vector<WalRun> runs;
  for (size_t trial = 0; trial < cases.size(); ++trial) {
    const Case& c = cases[trial];
    if (c.lsn == kNoLsn) continue;  // An unchanged page has no record.
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_LT(next, records.size());
    const WalRecord& rec = records[next++];
    EXPECT_EQ(rec.lsn, c.lsn);
    EXPECT_EQ(rec.page_id, trial);
    ASSERT_TRUE(DecodePageRuns(rec, kPage, &runs).ok());
    if (c.expect_runs != 0) {
      EXPECT_EQ(runs.size(), c.expect_runs);
    }
    for (size_t k = 1; k < runs.size(); ++k) {
      // Runs are ordered and at least a run header apart.
      EXPECT_GE(runs[k].offset,
                runs[k - 1].offset + runs[k - 1].length + kWalRunHeaderSize);
    }
    std::vector<uint8_t> redone = c.shadow;
    ApplyRuns(runs, /*new_side=*/true, &redone);
    EXPECT_EQ(redone, c.frame);
    std::vector<uint8_t> undone = c.frame;
    ApplyRuns(runs, /*new_side=*/false, &undone);
    EXPECT_EQ(undone, c.shadow);
  }
  EXPECT_EQ(next, records.size());
}

TEST_F(WalTest, DecodeRejectsRunsThatOverflowThePageOrThePayload) {
  constexpr size_t kPage = 64;
  const auto record = [](WalRecordType type,
                         const std::vector<uint32_t>& header_words,
                         size_t body_bytes) {
    WalRecord rec;
    rec.type = type;
    rec.page_id = 0;
    for (const uint32_t w : header_words) {
      const auto* b = reinterpret_cast<const uint8_t*>(&w);
      rec.payload.insert(rec.payload.end(), b, b + sizeof(w));
    }
    rec.payload.resize(rec.payload.size() + body_bytes, 0xAB);
    return rec;
  };
  std::vector<WalRun> runs;
  const auto code = [&](const WalRecord& rec) {
    return DecodePageRuns(rec, kPage, &runs).code();
  };
  const WalRecordType delta = WalRecordType::kPageDelta;
  EXPECT_EQ(code(record(delta, {0, 4}, 8)), StatusCode::kOk);
  EXPECT_EQ(code(record(delta, {60, 4}, 8)), StatusCode::kOk);
  EXPECT_EQ(code(record(delta, {0, 64}, 128)), StatusCode::kOk);
  // Past the page end, or wrapping around it.
  EXPECT_EQ(code(record(delta, {61, 4}, 8)), StatusCode::kCorruption);
  EXPECT_EQ(code(record(delta, {0, 65}, 130)), StatusCode::kCorruption);
  EXPECT_EQ(code(record(delta, {0xFFFFFFFFu, 2}, 4)),
            StatusCode::kCorruption);
  // Past the payload end: short bytes, short header, a second bad run.
  EXPECT_EQ(code(record(delta, {0, 4}, 7)), StatusCode::kCorruption);
  EXPECT_EQ(code(record(delta, {0, 4}, 8 + 5)), StatusCode::kCorruption);
  EXPECT_EQ(code(record(delta, {0, 4}, 8 + 8)), StatusCode::kCorruption);
  // No runs at all, or an empty one.
  EXPECT_EQ(code(record(delta, {}, 0)), StatusCode::kCorruption);
  EXPECT_EQ(code(record(delta, {3, 0}, 0)), StatusCode::kCorruption);
  // Legacy full-page records must be exactly one page.
  EXPECT_EQ(code(record(WalRecordType::kPageImage, {}, kPage)),
            StatusCode::kOk);
  EXPECT_EQ(code(record(WalRecordType::kBeforeImage, {}, kPage - 1)),
            StatusCode::kCorruption);
  // Not a page record.
  EXPECT_EQ(code(record(WalRecordType::kCommit, {}, 8)),
            StatusCode::kCorruption);
}

TEST_F(WalTest, CheckpointRestartsTheLog) {
  const std::string path = Path("checkpoint");
  auto writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  const std::vector<uint8_t> old_page = Bytes(128, 5);
  const std::vector<uint8_t> new_page = Bytes(128, 6);
  for (int i = 0; i < 4; ++i) {
    AppendDelta(writer->get(), static_cast<PageId>(i), old_page, new_page);
    ASSERT_TRUE((*writer)->Commit(i + 1).ok());
  }
  const uint64_t before = FileSize(path);
  ASSERT_TRUE((*writer)->Checkpoint(/*num_pages=*/4).ok());
  EXPECT_LT(FileSize(path), before);

  std::vector<WalRecord> records = ReadAll(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(records[0].num_pages, 4u);

  // The log keeps working after the restart, with LSNs still monotonic.
  AppendDelta(writer->get(), 0, old_page, new_page);
  ASSERT_TRUE((*writer)->Commit(4).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  records = ReadAll(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_GT(records[1].lsn, records[0].lsn);
}

TEST_F(WalTest, AFailedSyncPointIsSticky) {
  CrashClock clock;
  CrashWalHook hook(&clock);
  WalWriter::Options options;
  options.fault_hook = &hook;
  auto writer = WalWriter::Create(Path("sticky"), options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Commit(1).ok());

  clock.budget = 0;  // The next sync point dies.
  EXPECT_FALSE((*writer)->Commit(1).ok());
  // Dead forever after, without touching the clock again.
  EXPECT_FALSE((*writer)->Commit(1).ok());
  EXPECT_FALSE((*writer)->EnsureDurable((*writer)->last_lsn()).ok());
  EXPECT_FALSE((*writer)->Close().ok());
}

}  // namespace
}  // namespace rtb::storage
