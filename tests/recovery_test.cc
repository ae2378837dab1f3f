// Crash recovery of the durable write path (storage/wal.h +
// FilePageStore::OpenWithRecovery):
//
//   * unit redo/undo — a committed change that never reached the store is
//     replayed; an uncommitted stolen page is rolled back; a garbage log
//     tail is discarded. Each runs twice: on a log of range records from
//     WalWriter, and on a hand-built log of the legacy full-page records
//     (after-images and before-images) an older binary wrote, which
//     recovery still reads. A record type recovery does not know is
//     Corruption;
//   * steal and redo through a real pool — random page changes, new pages
//     and mid-batch steals, with the process dying before or after the
//     last commit, recover to exactly the last committed page contents;
//   * the crash-point property — a deterministic mixed insert/delete
//     workload is crashed at EVERY I/O operation (store reads, writes,
//     allocations, syncs, and WAL sync points share one CrashClock budget),
//     with torn page and torn log writes mixed in. After every crash,
//     OpenWithRecovery must produce a structurally valid tree whose
//     leaf-entry set equals the workload state at the commit boundary the
//     durable log prefix ends on — never a torn hybrid of two batches.
//
// Runs with the DurableSync seam off; a "durable" byte here is a byte that
// reached the log or store file, which is exactly what the simulated crash
// (failing the process, not the kernel) preserves.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rtb.h"
#include "rtree/update_batch.h"
#include "rtree/validate.h"
#include "storage/fault_injection.h"
#include "storage/file_page_store.h"
#include "storage/wal.h"
#include "wal_frames.h"

namespace rtb::rtree {
namespace {

using geom::Rect;
using storage::BufferPool;
using storage::CrashClock;
using storage::CrashWalHook;
using storage::FaultInjectingPageStore;
using storage::FilePageStore;
using storage::PageId;
using storage::WalReader;
using storage::WalRecord;
using storage::WalRecordType;
using storage::WalRecoveryReport;
using storage::WalWriter;

constexpr size_t kPageSize = 512;
constexpr size_t kPoolPages = 8;  // Tiny on purpose: steals mid-batch.

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_durable_ = storage::DurableSyncActive();
    storage::SetDurableSync(false);
  }
  void TearDown() override { storage::SetDurableSync(was_durable_); }

  std::string Path(const char* name) {
    return ::testing::TempDir() + "/rtb_rec_" + std::to_string(::getpid()) +
           "_" + name;
  }

  bool was_durable_ = false;
};

std::vector<uint8_t> PageBytes(uint8_t seed) {
  std::vector<uint8_t> out(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    out[i] = static_cast<uint8_t>(seed + i);
  }
  return out;
}

TEST_F(RecoveryTest, OpenWithRecoveryWithoutALogIsAPlainOpen) {
  const std::string path = Path("no_log");
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> content = PageBytes(1);
  ASSERT_TRUE((*store)->Allocate().ok());
  ASSERT_TRUE((*store)->Write(0, content.data()).ok());
  ASSERT_TRUE((*store)->Close().ok());

  WalRecoveryReport report;
  auto reopened = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                  &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(report.wal_found);
  std::vector<uint8_t> read(kPageSize);
  ASSERT_TRUE((*reopened)->Read(0, read.data()).ok());
  EXPECT_EQ(read, content);
  ASSERT_TRUE((*reopened)->Close().ok());
}

// The two log formats recovery reads.
enum class LogFormat { kRange, kFullPage };

// Writes a test log in either format through one surface. kRange goes
// through WalWriter, exactly as the pools log. kFullPage hand-builds the
// frames the writer used to emit: a before-image at a page's first change
// since its last log point and an after-image at the log point.
class TestLog {
 public:
  TestLog(LogFormat format, std::string path)
      : format_(format), path_(std::move(path)) {
    std::remove(path_.c_str());
    if (format_ == LogFormat::kRange) {
      auto wal = WalWriter::Create(path_);  // Window 1: commit forces.
      RTB_CHECK(wal.ok());
      wal_ = std::move(*wal);
    }
  }

  void Checkpoint(uint64_t num_pages) {
    if (wal_ != nullptr) {
      RTB_CHECK(wal_->Checkpoint(num_pages).ok());
    } else {
      Put(WalRecordType::kCheckpoint, storage::kInvalidPageId,
          testutil::PageCountPayload(num_pages));
    }
  }

  // Logs page `id` going from `before` to `after`, durably.
  void Change(PageId id, const std::vector<uint8_t>& before,
              const std::vector<uint8_t>& after) {
    if (wal_ != nullptr) {
      storage::PageDelta delta;
      delta.page_id = id;
      delta.before = before.data();
      delta.after = after.data();
      wal_->AppendPageDeltas(&delta, 1, before.size());
      RTB_CHECK(wal_->EnsureDurable(delta.lsn).ok());
    } else {
      Put(WalRecordType::kBeforeImage, id, before);
      Put(WalRecordType::kPageImage, id, after);
    }
  }

  void Commit(uint64_t num_pages) {
    if (wal_ != nullptr) {
      RTB_CHECK(wal_->Commit(num_pages).ok());
    } else {
      Put(WalRecordType::kCommit, storage::kInvalidPageId,
          testutil::PageCountPayload(num_pages));
    }
  }

  // The process dies: nothing more reaches the log.
  void Crash() { wal_.reset(); }

 private:
  void Put(WalRecordType type, PageId id, const std::vector<uint8_t>& body) {
    RTB_CHECK(testutil::AppendToFile(
        path_, testutil::WalFrame(static_cast<uint32_t>(type), next_lsn_++,
                                  id, body)));
  }

  LogFormat format_;
  std::string path_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t next_lsn_ = 1;
};

class RecoveryFormatTest : public RecoveryTest,
                           public ::testing::WithParamInterface<LogFormat> {
 protected:
  std::string FormatPath(const char* name) {
    return Path(name) +
           (GetParam() == LogFormat::kRange ? "_range" : "_fullpage");
  }
};

INSTANTIATE_TEST_SUITE_P(
    Formats, RecoveryFormatTest,
    ::testing::Values(LogFormat::kRange, LogFormat::kFullPage),
    [](const ::testing::TestParamInfo<LogFormat>& info) {
      return info.param == LogFormat::kRange ? std::string("Range")
                                             : std::string("FullPage");
    });

TEST_P(RecoveryFormatTest, RedoesACommittedImageTheStoreNeverSaw) {
  const std::string path = FormatPath("redo");
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> old_content = PageBytes(10);
  std::vector<uint8_t> new_content = old_content;
  for (size_t i = 16; i < 56; ++i) new_content[i] = 0xC3;  // One entry.
  ASSERT_TRUE((*store)->Allocate().ok());
  ASSERT_TRUE((*store)->Write(0, old_content.data()).ok());
  ASSERT_TRUE((*store)->Sync().ok());

  TestLog log(GetParam(), path + ".wal");
  log.Change(0, old_content, new_content);
  log.Commit(1);
  // Crash before the no-force pool would ever have written the page: the
  // store still holds the old bytes, only the log has the new ones.
  (*store)->Abandon();
  log.Crash();

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.wal_found);
  EXPECT_EQ(report.redo_pages, 1u);
  EXPECT_EQ(report.undo_pages, 0u);
  std::vector<uint8_t> read(kPageSize);
  ASSERT_TRUE((*recovered)->Read(0, read.data()).ok());
  EXPECT_EQ(read, new_content);
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_P(RecoveryFormatTest, UndoesAnUncommittedStolenPage) {
  const std::string path = FormatPath("undo");
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> committed = PageBytes(30);
  std::vector<uint8_t> stolen = committed;
  stolen[0] = 0x5A;
  stolen[kPageSize - 1] = 0xA5;
  ASSERT_TRUE((*store)->Allocate().ok());
  ASSERT_TRUE((*store)->Write(0, committed.data()).ok());
  ASSERT_TRUE((*store)->Sync().ok());

  TestLog log(GetParam(), path + ".wal");
  log.Checkpoint(1);
  // The steal protocol, by hand: the page's change made durable right
  // before the eviction writes the page — and then a crash with no commit
  // in sight.
  log.Change(0, committed, stolen);
  ASSERT_TRUE((*store)->Write(0, stolen.data()).ok());
  (*store)->Abandon();
  log.Crash();

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.redo_pages, 0u);
  EXPECT_EQ(report.undo_pages, 1u);
  std::vector<uint8_t> read(kPageSize);
  ASSERT_TRUE((*recovered)->Read(0, read.data()).ok());
  EXPECT_EQ(read, committed);  // Rolled back.
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_P(RecoveryFormatTest, DiscardsAGarbageTailAndTruncatesTheLog) {
  const std::string path = FormatPath("tail");
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok());
  const std::vector<uint8_t> content = PageBytes(55);
  ASSERT_TRUE((*store)->Allocate().ok());
  ASSERT_TRUE((*store)->Write(0, content.data()).ok());
  ASSERT_TRUE((*store)->Sync().ok());

  {
    TestLog log(GetParam(), path + ".wal");
    log.Change(0, PageBytes(54), content);
    log.Commit(1);
  }
  // A torn group-commit write: garbage after the last whole record.
  const char junk[] = "torn torn torn";
  ASSERT_TRUE(testutil::AppendToFile(
      path + ".wal", std::vector<uint8_t>(junk, junk + sizeof(junk))));
  (*store)->Abandon();

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.tail_torn);
  EXPECT_GT(report.torn_bytes, 0u);
  EXPECT_EQ(report.redo_pages, 1u);
  std::vector<uint8_t> read(kPageSize);
  ASSERT_TRUE((*recovered)->Read(0, read.data()).ok());
  EXPECT_EQ(read, content);
  ASSERT_TRUE((*recovered)->Close().ok());

  // Recovery truncated the log, so a second open has nothing to do.
  WalRecoveryReport second;
  auto again = FilePageStore::OpenWithRecovery(path, path + ".wal", &second);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(second.wal_found);
  EXPECT_FALSE(second.tail_torn);
  EXPECT_EQ(second.records_scanned, 0u);
  ASSERT_TRUE((*again)->Close().ok());
}

TEST_F(RecoveryTest, AnUnknownRecordTypeIsCorruption) {
  const std::string path = Path("unknown_type");
  auto store = FilePageStore::Create(path, kPageSize);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Allocate().ok());
  ASSERT_TRUE((*store)->Sync().ok());
  (*store)->Abandon();
  const std::string wal_path = path + ".wal";
  std::remove(wal_path.c_str());
  // A whole frame with a good CRC: not a torn tail, so recovery must not
  // skip it.
  ASSERT_TRUE(testutil::AppendToFile(
      wal_path,
      testutil::WalFrame(static_cast<uint32_t>(WalRecordType::kCheckpoint), 1,
                         storage::kInvalidPageId,
                         testutil::PageCountPayload(1))));
  ASSERT_TRUE(testutil::AppendToFile(
      wal_path, testutil::WalFrame(99, 2, 0, PageBytes(1))));

  auto recovered = FilePageStore::OpenWithRecovery(path, wal_path);
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption)
      << recovered.status().ToString();
}

// Steal, undo and redo through a real pool: pages changed by short runs,
// whole-page rewrites and FetchMutable calls that change nothing, new pages
// allocated, and a 4-frame pool stealing pages mid-batch, re-reading them
// and changing them again. The process then dies, with the last batch
// committed (even seeds: its pages only in the log) or not (odd seeds: its
// stolen pages already in the store). Recovery must leave the store exactly
// as the last commit left it.
TEST_F(RecoveryTest, StolenAndUnflushedPagesRecoverToTheLastCommit) {
  uint64_t steals = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string path = Path("steal_undo");
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    auto store = FilePageStore::Create(path, kPageSize);
    ASSERT_TRUE(store.ok());
    auto wal = WalWriter::Create(path + ".wal");
    ASSERT_TRUE(wal.ok());
    std::unique_ptr<BufferPool> pool = BufferPool::MakeLru(store->get(), 4);
    pool->AttachWal(wal->get());
    Rng rng(seed);
    const auto random_fill = [&](uint8_t* d, size_t from, size_t len) {
      for (size_t i = from; i < from + len; ++i) {
        d[i] = static_cast<uint8_t>(rng.UniformInt(256));
      }
    };
    std::vector<std::vector<uint8_t>> pages;  // Content in the pool.
    const auto new_page = [&] {
      auto g = pool->NewPage();
      ASSERT_TRUE(g.ok());
      const size_t from = rng.UniformInt(kPageSize / 2);
      random_fill(g->mutable_data(), from, 1 + rng.UniformInt(64));
      pages.emplace_back(g->data(), g->data() + kPageSize);
    };
    for (int i = 0; i < 6; ++i) new_page();
    ASSERT_TRUE(pool->WalCheckpoint().ok());
    std::vector<std::vector<uint8_t>> committed = pages;

    const int batches = 5;
    const bool last_commits = seed % 2 == 0;
    for (int b = 0; b < batches; ++b) {
      for (int op = 0; op < 24; ++op) {
        const uint64_t kind = rng.UniformInt(10);
        if (kind == 0) {
          new_page();
          continue;
        }
        const auto id = static_cast<PageId>(rng.UniformInt(pages.size()));
        auto g = pool->FetchMutable(id);
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        uint8_t* d = g->mutable_data();
        if (kind == 2) {
          random_fill(d, 0, kPageSize);
        } else if (kind > 2) {
          const size_t from = rng.UniformInt(kPageSize);
          random_fill(d, from,
                      1 + rng.UniformInt(std::min<size_t>(48, kPageSize - from)));
        }  // kind == 1: fetched for writing, left unchanged.
        pages[id].assign(d, d + kPageSize);
      }
      if (b + 1 < batches || last_commits) {
        ASSERT_TRUE(pool->WalCommit().ok());
        committed = pages;
      }
    }
    steals += pool->AggregateStats().writebacks;
    // Death: dirty frames vanish, nothing is flushed or checkpointed.
    pool->DiscardAll();
    pool.reset();
    wal->reset();
    (*store)->Abandon();

    WalRecoveryReport report;
    auto recovered =
        FilePageStore::OpenWithRecovery(path, path + ".wal", &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_EQ((*recovered)->num_pages(), committed.size());
    std::vector<uint8_t> read(kPageSize);
    for (PageId id = 0; id < committed.size(); ++id) {
      ASSERT_TRUE((*recovered)->Read(id, read.data()).ok());
      EXPECT_EQ(read, committed[id]) << "page " << id;
    }
    ASSERT_TRUE((*recovered)->Close().ok());
  }
  EXPECT_GT(steals, 100u);  // The pool really did steal mid-batch.
}

// ---------------------------------------------------------------------------
// The crash-point property test.
// ---------------------------------------------------------------------------

Rect ScriptRect(Rng& rng) {
  const double side = 0.004 + rng.NextDouble() * 0.05;
  const double x = rng.NextDouble() * (1.0 - side);
  const double y = rng.NextDouble() * (1.0 - side);
  return Rect(x, y, x + side, y + side);
}

// A deterministic batched workload plus its oracle: the sorted object-id
// set after every committed batch. Delete victims are drawn from entries
// present at batch start (the executor's specified semantics), never from
// same-batch inserts.
struct Script {
  std::vector<std::vector<UpdateOp>> batches;
  std::vector<std::vector<uint64_t>> ids_after;  // [0] = initial empty tree.
};

Script MakeScript(int num_batches, int batch_size, uint64_t seed) {
  Rng rng(seed);
  Script script;
  std::vector<std::pair<uint64_t, Rect>> live;
  uint64_t next_id = 1;
  script.ids_after.emplace_back();
  for (int b = 0; b < num_batches; ++b) {
    std::vector<UpdateOp> ops;
    std::vector<std::pair<uint64_t, Rect>> added;
    std::vector<bool> taken(live.size(), false);
    size_t num_taken = 0;
    for (int k = 0; k < batch_size; ++k) {
      if (rng.NextDouble() < 0.4 && num_taken < live.size()) {
        size_t v = static_cast<size_t>(
            rng.UniformInt(static_cast<uint64_t>(live.size())));
        while (taken[v]) v = (v + 1) % live.size();
        taken[v] = true;
        ++num_taken;
        ops.push_back(UpdateOp::Delete(live[v].second, live[v].first));
      } else {
        const Rect r = ScriptRect(rng);
        ops.push_back(UpdateOp::Insert(r, next_id));
        added.emplace_back(next_id, r);
        ++next_id;
      }
    }
    std::vector<std::pair<uint64_t, Rect>> next_live;
    for (size_t i = 0; i < live.size(); ++i) {
      if (!taken[i]) next_live.push_back(live[i]);
    }
    next_live.insert(next_live.end(), added.begin(), added.end());
    live = std::move(next_live);
    std::vector<uint64_t> ids;
    ids.reserve(live.size());
    for (const auto& [id, rect] : live) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    script.ids_after.push_back(std::move(ids));
    script.batches.push_back(std::move(ops));
  }
  return script;
}

struct CrashCase {
  uint64_t budget = UINT64_MAX;
  bool torn = false;
  uint64_t torn_bytes = 0;
  uint64_t window = 1;
};

struct CrashOutcome {
  bool crashed = false;
  uint64_t ticks_used = 0;    // Meaningful for a clean (uncrashed) run.
  size_t batches_done = 0;
  // Tree meta after batch j (meta[0] = initial tree); on a crash one more
  // entry is appended with the in-memory meta at the crash, which is the
  // batch-complete meta whenever the dying batch's commit record made it
  // into the log (the only case that entry is consulted).
  std::vector<std::pair<PageId, uint16_t>> meta;
};

// Runs the scripted workload against a fresh store + WAL at `path`, with a
// crash armed after setup. On a crash, tears the simulated process down
// the way death does: buffered pages and the dead WAL writer are dropped,
// nothing is flushed, no headers are rewritten.
CrashOutcome RunWorkload(const Script& script, const std::string& path,
                         const CrashCase& cc) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  CrashClock clock;
  CrashWalHook hook(&clock);
  auto store = FilePageStore::Create(path, kPageSize);
  RTB_CHECK(store.ok());
  FaultInjectingPageStore faulty(store->get());
  std::unique_ptr<BufferPool> pool = BufferPool::MakeLru(&faulty, kPoolPages);
  auto tree = RTree::Create(pool.get(), RTreeConfig::WithFanout(8));
  RTB_CHECK(tree.ok());
  WalWriter::Options wopts;
  wopts.group_commit_window = cc.window;
  wopts.fault_hook = &hook;
  auto wal = WalWriter::Create(path + ".wal", wopts);
  RTB_CHECK(wal.ok());
  pool->AttachWal(wal->get());
  RTB_CHECK(pool->WalCheckpoint().ok());  // Durable base: the empty tree.

  CrashOutcome out;
  out.meta.emplace_back(tree->root(), tree->height());

  clock.torn = cc.torn;
  clock.torn_bytes = cc.torn_bytes;
  clock.budget = cc.budget;  // Arm: every I/O from here on ticks.
  faulty.ArmCrash(&clock);

  UpdateBatchExecutor exec(&*tree);
  Status failure = Status::OK();
  for (const std::vector<UpdateOp>& batch : script.batches) {
    failure = exec.Run(batch);
    if (!failure.ok()) break;
    ++out.batches_done;
    out.meta.emplace_back(tree->root(), tree->height());
  }
  if (failure.ok()) {
    // Clean shutdown: checkpoint (flush + store sync + log restart). Under
    // a tight budget the crash can land here too.
    failure = pool->Close();
    if (failure.ok()) failure = (*wal)->Close();
  }
  out.crashed = !failure.ok();
  if (out.crashed) {
    out.meta.emplace_back(tree->root(), tree->height());
    pool->DiscardAll();          // Dirty pages die with the process.
    (void)(*wal)->Close();       // Dead writer; the sticky error is the
    wal->reset();                // crash itself, nothing reaches the log.
    (*store)->Abandon();         // No final header write, no final fsync.
  } else {
    out.ticks_used = cc.budget - clock.budget;
    RTB_CHECK((*store)->Close().ok());
  }
  return out;
}

// What the log's valid prefix says about the durable state.
struct LogSummary {
  bool any_records = false;
  // LSN of the last checkpoint record. The workload writes exactly two
  // checkpoints — at setup (always lsn 1, the log's first record ever) and
  // at clean shutdown (always later) — so this tells them apart.
  storage::Lsn checkpoint_lsn = 0;
  size_t commits_after_checkpoint = 0;
};

LogSummary SummarizeLog(const std::string& wal_path) {
  LogSummary out;
  auto reader = WalReader::Open(wal_path);
  if (!reader.ok()) return out;
  WalRecord rec;
  while ((*reader)->Next(&rec)) {
    out.any_records = true;
    if (rec.type == WalRecordType::kCheckpoint) {
      out.checkpoint_lsn = rec.lsn;
      out.commits_after_checkpoint = 0;
    } else if (rec.type == WalRecordType::kCommit) {
      ++out.commits_after_checkpoint;
    }
  }
  return out;
}

// All leaf object ids of the tree rooted at `root`, read directly from the
// recovered store, sorted for multiset comparison.
std::vector<uint64_t> LeafIds(storage::PageStore* store, PageId root) {
  std::vector<uint64_t> out;
  std::vector<uint8_t> page(store->page_size());
  std::vector<PageId> stack{root};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    RTB_CHECK(store->Read(id, page.data()).ok());
    auto view = NodeView::Create(page.data(), store->page_size());
    RTB_CHECK(view.ok());
    for (uint16_t i = 0; i < view->count(); ++i) {
      if (view->is_leaf()) {
        out.push_back(view->entry(i).id);
      } else {
        stack.push_back(static_cast<PageId>(view->id(i)));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CheckCrashPoint(const Script& script, const std::string& path,
                     const CrashCase& cc) {
  SCOPED_TRACE("budget=" + std::to_string(cc.budget) +
               " torn=" + std::to_string(cc.torn) +
               " torn_bytes=" + std::to_string(cc.torn_bytes) +
               " window=" + std::to_string(cc.window));
  const CrashOutcome out = RunWorkload(script, path, cc);

  const LogSummary log = SummarizeLog(path + ".wal");
  size_t j;
  if (!log.any_records || log.checkpoint_lsn > 1) {
    // The close-time checkpoint got at least as far as truncating the log
    // (record-free file) or writing its record (checkpoint with a
    // post-setup LSN) — either way every batch was flushed and the store
    // header synced before that, so the durable state is the final one.
    ASSERT_EQ(out.batches_done, script.batches.size());
    j = out.batches_done;
  } else {
    // Log still anchored at the setup checkpoint: the durable state is the
    // last batch whose commit record made the valid prefix.
    j = log.commits_after_checkpoint;
  }
  ASSERT_LE(j, out.batches_done + 1);
  ASSERT_LT(j, out.meta.size());

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  const auto [root, height] = out.meta[j];
  ValidateOptions vopts;
  vopts.check_min_fill = false;  // Condensation mid-history is legitimate.
  const ValidationReport vr = ValidateTree(
      recovered->get(), root, RTreeConfig::WithFanout(8), vopts);
  ASSERT_TRUE(vr.ok) << (vr.issues.empty() ? "no issues" : vr.issues.front());

  EXPECT_EQ(LeafIds(recovered->get(), root), script.ids_after[j])
      << "recovered tree does not match commit boundary " << j;
  ASSERT_TRUE((*recovered)->Close().ok());
}

TEST_F(RecoveryTest, EveryCrashPointRecoversToACommittedBoundary) {
  const Script script = MakeScript(/*num_batches=*/12, /*batch_size=*/12,
                                   /*seed=*/1234);
  const std::string path = Path("sweep_w4");
  const CrashOutcome base =
      RunWorkload(script, path, CrashCase{UINT64_MAX, false, 0, 4});
  ASSERT_FALSE(base.crashed);
  ASSERT_EQ(base.batches_done, script.batches.size());
  ASSERT_GT(base.ticks_used, 20u);

  // Crash at every single I/O operation of the deterministic run, with a
  // torn dying write (page- and log-tears alike) every third point.
  for (uint64_t b = 0; b < base.ticks_used; ++b) {
    CrashCase cc;
    cc.budget = b;
    cc.window = 4;
    cc.torn = b % 3 == 0;
    cc.torn_bytes = 1 + (b * 53) % kPageSize;
    CheckCrashPoint(script, path, cc);
  }
}

TEST_F(RecoveryTest, CrashSweepWithForcedCommits) {
  const Script script = MakeScript(/*num_batches=*/6, /*batch_size=*/10,
                                   /*seed=*/77);
  const std::string path = Path("sweep_w1");
  const CrashOutcome base =
      RunWorkload(script, path, CrashCase{UINT64_MAX, false, 0, 1});
  ASSERT_FALSE(base.crashed);

  // Window 1 syncs far more often; sample every other crash point.
  for (uint64_t b = 0; b < base.ticks_used; b += 2) {
    CrashCase cc;
    cc.budget = b;
    cc.window = 1;
    cc.torn = b % 2 == 0;
    cc.torn_bytes = 1 + (b * 131) % (kPageSize / 2);
    CheckCrashPoint(script, path, cc);
  }
}

TEST_F(RecoveryTest, CleanShutdownLeavesNothingToRecover) {
  const Script script = MakeScript(/*num_batches=*/4, /*batch_size=*/8,
                                   /*seed=*/5);
  const std::string path = Path("clean");
  const CrashOutcome out =
      RunWorkload(script, path, CrashCase{UINT64_MAX, false, 0, 8});
  ASSERT_FALSE(out.crashed);

  WalRecoveryReport report;
  auto recovered = FilePageStore::OpenWithRecovery(path, path + ".wal",
                                                   &report);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(report.wal_found);
  EXPECT_EQ(report.redo_pages, 0u);
  EXPECT_EQ(report.undo_pages, 0u);
  const auto [root, height] = out.meta.back();
  EXPECT_EQ(LeafIds(recovered->get(), root), script.ids_after.back());
  ASSERT_TRUE((*recovered)->Close().ok());
}

}  // namespace
}  // namespace rtb::rtree
