#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>

#include "engine/engine.h"
#include "net/protocol.h"
#include "rtree/batch.h"
#include "rtree/rtree.h"
#include "rtree/update_batch.h"
#include "sim/runner.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/file_page_store.h"
#include "storage/replacement.h"
#include "storage/wal.h"
#include "util/macros.h"

namespace rtb::perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    tracer_->Begin(kind);
  }
  ~ScopedSpan() { tracer_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// Times every call into the store it wraps; otherwise a pass-through, in
// the pattern of storage::FaultInjectingPageStore.
class TimedPageStore final : public storage::PageStore {
 public:
  TimedPageStore(storage::PageStore* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  size_t page_size() const override { return base_->page_size(); }
  storage::PageId num_pages() const override { return base_->num_pages(); }

  Result<storage::PageId> Allocate() override {
    ScopedSpan span(tracer_, SpanKind::kStorageAllocate);
    return base_->Allocate();
  }
  Status Read(storage::PageId id, uint8_t* out) override {
    ScopedSpan span(tracer_, SpanKind::kStorageRead);
    ++pages_read_;
    return base_->Read(id, out);
  }
  Status ReadBatch(const storage::PageId* ids, size_t n,
                   uint8_t* out) override {
    ScopedSpan span(tracer_, SpanKind::kStorageReadBatch);
    pages_read_ += n;
    return base_->ReadBatch(ids, n, out);
  }
  bool CoalescesBatchReads() const override {
    return base_->CoalescesBatchReads();
  }
  Status Write(storage::PageId id, const uint8_t* data) override {
    ScopedSpan span(tracer_, SpanKind::kStorageWrite);
    ++pages_written_;
    return base_->Write(id, data);
  }
  Status WriteBatch(const storage::PageId* ids, size_t n,
                    const uint8_t* data) override {
    ScopedSpan span(tracer_, SpanKind::kStorageWriteBatch);
    pages_written_ += n;
    return base_->WriteBatch(ids, n, data);
  }
  bool CoalescesBatchWrites() const override {
    return base_->CoalescesBatchWrites();
  }
  Status Sync() override {
    ScopedSpan span(tracer_, SpanKind::kStorageSync);
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }
  // No direct-read source: every read must pass through the spans.
  storage::IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

  uint64_t pages_read() const { return pages_read_; }
  uint64_t pages_written() const { return pages_written_; }

 private:
  storage::PageStore* base_;
  Tracer* tracer_;
  uint64_t pages_read_ = 0;
  uint64_t pages_written_ = 0;
};

// The ServingStack::Open sequence with a TimedPageStore spliced in between
// the pool and the store.
class ReplayStack {
 public:
  Status Open(const engine::ExperimentSpec& spec, Tracer* tracer) {
    storage::SetVectoredIo(spec.storage.vectored_io);
    storage::SetAsyncIo(spec.storage.async_io);
    RTB_ASSIGN_OR_RETURN(prepared_, engine::PrepareTree(spec));
    timed_ =
        std::make_unique<TimedPageStore>(prepared_.store.get(), tracer);
    RTB_ASSIGN_OR_RETURN(storage::PolicyKind kind,
                         engine::ParsePolicyKind(spec.pool.policy));
    const uint64_t pages = spec.pool.buffer_pages;
    pool_ = std::make_unique<storage::BufferPool>(
        timed_.get(), pages, storage::MakePolicy(kind, pages, spec.run.seed));
    if (spec.pool.pinned_levels > 0) {
      RTB_RETURN_IF_ERROR(sim::PinTopLevels(pool_.get(), *prepared_.summary,
                                            spec.pool.pinned_levels));
    }
    if (spec.storage.wal.enabled) {
      RTB_RETURN_IF_ERROR(timed_->Sync());
      storage::WalWriter::Options wopts;
      wopts.group_commit_window = spec.storage.wal.group_commit_window;
      const std::string wal_path = spec.storage.wal.path.empty()
                                       ? spec.storage.path + ".wal"
                                       : spec.storage.wal.path;
      RTB_ASSIGN_OR_RETURN(wal_, storage::WalWriter::Create(wal_path, wopts));
      RTB_RETURN_IF_ERROR(wal_->Checkpoint(timed_->num_pages()));
      pool_->AttachWal(wal_.get());
    }
    RTB_ASSIGN_OR_RETURN(
        rtree::RTree tree,
        rtree::RTree::Open(pool_.get(),
                           rtree::RTreeConfig::WithFanout(
                               prepared_.meta.fanout),
                           prepared_.meta.root, prepared_.meta.height));
    tree_.emplace(std::move(tree));
    return Status::OK();
  }

  // Pool (checkpointing through the WAL), then WAL, then store.
  Status Close() {
    RTB_RETURN_IF_ERROR(pool_->Close());
    if (wal_ != nullptr) RTB_RETURN_IF_ERROR(wal_->Close());
    return prepared_.store->Close();
  }

  rtree::RTree* tree() { return &*tree_; }
  TimedPageStore* timed() { return timed_.get(); }

 private:
  engine::PreparedTree prepared_;
  std::unique_ptr<TimedPageStore> timed_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::WalWriter> wal_;
  std::optional<rtree::RTree> tree_;
};

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDrain: return "drain";
    case SpanKind::kNetEncodeRequests: return "net.encode_requests";
    case SpanKind::kNetDecode: return "net.decode";
    case SpanKind::kRtreeUpdate: return "rtree.update";
    case SpanKind::kRtreeSearch: return "rtree.search";
    case SpanKind::kNetEncodeReplies: return "net.encode_replies";
    case SpanKind::kStorageRead: return "storage.read";
    case SpanKind::kStorageReadBatch: return "storage.read_batch";
    case SpanKind::kStorageWrite: return "storage.write";
    case SpanKind::kStorageWriteBatch: return "storage.write_batch";
    case SpanKind::kStorageSync: return "storage.sync";
    case SpanKind::kStorageAllocate: return "storage.allocate";
    case SpanKind::kCount: break;
  }
  return "?";
}

void Tracer::Begin(SpanKind kind) {
  if (!enabled_) return;
  if (stack_.empty() && kind != SpanKind::kDrain) {
    // Outside a drain (stack set-up and teardown) nothing is recorded.
    stack_.push_back(Open{kind, -1, 0, -1});
    return;
  }
  int64_t kept = -1;
  if (kept_.size() < keep_) {
    kept = static_cast<int64_t>(kept_.size());
    const int64_t parent = stack_.empty() ? -1 : stack_.back().kept;
    kept_.push_back(Kept{kind, 0, 0, parent, drain_});
  }
  const int64_t now = NowNs();
  if (kept >= 0) kept_[static_cast<size_t>(kept)].start_ns = now;
  stack_.push_back(Open{kind, now, 0, kept});
}

void Tracer::End() {
  if (!enabled_) return;
  RTB_CHECK(!stack_.empty());
  const Open open = stack_.back();
  stack_.pop_back();
  if (open.start_ns < 0) return;
  const int64_t now = NowNs();
  const uint64_t dur = static_cast<uint64_t>(now - open.start_ns);
  Total& t = totals_[static_cast<size_t>(open.kind)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - std::min(dur, open.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (open.kept >= 0) kept_[static_cast<size_t>(open.kept)].end_ns = now;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    const char* name = SpanName(k.kind);
    std::string cat(name, std::strchr(name, '.') == nullptr
                              ? std::strlen(name)
                              : static_cast<size_t>(std::strchr(name, '.') -
                                                    name));
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld, \"drain\": %llu}}",
                 i == 0 ? "" : ",\n", name, cat.c_str(),
                 static_cast<double>(k.start_ns - origin) / 1e3,
                 static_cast<double>(k.end_ns - k.start_ns) / 1e3, i,
                 static_cast<long long>(k.parent),
                 static_cast<unsigned long long>(k.drain));
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<ReplayResult> Replay(const engine::ExperimentSpec& spec,
                            RequestStream* stream, uint64_t count,
                            size_t drain_size, Tracer* tracer) {
  RTB_CHECK(drain_size > 0);
  ReplayStack stack;
  RTB_RETURN_IF_ERROR(stack.Open(spec, tracer));
  rtree::UpdateBatchExecutor update_exec(stack.tree());
  rtree::BatchExecutor search_exec(stack.tree());

  ReplayResult result;
  rtree::BatchStats search_stats;
  std::vector<uint8_t> wire;
  std::vector<net::Request> parsed;
  std::vector<rtree::UpdateOp> ops;
  std::vector<uint8_t> found;
  std::vector<geom::Rect> rects;
  std::vector<std::vector<rtree::ObjectId>> results;
  std::vector<uint8_t> replies;
  std::vector<Request> requests;

  const uint64_t read0 = stack.timed()->pages_read();
  const uint64_t written0 = stack.timed()->pages_written();
  const storage::IoStats io0 = stack.timed()->stats();
  int64_t wall_ns = 0;
  for (uint64_t begin = 0; begin < count; begin += drain_size) {
    const uint64_t end = std::min<uint64_t>(count, begin + drain_size);
    requests.clear();
    for (uint64_t i = begin; i < end; ++i) requests.push_back(stream->Next());
    const int64_t drain_start = NowNs();
    tracer->set_drain(result.drains++);
    ScopedSpan drain(tracer, SpanKind::kDrain);
    size_t drain_updates = 0;
    {
      ScopedSpan span(tracer, SpanKind::kNetEncodeRequests);
      wire.clear();
      for (uint64_t i = begin; i < end; ++i) {
        const Request& req = requests[i - begin];
        switch (req.op) {
          case Op::kSearch:
            net::AppendSearchRequest(i + 1, req.rect, &wire);
            break;
          case Op::kInsert:
            net::AppendInsertRequest(i + 1, req.rect, req.id, &wire);
            break;
          case Op::kDelete:
            net::AppendDeleteRequest(i + 1, req.rect, req.id, &wire);
            break;
        }
      }
    }
    {
      ScopedSpan span(tracer, SpanKind::kNetDecode);
      parsed.clear();
      drain_updates = 0;
      size_t pos = 0;
      while (pos < wire.size()) {
        net::Frame frame;
        size_t consumed = 0;
        if (net::DecodeFrame(wire.data() + pos, wire.size() - pos, &frame,
                             &consumed) != net::DecodeResult::kFrame) {
          return Status::Corruption("replay: undecodable request frame");
        }
        parsed.emplace_back();
        RTB_RETURN_IF_ERROR(net::ParseRequest(frame, &parsed.back()));
        if (parsed.back().type != net::MsgType::kSearch) ++drain_updates;
        pos += consumed;
      }
    }
    // The drain's order: every update in one executor run, then every
    // search in one batch, as Server::ExecuteDrain runs them.
    Status update_run;
    ops.clear();
    if (drain_updates > 0) {
      ScopedSpan span(tracer, SpanKind::kRtreeUpdate);
      for (const net::Request& req : parsed) {
        if (req.type == net::MsgType::kInsert) {
          ops.push_back(rtree::UpdateOp::Insert(req.rect, req.id));
        } else if (req.type == net::MsgType::kDelete) {
          ops.push_back(rtree::UpdateOp::Delete(req.rect, req.id));
        }
      }
      update_run = update_exec.Run(std::span<const rtree::UpdateOp>(ops),
                                   nullptr, &found);
    }
    Status search_run;
    rects.clear();
    if (drain_updates < parsed.size()) {
      ScopedSpan span(tracer, SpanKind::kRtreeSearch);
      for (const net::Request& req : parsed) {
        if (req.type == net::MsgType::kSearch) rects.push_back(req.rect);
      }
      search_run = search_exec.Run(std::span<const geom::Rect>(rects),
                                   &results, &search_stats);
    }
    {
      ScopedSpan span(tracer, SpanKind::kNetEncodeReplies);
      replies.clear();
      size_t u = 0;
      size_t s = 0;
      for (const net::Request& req : parsed) {
        const Status& run =
            req.type == net::MsgType::kSearch ? search_run : update_run;
        if (!run.ok()) {
          net::AppendErrorReply(req.request_id, req.type, run, &replies);
        } else if (req.type == net::MsgType::kSearch) {
          net::AppendSearchReply(req.request_id, results[s], &replies);
        } else if (req.type == net::MsgType::kInsert) {
          net::AppendInsertReply(req.request_id, &replies);
        } else {
          net::AppendDeleteReply(req.request_id, found[u] != 0, &replies);
        }
        if (req.type == net::MsgType::kSearch) {
          ++s;
        } else {
          ++u;
        }
      }
    }
    result.errors += (update_run.ok() ? 0 : ops.size()) +
                     (search_run.ok() ? 0 : rects.size());
    for (size_t u = 0; update_run.ok() && u < ops.size(); ++u) {
      if (ops[u].kind == rtree::UpdateOp::Kind::kDelete && found[u] == 0) {
        ++result.deletes_not_found;
      }
    }
    for (size_t s = 0; search_run.ok() && s < rects.size(); ++s) {
      result.search_checksum += ResultChecksum(results[s]);
    }
    result.requests += parsed.size();
    result.searches += rects.size();
    result.updates += ops.size();
    wall_ns += NowNs() - drain_start;
  }
  result.wall_seconds = static_cast<double>(wall_ns) / 1e9;
  result.search_node_accesses = search_stats.node_accesses;
  result.pages_read = stack.timed()->pages_read() - read0;
  result.pages_written = stack.timed()->pages_written() - written0;
  const storage::IoStats io1 = stack.timed()->stats();
  result.io.reads = io1.reads - io0.reads;
  result.io.writes = io1.writes - io0.writes;
  result.io.read_batches = io1.read_batches - io0.read_batches;
  result.io.batch_pages = io1.batch_pages - io0.batch_pages;
  result.io.write_batches = io1.write_batches - io0.write_batches;
  result.io.write_batch_pages = io1.write_batch_pages - io0.write_batch_pages;
  RTB_RETURN_IF_ERROR(stack.Close());
  return result;
}

}  // namespace rtb::perfbench
