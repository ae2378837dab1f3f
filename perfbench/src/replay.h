// The traced replay: the end-to-end run's request stream, replayed in this
// process through each layer's public functions, with a span around every
// call into a layer. It gives the per-layer times the socket hides.
//
// A replay drain composes the layers the way Server::ExecuteDrain does:
//
//   net     AppendSearch/Insert/DeleteRequest, then DecodeFrame +
//           ParseRequest of those bytes;
//   rtree   UpdateBatchExecutor::Run over the drain's updates, then
//           BatchExecutor::Run over its searches;
//   net     Append*Reply for every request.
//
// `storage` spans come from TimedPageStore, a PageStore decorator between
// the buffer pool and the FilePageStore, so they nest inside the rtree span
// that caused them. The stack mirrors ServingStack::Open (same spec, pool,
// pinning and WAL options). WAL writes are not PageStore calls: they stay
// inside the rtree.update span.

#ifndef RTB_PERFBENCH_REPLAY_H_
#define RTB_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/spec.h"
#include "storage/page_store.h"
#include "util/result.h"
#include "workload.h"

namespace rtb::perfbench {

enum class SpanKind : uint8_t {
  kDrain,
  kNetEncodeRequests,
  kNetDecode,
  kRtreeUpdate,
  kRtreeSearch,
  kNetEncodeReplies,
  kStorageRead,
  kStorageReadBatch,
  kStorageWrite,
  kStorageWriteBatch,
  kStorageSync,
  kStorageAllocate,
  kCount,
};

const char* SpanName(SpanKind kind);

/// In-memory span recorder. Totals are kept for every span; the first
/// `keep` spans are also kept whole for the Chrome trace file. A disabled
/// tracer reads no clock.
class Tracer {
 public:
  struct Total {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;  // total minus the time of child spans.
  };

  Tracer(bool enabled, size_t keep) : enabled_(enabled), keep_(keep) {}

  bool enabled() const { return enabled_; }
  void set_drain(uint64_t drain) { drain_ = drain; }
  void Begin(SpanKind kind);
  void End();

  const Total& total(SpanKind kind) const {
    return totals_[static_cast<size_t>(kind)];
  }

  /// Writes the kept spans as Chrome trace-event JSON ("X" events; args
  /// carry the span id, its parent's id and the drain id).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    int64_t start_ns;
    uint64_t child_ns;
    int64_t kept;  // Index into kept_, or -1.
  };
  struct Kept {
    SpanKind kind;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t drain;
  };

  bool enabled_;
  size_t keep_;
  uint64_t drain_ = 0;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  Total totals_[static_cast<size_t>(SpanKind::kCount)];
};

struct ReplayResult {
  double wall_seconds = 0.0;       // Sum of the drains' wall times.
  uint64_t requests = 0;
  uint64_t searches = 0;
  uint64_t updates = 0;
  uint64_t drains = 0;
  uint64_t search_node_accesses = 0;
  uint64_t search_checksum = 0;
  uint64_t deletes_not_found = 0;
  uint64_t errors = 0;
  uint64_t pages_read = 0;         // Through TimedPageStore, in the loop.
  uint64_t pages_written = 0;
  storage::IoStats io;             // Store counters over the loop.
};

/// Replays the first `count` requests of `stream` (a fresh stream from the
/// run's seed; wire id = position + 1) against a fresh stack opened from
/// `spec`, in drains of `drain_size` requests. Each drain's requests are
/// generated before its clock starts.
Result<ReplayResult> Replay(const engine::ExperimentSpec& spec,
                            RequestStream* stream, uint64_t count,
                            size_t drain_size, Tracer* tracer);

}  // namespace rtb::perfbench

#endif  // RTB_PERFBENCH_REPLAY_H_
