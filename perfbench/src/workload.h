// The benchmark's workloads and the seeded request stream each one sends.
//
// Every input is generated here from the run's seed: the data set (written
// to an rtb-rects file the server bulk-loads), the query rectangles and the
// insert/delete mix. The server only ever sees the wire requests.

#ifndef RTB_PERFBENCH_WORKLOAD_H_
#define RTB_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geom/rect.h"
#include "model/query_class.h"
#include "rtree/node.h"
#include "sim/query_gen.h"
#include "util/rng.h"

namespace rtb::perfbench {

enum class Op : uint8_t { kSearch, kInsert, kDelete };

/// One request of the stream. Its position in the stream is its wire
/// request id minus one.
struct Request {
  Op op = Op::kSearch;
  geom::Rect rect;
  rtree::ObjectId id = 0;  // Insert/delete only.
};

struct WorkloadDef {
  const char* name;
  const char* why;           // One sentence: why the workload exists.
  uint64_t objects;          // Uniform points in the initial tree.
  uint32_t fanout;
  uint64_t pool_pages;
  bool wal;                  // WAL on, default group-commit window.
  double insert_frac;        // The rest of the mix, after deletes, searches.
  double delete_frac;
  model::QueryClass query;   // SEARCH rectangles.
  double open_rate;          // Open-loop arrivals per second (a constant).
  double open_share;         // Share of the run the open loop takes.
  // The closed loop ends after this many replies, or when the run's time
  // is up (0: time only). rtb_server truncates its WAL only at start and
  // at shutdown, and an update logs about 15 KB of page images, so a
  // closed loop bounded by time alone would leave the log gigabytes long
  // and let its size grow with every speed-up of the server.
  uint64_t closed_ops;
};

/// The workload table, in the order BENCHMARK.json lists it.
const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

/// The initial data set: `def.objects` uniform points; object id = index.
std::vector<geom::Rect> MakeDataset(const WorkloadDef& def, uint64_t seed);

/// Stream positions closer than this to a delete never supply its victim,
/// so the insert of every deleted object was answered long before the
/// delete is sent (at most 256 requests are ever in flight).
inline constexpr uint64_t kDeleteLag = 8192;

/// The seeded request stream. Deterministic in (workload, seed): the same
/// prefix of the stream is generated whatever the timing of the run, so a
/// second stream from the same seed replays the first. Each DELETE names a
/// live object (initial, or inserted kDeleteLag positions earlier) and
/// removes it from the live set; each INSERT adds a fresh id.
class RequestStream {
 public:
  RequestStream(const WorkloadDef& def, uint64_t seed,
                const std::vector<geom::Rect>& dataset);

  /// The next request of the stream.
  Request Next();

  /// Requests generated so far.
  uint64_t size() const { return size_; }

  /// The live entries after every request generated so far, as
  /// (id, rect) sorted by id.
  std::vector<std::pair<rtree::ObjectId, geom::Rect>> LiveSet() const;

  uint64_t inserts() const { return inserts_; }
  uint64_t deletes() const { return deletes_; }

 private:
  const WorkloadDef& def_;
  std::unique_ptr<sim::QueryGenerator> queries_;
  Rng rng_;        // Op choice and insert points.
  Rng query_rng_;  // SEARCH rectangles only.
  rtree::ObjectId next_id_;
  uint64_t size_ = 0;
  std::vector<std::pair<rtree::ObjectId, geom::Rect>> deletable_;
  // Inserted entries not yet old enough to delete: (position, id, rect).
  struct Recent {
    uint64_t pos;
    rtree::ObjectId id;
    geom::Rect rect;
  };
  std::deque<Recent> recent_;
  uint64_t inserts_ = 0;
  uint64_t deletes_ = 0;
};

/// Order-independent checksum of one search result: the sum of a 64-bit
/// mix of every id. Summed over replies, it does not depend on how the
/// server composed its drains.
uint64_t ResultChecksum(const std::vector<rtree::ObjectId>& ids);

/// Brute-force answers over a set of points, the output oracle. Entries
/// are sorted by x so a query scans only its x range.
class BruteForce {
 public:
  explicit BruteForce(std::vector<std::pair<rtree::ObjectId, geom::Rect>>
                          entries);

  /// Sorted ids of every entry intersecting `q`.
  std::vector<rtree::ObjectId> Search(const geom::Rect& q) const;

 private:
  std::vector<std::pair<rtree::ObjectId, geom::Rect>> entries_;
  std::vector<double> lo_x_;
  double max_width_ = 0.0;
};

}  // namespace rtb::perfbench

#endif  // RTB_PERFBENCH_WORKLOAD_H_
