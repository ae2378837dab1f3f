// The load generator: one thread, a few nonblocking connections to
// rtb_server, and two ways to send the workload's request stream.
//
//   * Closed loop: every connection keeps a fixed window of requests in
//     flight and sends the next one when a reply arrives.
//   * Open loop: requests are due on a seeded Poisson schedule at a fixed
//     rate, whatever the server does; each latency is timed from the due
//     time, so a stall is charged to every request it delays. How late the
//     generator itself sent each request is recorded too.
//
// Every reply is checked as it arrives: typed errors are counted, DELETE
// must report found, and search results feed an order-independent checksum
// and (optionally) a sample kept for the brute-force oracle.

#ifndef RTB_PERFBENCH_LOADGEN_H_
#define RTB_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/protocol.h"
#include "report/json.h"
#include "util/result.h"
#include "workload.h"

namespace rtb::perfbench {

struct PhaseStats {
  uint64_t sent = 0;
  uint64_t errors = 0;  // Typed error replies.
  // Closed loop: replies read before the phase ended, and its length.
  uint64_t replies_in_phase = 0;
  double elapsed_seconds = 0.0;
  // Open loop: latency from the due time to the reply being read, per
  // operation kind and window of the due time, and how late each request
  // left the generator.
  double window_seconds = 0.0;
  std::vector<std::vector<double>> search_ms;
  std::vector<std::vector<double>> update_ms;
  std::vector<double> late_ms;
};

class LoadGen {
 public:
  /// Opens `conns` connections to 127.0.0.1:`port`. Replies to stream
  /// requests are checked against `stream`, which the phases extend.
  /// Every `sample_every`-th stream position that is a SEARCH keeps its
  /// result for the oracle (0 keeps none).
  static Result<std::unique_ptr<LoadGen>> Connect(uint16_t port, size_t conns,
                                                  RequestStream* stream,
                                                  uint64_t sample_every);

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;
  ~LoadGen();

  /// Open loop: Poisson arrivals at `rate` per second for `seconds`, the
  /// schedule drawn from `schedule_seed`; latencies are kept per window of
  /// about `window_seconds`. Returns once every request sent is answered.
  Result<PhaseStats> RunOpen(double rate, double seconds,
                             uint64_t schedule_seed, double window_seconds);

  /// Closed loop: `window` requests in flight per connection until
  /// `seconds` have passed or `max_replies` replies have arrived (0: no
  /// limit), then waits for the outstanding replies.
  Result<PhaseStats> RunClosed(uint32_t window, double seconds,
                               uint64_t max_replies);

  /// STATS round trip on the first connection; only between phases.
  Result<report::JsonValue> Stats();

  /// Sends `rects` as one burst of SEARCH requests outside the stream and
  /// returns each result, sorted; only between phases.
  Result<std::vector<std::vector<rtree::ObjectId>>> SearchBurst(
      const std::vector<geom::Rect>& rects);

  /// Sum of ResultChecksum over every stream SEARCH reply so far.
  uint64_t search_checksum() const { return search_checksum_; }
  /// A sampled stream SEARCH and its sorted result.
  struct Sample {
    geom::Rect rect;
    std::vector<rtree::ObjectId> ids;
  };
  /// Stream position -> sample.
  const std::map<uint64_t, Sample>& sampled() const { return sampled_; }
  /// DELETE replies that reported the object missing.
  uint64_t deletes_not_found() const { return deletes_not_found_; }

 private:
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> out;
    size_t out_off = 0;
    std::vector<uint8_t> in;
    size_t in_off = 0;  // Decoded prefix of in[0, in_len).
    size_t in_len = 0;
    uint32_t inflight = 0;
  };

  // What a phase does on each reply.
  enum class Mode { kOpen, kClosed, kControl };

  LoadGen(RequestStream* stream, uint64_t sample_every)
      : stream_(stream), sample_every_(sample_every) {}

  // Queues `req`, the next stream request, on `conn`, due at `due_ns`.
  void Send(Conn* conn, const Request& req, int64_t due_ns);
  // Writes as much pending output as the sockets take.
  Status FlushAll();
  // Waits up to `timeout_ms` for readable connections and handles every
  // complete reply frame.
  Status Poll(int timeout_ms, Mode mode, PhaseStats* stats);
  Status HandleReply(Conn* conn, const net::Frame& frame, Mode mode,
                     PhaseStats* stats);
  uint32_t Outstanding() const;
  // Waits for every outstanding reply (bounded), for the phase's tail.
  Status Drain(Mode mode, PhaseStats* stats);

  RequestStream* stream_;
  uint64_t sample_every_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  size_t next_conn_ = 0;
  // Per stream position sent: due time and kind.
  std::deque<int64_t> due_ns_;
  std::deque<Op> ops_;
  bool closed_sending_ = false;  // Closed loop: refill on each reply.
  uint64_t closed_limit_ = 0;    // Closed loop: replies that end it.
  int64_t closed_end_ns_ = 0;    // When the closed loop reached its limit.
  int64_t phase_start_ns_ = 0;
  int64_t window_ns_ = 1;
  uint64_t search_checksum_ = 0;
  uint64_t deletes_not_found_ = 0;
  std::map<uint64_t, Sample> sampled_;
  // Control (out-of-stream) replies by request id.
  std::map<uint64_t, net::Reply> control_;
  uint64_t next_control_id_ = uint64_t{1} << 62;
};

}  // namespace rtb::perfbench

#endif  // RTB_PERFBENCH_LOADGEN_H_
