#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

namespace rtb::perfbench {
namespace {

constexpr size_t kReadChunk = 64 * 1024;
// A request unanswered this long after its phase ends counts as lost and
// fails the run.
constexpr int64_t kDrainTimeoutNs = 20'000'000'000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<LoadGen>> LoadGen::Connect(uint16_t port, size_t conns,
                                                  RequestStream* stream,
                                                  uint64_t sample_every) {
  std::unique_ptr<LoadGen> gen(new LoadGen(stream, sample_every));
  gen->epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (gen->epoll_fd_ < 0) return Errno("epoll_create1");
  gen->conns_.resize(conns);
  for (size_t c = 0; c < conns; ++c) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Errno("socket");
    gen->conns_[c].fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return Errno("connect");
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    if (epoll_ctl(gen->epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Errno("epoll_ctl");
    }
  }
  return gen;
}

LoadGen::~LoadGen() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void LoadGen::Send(Conn* conn, const Request& req, int64_t due_ns) {
  const uint64_t pos = ops_.size();
  due_ns_.push_back(due_ns);
  ops_.push_back(req.op);
  if (req.op == Op::kSearch && sample_every_ != 0 &&
      pos % sample_every_ == 0) {
    sampled_[pos].rect = req.rect;
  }
  const uint64_t wire_id = pos + 1;
  switch (req.op) {
    case Op::kSearch:
      net::AppendSearchRequest(wire_id, req.rect, &conn->out);
      break;
    case Op::kInsert:
      net::AppendInsertRequest(wire_id, req.rect, req.id, &conn->out);
      break;
    case Op::kDelete:
      net::AppendDeleteRequest(wire_id, req.rect, req.id, &conn->out);
      break;
  }
  ++conn->inflight;
}

Status LoadGen::FlushAll() {
  for (Conn& conn : conns_) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return Errno("send");
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
  }
  return Status::OK();
}

uint32_t LoadGen::Outstanding() const {
  uint32_t n = 0;
  for (const Conn& conn : conns_) n += conn.inflight;
  return n;
}

Status LoadGen::Poll(int timeout_ms, Mode mode, PhaseStats* stats) {
  epoll_event events[16];
  const int n = epoll_wait(epoll_fd_, events, 16, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return Status::OK();
    return Errno("epoll_wait");
  }
  for (int e = 0; e < n; ++e) {
    Conn* conn = &conns_[events[e].data.u64];
    while (true) {
      // `in` only grows; in_len marks the received bytes.
      if (conn->in.size() < conn->in_len + kReadChunk) {
        conn->in.resize(conn->in_len + kReadChunk);
      }
      const ssize_t got = recv(conn->fd, conn->in.data() + conn->in_len,
                               conn->in.size() - conn->in_len, 0);
      if (got <= 0) {
        if (got == 0) return Status::IoError("server closed a connection");
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return Errno("recv");
      }
      conn->in_len += static_cast<size_t>(got);
      if (conn->in_len < conn->in.size()) break;
    }
    while (true) {
      net::Frame frame;
      size_t consumed = 0;
      const net::DecodeResult r =
          net::DecodeFrame(conn->in.data() + conn->in_off,
                           conn->in_len - conn->in_off, &frame, &consumed);
      if (r == net::DecodeResult::kNeedMore) break;
      if (r == net::DecodeResult::kMalformed) {
        return Status::Corruption("malformed reply frame");
      }
      RTB_RETURN_IF_ERROR(HandleReply(conn, frame, mode, stats));
      conn->in_off += consumed;
    }
    if (conn->in_off > 0) {
      std::memmove(conn->in.data(), conn->in.data() + conn->in_off,
                   conn->in_len - conn->in_off);
      conn->in_len -= conn->in_off;
      conn->in_off = 0;
    }
  }
  return Status::OK();
}

Status LoadGen::HandleReply(Conn* conn, const net::Frame& frame, Mode mode,
                            PhaseStats* stats) {
  net::Reply reply;
  RTB_RETURN_IF_ERROR(net::ParseReply(frame, &reply));
  if (conn->inflight == 0) {
    return Status::Corruption("reply with nothing in flight");
  }
  --conn->inflight;
  if (reply.request_id >= (uint64_t{1} << 62)) {
    control_[reply.request_id] = std::move(reply);
    return Status::OK();
  }
  const uint64_t pos = reply.request_id - 1;
  if (reply.request_id == 0 || pos >= ops_.size()) {
    return Status::Corruption("reply for an unknown request id");
  }
  const Op op = ops_[pos];
  if (!reply.ok()) {
    ++stats->errors;
  } else if (op == Op::kSearch) {
    search_checksum_ += ResultChecksum(reply.ids);
    if (auto it = sampled_.find(pos); it != sampled_.end()) {
      std::sort(reply.ids.begin(), reply.ids.end());
      it->second.ids = std::move(reply.ids);
    }
  } else if (op == Op::kDelete && !reply.found) {
    ++deletes_not_found_;
  }
  const int64_t now = NowNs();
  if (mode == Mode::kOpen) {
    const int64_t due = due_ns_[pos];
    const size_t w = std::min<size_t>(
        stats->search_ms.size() - 1,
        static_cast<size_t>((due - phase_start_ns_) / window_ns_));
    (op == Op::kSearch ? stats->search_ms : stats->update_ms)[w]
        .push_back(static_cast<double>(now - due) / 1e6);
  } else if (mode == Mode::kClosed) {
    if (closed_sending_) {
      if (++stats->replies_in_phase == closed_limit_) {
        closed_sending_ = false;
        closed_end_ns_ = now;
      } else {
        Send(conn, stream_->Next(), now);
        ++stats->sent;
      }
    }
  }
  return Status::OK();
}

Status LoadGen::Drain(Mode mode, PhaseStats* stats) {
  const int64_t deadline = NowNs() + kDrainTimeoutNs;
  while (Outstanding() > 0) {
    if (NowNs() > deadline) {
      return Status::FailedPrecondition(
          std::to_string(Outstanding()) + " requests never answered");
    }
    RTB_RETURN_IF_ERROR(FlushAll());
    RTB_RETURN_IF_ERROR(Poll(1, mode, stats));
  }
  return Status::OK();
}

Result<PhaseStats> LoadGen::RunOpen(double rate, double seconds,
                                    uint64_t schedule_seed,
                                    double window_seconds) {
  // The schedule and its requests are generated before the clock starts,
  // so the timed loop only encodes, sends and reads.
  Rng schedule(schedule_seed);
  std::vector<int64_t> offsets;
  for (double t = 0.0;;) {
    t += -std::log1p(-schedule.NextDouble()) / rate * 1e9;
    if (t >= seconds * 1e9) break;
    offsets.push_back(static_cast<int64_t>(t));
  }
  std::vector<Request> requests;
  requests.reserve(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) {
    requests.push_back(stream_->Next());
  }
  PhaseStats stats;
  stats.late_ms.reserve(offsets.size());
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(std::llround(seconds / window_seconds)));
  stats.search_ms.resize(windows);
  stats.update_ms.resize(windows);
  stats.window_seconds = seconds / static_cast<double>(windows);
  window_ns_ = std::max<int64_t>(1, static_cast<int64_t>(
                                        stats.window_seconds * 1e9));

  const int64_t start = NowNs();
  phase_start_ns_ = start;
  size_t next = 0;
  while (next < offsets.size()) {
    const int64_t now = NowNs();
    while (next < offsets.size() && start + offsets[next] <= now) {
      const int64_t due = start + offsets[next];
      Send(&conns_[next_conn_], requests[next], due);
      next_conn_ = (next_conn_ + 1) % conns_.size();
      stats.late_ms.push_back(static_cast<double>(now - due) / 1e6);
      ++next;
    }
    RTB_RETURN_IF_ERROR(FlushAll());
    // Spin: the next arrival is usually microseconds away, finer than any
    // blocking wait offers.
    RTB_RETURN_IF_ERROR(Poll(0, Mode::kOpen, &stats));
  }
  stats.sent = offsets.size();
  RTB_RETURN_IF_ERROR(Drain(Mode::kOpen, &stats));
  return stats;
}

Result<PhaseStats> LoadGen::RunClosed(uint32_t window, double seconds,
                                      uint64_t max_replies) {
  PhaseStats stats;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  for (Conn& conn : conns_) {
    for (uint32_t w = 0; w < window; ++w) {
      Send(&conn, stream_->Next(), start);
      ++stats.sent;
    }
  }
  closed_sending_ = true;
  closed_limit_ = max_replies;
  while (closed_sending_ && NowNs() < end) {
    RTB_RETURN_IF_ERROR(FlushAll());
    RTB_RETURN_IF_ERROR(Poll(0, Mode::kClosed, &stats));
  }
  if (closed_sending_) closed_end_ns_ = NowNs();
  closed_sending_ = false;
  stats.elapsed_seconds = static_cast<double>(closed_end_ns_ - start) / 1e9;
  RTB_RETURN_IF_ERROR(Drain(Mode::kClosed, &stats));
  return stats;
}

Result<report::JsonValue> LoadGen::Stats() {
  const uint64_t id = next_control_id_++;
  net::AppendStatsRequest(id, &conns_[0].out);
  ++conns_[0].inflight;
  PhaseStats ignored;
  RTB_RETURN_IF_ERROR(Drain(Mode::kControl, &ignored));
  net::Reply reply = std::move(control_.at(id));
  control_.erase(id);
  if (!reply.ok()) return Status::FailedPrecondition("STATS: " + reply.text);
  return report::JsonValue::Parse(reply.text);
}

Result<std::vector<std::vector<rtree::ObjectId>>> LoadGen::SearchBurst(
    const std::vector<geom::Rect>& rects) {
  std::vector<uint64_t> ids;
  for (const geom::Rect& rect : rects) {
    ids.push_back(next_control_id_++);
    net::AppendSearchRequest(ids.back(), rect, &conns_[0].out);
    ++conns_[0].inflight;
  }
  PhaseStats ignored;
  RTB_RETURN_IF_ERROR(Drain(Mode::kControl, &ignored));
  std::vector<std::vector<rtree::ObjectId>> results;
  for (const uint64_t id : ids) {
    net::Reply reply = std::move(control_.at(id));
    control_.erase(id);
    if (!reply.ok()) return Status::FailedPrecondition("SEARCH: " + reply.text);
    std::sort(reply.ids.begin(), reply.ids.end());
    results.push_back(std::move(reply.ids));
  }
  return results;
}

}  // namespace rtb::perfbench
