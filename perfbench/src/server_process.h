// rtb_server as a child process: launch, time set-up, read VmHWM, stop.

#ifndef RTB_PERFBENCH_SERVER_PROCESS_H_
#define RTB_PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "util/result.h"

namespace rtb::perfbench {

class ServerProcess {
 public:
  /// Starts `binary --spec=SPEC --port=0 --stats_out=STATS_OUT`, pinned
  /// to `cpu` unless it is negative, and waits for its first successful
  /// reply (a STATS round trip on a connection that is closed again).
  /// setup_seconds() is launch to that reply.
  static Result<std::unique_ptr<ServerProcess>> Launch(
      const std::string& binary, const std::string& spec_path,
      const std::string& stats_out, int cpu);

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Kills (SIGKILL) and reaps a server that was not stopped.
  ~ServerProcess();

  uint16_t port() const { return port_; }
  double setup_seconds() const { return setup_seconds_; }

  /// The server's peak resident set (VmHWM) so far, in MB.
  Result<double> PeakRssMb() const;

  /// Graceful shutdown: SIGTERM, then wait for a zero exit status.
  Status Stop();

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  // Reads the child's stdout until the "listening on" line; sets port_.
  Status AwaitListening(double timeout_s);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  double setup_seconds_ = 0.0;
};

}  // namespace rtb::perfbench

#endif  // RTB_PERFBENCH_SERVER_PROCESS_H_
