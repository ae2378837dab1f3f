#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "net/client.h"

namespace rtb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kListenTimeoutS = 30.0;
constexpr double kStopTimeoutS = 20.0;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Launch(
    const std::string& binary, const std::string& spec_path,
    const std::string& stats_out, int cpu) {
  const std::string spec_arg = "--spec=" + spec_path;
  const std::string stats_arg = "--stats_out=" + stats_out;
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe2: ") + std::strerror(errno));
  }
  const auto start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, whatever ends it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof set, &set);
    }
    dup2(pipe_fds[1], STDOUT_FILENO);
    std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                               const_cast<char*>(spec_arg.c_str()),
                               const_cast<char*>("--port=0"),
                               const_cast<char*>(stats_arg.c_str()), nullptr};
    execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "exec %s: %s\n", binary.c_str(), std::strerror(errno));
    _exit(127);
  }
  close(pipe_fds[1]);
  std::unique_ptr<ServerProcess> proc(new ServerProcess(pid, pipe_fds[0]));
  RTB_RETURN_IF_ERROR(proc->AwaitListening(kListenTimeoutS));
  RTB_ASSIGN_OR_RETURN(std::unique_ptr<net::Client> probe,
                       net::Client::Connect(proc->port_));
  RTB_ASSIGN_OR_RETURN(net::Reply reply, probe->WaitFor(probe->QueueStats()));
  if (!reply.ok()) {
    return Status::FailedPrecondition("first STATS reply failed: " + reply.text);
  }
  proc->setup_seconds_ = SecondsSince(start);
  return proc;
}

Status ServerProcess::AwaitListening(double timeout_s) {
  static constexpr char kMarker[] = "listening on 127.0.0.1:";
  const auto start = Clock::now();
  std::string seen;
  while (SecondsSince(start) < timeout_s) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) {
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;
    char buf[512];
    const ssize_t n = read(stdout_fd_, buf, sizeof buf);
    if (n == 0) return Status::FailedPrecondition("rtb_server exited during set-up");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("read: ") + std::strerror(errno));
    }
    seen.append(buf, static_cast<size_t>(n));
    const size_t at = seen.find(kMarker);
    if (at != std::string::npos &&
        seen.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::strtoul(seen.c_str() + at + sizeof(kMarker) - 1, nullptr, 10));
      if (port_ == 0) return Status::FailedPrecondition("bad listening line: " + seen);
      return Status::OK();
    }
  }
  return Status::FailedPrecondition("rtb_server did not start listening");
}

Result<double> ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return Status::NotFound("no VmHWM for the server process");
}

Status ServerProcess::Stop() {
  if (pid_ < 0) return Status::OK();
  kill(pid_, SIGTERM);
  const auto start = Clock::now();
  int wstatus = 0;
  while (true) {
    const pid_t r = waitpid(pid_, &wstatus, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) {
      return Status::IoError(std::string("waitpid: ") + std::strerror(errno));
    }
    if (SecondsSince(start) > kStopTimeoutS) {
      return Status::FailedPrecondition("rtb_server did not exit after SIGTERM");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  close(stdout_fd_);
  stdout_fd_ = -1;
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::FailedPrecondition("rtb_server exited abnormally (status " +
                            std::to_string(wstatus) + ")");
  }
  return Status::OK();
}

ServerProcess::~ServerProcess() {
  if (pid_ >= 0) {
    kill(pid_, SIGKILL);
    int wstatus = 0;
    while (waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

}  // namespace rtb::perfbench
