#include "service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "util/logging.h"

namespace autopipe::service {

namespace {

bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// The reply to a request line longer than kMaxRequestLine; the transport
/// closes right after it, since the rest of the line cannot be parsed.
std::string too_long_reply() {
  return "error id=0 request line longer than " +
         std::to_string(kMaxRequestLine) + " bytes";
}

}  // namespace

bool read_bounded_line(std::istream& in, std::string& line, bool* too_long) {
  line.clear();
  for (int c; (c = in.get()) != std::char_traits<char>::eof();) {
    if (c == '\n') return true;
    if (line.size() == kMaxRequestLine) {
      *too_long = true;
      return false;
    }
    line.push_back(static_cast<char>(c));
  }
  return !line.empty();
}

PlanServer::PlanServer(PlanService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

bool PlanServer::should_stop() const {
  return stop_.load(std::memory_order_acquire) ||
         service_.shutdown_requested() ||
         (options_.external_stop != nullptr &&
          options_.external_stop->load(std::memory_order_acquire));
}

PlanServer::~PlanServer() {
  stop_.store(true, std::memory_order_release);
  if (listener_.joinable()) listener_.join();
  for (std::thread& t : connections_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
}

int PlanServer::run() {
  if (!options_.socket_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      AP_LOG(error) << "socket(AF_UNIX) failed: " << std::strerror(errno);
      return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      AP_LOG(error) << "socket path too long: " << options_.socket_path;
      ::close(listen_fd_);
      listen_fd_ = -1;
      return 1;
    }
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.socket_path.c_str());  // stale socket from a past run
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
      AP_LOG(error) << "bind/listen on " << options_.socket_path
                    << " failed: " << std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return 1;
    }
    AP_LOG(info) << "listening on " << options_.socket_path;
    listener_ = std::thread([this] { listener_loop(); });
  }

  if (options_.stdio) {
    // A SIGTERM/SIGINT installed without SA_RESTART interrupts the blocked
    // read with EINTR, so the read fails and the loop falls through to the
    // graceful drain below even while idle on stdin.
    std::string line;
    bool too_long = false;
    while (!should_stop() && read_bounded_line(std::cin, line, &too_long)) {
      std::cout << service_.handle_line(line) << "\n" << std::flush;
      if (should_stop()) break;
    }
    if (too_long) std::cout << too_long_reply() << "\n" << std::flush;
  } else {
    // Socket-only daemon: park until a connection (or a signal) requests
    // shutdown.
    while (!should_stop()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  stop_.store(true, std::memory_order_release);
  return 0;
}

void PlanServer::listener_loop() {
  // Only this thread mutates connections_; the destructor reads it after
  // joining this thread, so no lock is needed.
  while (!should_stop()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;  // timeout: re-check the stop flags
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    connections_.emplace_back([this, conn] { serve_connection(conn); });
  }
}

void PlanServer::serve_connection(int fd) {
  // A receive timeout turns the blocking read into a poll, so the
  // connection notices a shutdown initiated elsewhere.
  timeval tv{};
  tv.tv_usec = 100'000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  std::string buffer;
  // Serves the complete lines at the front of buffer. False closes the
  // connection: a write failed, or a line -- complete or not -- outgrew
  // kMaxRequestLine, which gets one error reply first.
  const auto serve_lines = [&] {
    for (;;) {
      const std::size_t eol = buffer.find('\n');
      if ((eol == std::string::npos ? buffer.size() : eol) > kMaxRequestLine) {
        write_all(fd, too_long_reply() + "\n");
        return false;
      }
      if (eol == std::string::npos) return true;
      const std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (!write_all(fd, service_.handle_line(line) + "\n")) return false;
    }
  };
  char chunk[4096];
  while (!should_stop()) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (!serve_lines()) break;
  }
  ::close(fd);
}

}  // namespace autopipe::service
