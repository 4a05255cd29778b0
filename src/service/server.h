// Transports for the plan daemon: a stdin/stdout line loop and an optional
// AF_UNIX stream socket listener, both feeding PlanService::handle_line.
//
// Protocol framing is one request line in, one response line out, on both
// transports. Responses go to stdout (stdio) or back down the connection
// (socket); all logging stays on stderr, so stdout carries nothing but
// response lines and can be byte-diffed in CI.
//
// Shutdown: a `shutdown` request on any transport, EOF on stdin, an
// overlong stdin line (see below), or the caller's external stop flag
// (plan_serve wires SIGTERM/SIGINT to it) stops the whole server
// *gracefully*: the listener stops accepting, in-flight connections drain
// their buffered requests and are joined, and the socket file is unlinked
// on exit. The socket listener polls with a short timeout
// so it notices a shutdown initiated on the other transport or the flag.
//
// Request lines are bounded by kMaxRequestLine: a longer line (or a peer
// that never sends '\n') gets one `error` reply and its transport closes,
// so no client can grow server memory without limit. On a socket that ends
// one connection; on stdin it ends the stdin loop, which -- like EOF --
// shuts the whole server down, socket clients included.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

#include "service/plan_service.h"

namespace autopipe::service {

/// Longest request line either transport accepts, in bytes (excluding the
/// '\n'); far above any legitimate request.
inline constexpr std::size_t kMaxRequestLine = 64 * 1024;

/// getline with the kMaxRequestLine bound: reads up to '\n' (dropped) or
/// EOF. Returns false at EOF with nothing read, or when the line exceeds
/// kMaxRequestLine (then *too_long is set). The stdio transport's reader.
bool read_bounded_line(std::istream& in, std::string& line, bool* too_long);

struct ServerOptions {
  bool stdio = true;          ///< serve stdin -> stdout
  std::string socket_path;    ///< empty: no unix-socket listener
  /// Optional external stop flag polled by every serving loop -- the
  /// async-signal-safe bridge from a SIGTERM/SIGINT handler (which may only
  /// touch a lock-free atomic) to a graceful drain. Null = internal
  /// triggers only.
  const std::atomic<bool>* external_stop = nullptr;
};

class PlanServer {
 public:
  PlanServer(PlanService& service, ServerOptions options);
  ~PlanServer();
  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Serves until shutdown (or stdin EOF in stdio mode). Returns 0 on a
  /// clean exit, 1 when the socket listener could not be set up.
  int run();

 private:
  bool should_stop() const;
  void listener_loop();
  void serve_connection(int fd);

  PlanService& service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  std::thread listener_;
  std::vector<std::thread> connections_;
  std::atomic<bool> stop_{false};
};

}  // namespace autopipe::service
