// Long-lived plan daemon: AutoPipe planning as a service.
//
//   plan_serve [--socket /path/ap.sock] [--no-stdio] [flags]
//
// Serves the line protocol of src/service/protocol.h on stdin/stdout and,
// with --socket, on an AF_UNIX stream socket as well (plan_client talks to
// either). Responses are the only thing written to stdout; logs go to
// stderr, so `printf 'plan ...\nshutdown\n' | plan_serve` emits exactly one
// response per request and can be byte-diffed against `plan_client
// --offline` (the CI determinism smoke).
//
// Flags: --workers N (concurrent plan requests, default 2), --max-queue N
// (admission-control backlog bound; a full queue sheds requests with a
// `busy` reply), --max-memos N / --max-history N (cross-request cache
// sizes), --warm-max-changed N (auto warm-start drift bound),
// and the profile source for `source=cache` requests: --cache-dir DIR,
// --max-age SECONDS, --drift (probe stale entries and re-measure only
// drifted block kinds), --drift-tolerance F.
//
// SIGTERM/SIGINT shut the daemon down gracefully: the handler flips an
// atomic flag the server polls, the listener stops accepting, in-flight
// connections drain, and the unix socket file is unlinked -- so `kill` (or
// ctrl-C) never strands a stale socket that would break the next launch.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "service/plan_service.h"
#include "service/server.h"
#include "util/cli.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: a blocked stdin read must EINTR out
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autopipe;
  try {
    const util::Cli cli(argc, argv);
    service::ServiceOptions opts;
    opts.workers = cli.checked_int("workers", 2, 1, 256);
    opts.max_queue = static_cast<std::size_t>(
        cli.checked_int("max-queue", 16, 0, 1 << 20));
    opts.max_memos =
        static_cast<std::size_t>(cli.checked_int("max-memos", 8, 0, 4096));
    opts.max_history = static_cast<std::size_t>(
        cli.checked_int("max-history", 256, 0, 1 << 20));
    opts.warm_max_changed =
        cli.checked_int("warm-max-changed", 8, 0, 1 << 20);
    opts.session.cache_dir = cli.get("cache-dir", ".");
    opts.session.max_age_seconds = cli.checked_int("max-age", 0, 0, 1 << 30);
    opts.session.drift.check = cli.get_bool("drift", false);
    opts.session.drift.tolerance =
        cli.checked_double("drift-tolerance", 0.25, 0.0, 10.0);

    service::ServerOptions server_opts;
    server_opts.stdio = !cli.get_bool("no-stdio", false);
    server_opts.socket_path = cli.get("socket", "");
    if (!server_opts.stdio && server_opts.socket_path.empty()) {
      throw std::invalid_argument(
          "--no-stdio needs --socket (no transport left to serve)");
    }

    install_signal_handlers();
    server_opts.external_stop = &g_stop;
    service::PlanService service(opts);
    service::PlanServer server(service, server_opts);
    const int rc = server.run();
    if (g_stop.load(std::memory_order_acquire)) {
      std::fprintf(stderr, "plan_serve: signal received, shut down cleanly\n");
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
