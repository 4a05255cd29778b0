// Plan-service tests: wire-protocol parsing, the served-equals-offline
// determinism contract, history and shared-memo reuse, the config digest,
// the warm-start gate and history eviction, admission control, the
// unix-socket transport, a seeded concurrent request storm (the TSan
// target for the daemon's cross-request state), and a recorded golden of
// a long plan-cold-shaped stream.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/plan_service.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/rng.h"

namespace autopipe::service {
namespace {

// ------------------------------------------------------------- protocol

TEST(ServiceProtocol, ParsesFullPlanLine) {
  const ParsedLine p = parse_line(
      "plan id=req-7 model=gpt2-345m mbs=2 seq=512 recompute=0 gpus=8 "
      "gbs=128 stages=4 slicer=0 source=cache warm=3,4,5 "
      "perturb=0:1.5:2,3:0.9:0.9");
  ASSERT_TRUE(p.error.empty()) << p.error;
  ASSERT_EQ(p.verb, Verb::Plan);
  const PlanRequest& r = p.request;
  EXPECT_EQ(r.id, "req-7");
  EXPECT_EQ(r.model, "gpt2-345m");
  EXPECT_EQ(r.micro_batch, 2);
  EXPECT_EQ(r.seq_len, 512);
  EXPECT_FALSE(r.recompute);
  EXPECT_EQ(r.gpus, 8);
  EXPECT_EQ(r.global_batch, 128);
  EXPECT_EQ(r.stages, 4);
  EXPECT_FALSE(r.slicer);
  EXPECT_EQ(r.source, "cache");
  EXPECT_EQ(r.warm, "3,4,5");
  ASSERT_EQ(r.perturbs.size(), 2u);
  EXPECT_EQ(r.perturbs[0].block, 0);
  EXPECT_DOUBLE_EQ(r.perturbs[0].fwd, 1.5);
  EXPECT_EQ(r.perturbs[1].block, 3);
  EXPECT_DOUBLE_EQ(r.perturbs[1].bwd, 0.9);
}

TEST(ServiceProtocol, ParsesBareVerbs) {
  EXPECT_EQ(parse_line("ping").verb, Verb::Ping);
  EXPECT_EQ(parse_line("  stats  ").verb, Verb::Stats);
  EXPECT_EQ(parse_line("shutdown").verb, Verb::Shutdown);
}

TEST(ServiceProtocol, RejectsMalformedLines) {
  // A daemon must survive arbitrary input: every rejection is a parse
  // error naming the offending token, never a throw.
  const char* bad[] = {
      "replan model=gpt2-345m",              // unknown verb
      "plan model=gpt2-345m speed=fast",     // unknown key
      "plan gpus=4",                         // plan needs a model
      "plan model=gpt2-345m mbs=banana",     // malformed int
      "plan model=gpt2-345m gpus=0",         // out of range
      "plan model=gpt2-345m warm=1,x",       // malformed warm counts
      "plan model=gpt2-345m perturb=0:1",    // malformed perturb triple
      "plan model=gpt2-345m perturb=0:0:1",  // non-positive factor
  };
  for (const char* line : bad) {
    EXPECT_FALSE(parse_line(line).error.empty()) << line;
  }
}

TEST(ServiceProtocol, CanonicalRequestExcludesIdAndNormalizes) {
  ParsedLine a = parse_line("plan id=1 model=gpt2-345m gpus=4 gbs=64");
  ParsedLine b = parse_line("plan id=2 gbs=64 gpus=4 model=gpt2-345m");
  ASSERT_TRUE(a.error.empty() && b.error.empty());
  // Same request under different ids and key order -> same fingerprint.
  EXPECT_EQ(canonical_request(a.request), canonical_request(b.request));
  // The family key drops the timing content (perturb/warm) but the
  // fingerprint keeps it.
  ParsedLine c =
      parse_line("plan id=3 model=gpt2-345m gpus=4 gbs=64 perturb=1:1.1:1.1");
  ASSERT_TRUE(c.error.empty());
  EXPECT_EQ(family_key(a.request), family_key(c.request));
  EXPECT_NE(canonical_request(a.request), canonical_request(c.request));
}

TEST(ServiceProtocol, CanonicalPartAndWarmHintRoundTrip) {
  const std::string line = "ok id=1 model=x warm=20,19,19 iter_ms=1 # src=planned";
  EXPECT_EQ(canonical_part(line), "ok id=1 model=x warm=20,19,19 iter_ms=1");
  EXPECT_EQ(canonical_part("ok id=1 warm=-"), "ok id=1 warm=-");
  EXPECT_EQ(parse_warm_hint(line), (std::vector<int>{20, 19, 19}));
  EXPECT_TRUE(parse_warm_hint("ok id=1 warm=- iter_ms=1").empty());
  EXPECT_TRUE(parse_warm_hint("pong").empty());
}

// ----------------------------------------------- service determinism

ServiceOptions small_service() {
  ServiceOptions opts;
  opts.workers = 2;
  opts.max_queue = 64;
  return opts;
}

TEST(ServiceProtocol, PerturbsKeepBackwardSplitInvariant) {
  // A perturbed block's B/W split is rebuilt the way the analytic model
  // builds it: the grad-weight pass scales with the bwd factor and the
  // grad-input pass is the remainder, so zero-bubble costs stay in step
  // with bwd_ms on every drifted request.
  const ParsedLine parsed =
      parse_line("plan model=gpt2-345m perturb=0:1.5:2,3:0.9:0.7,5:1:1.3");
  ASSERT_TRUE(parsed.error.empty()) << parsed.error;
  const PlanRequest& req = parsed.request;
  const costmodel::ModelConfig base = costmodel::build_model_config(
      request_spec(req), {req.micro_batch, req.seq_len, req.recompute});
  const costmodel::ModelConfig got = request_config(req);
  ASSERT_EQ(got.num_blocks(), base.num_blocks());
  for (int i = 0; i < got.num_blocks(); ++i) {
    const costmodel::Block& b = got.blocks[static_cast<std::size_t>(i)];
    EXPECT_EQ(b.bwd_input_ms, b.bwd_ms - b.bwd_weight_ms) << "block " << i;
  }
  for (const BlockPerturb& p : req.perturbs) {
    const auto i = static_cast<std::size_t>(p.block);
    EXPECT_EQ(got.blocks[i].bwd_ms, base.blocks[i].bwd_ms * p.bwd);
    EXPECT_EQ(got.blocks[i].bwd_weight_ms,
              base.blocks[i].bwd_weight_ms * p.bwd);
  }
}

TEST(Service, ServedMatchesOfflineByteForByte) {
  // The determinism contract: a daemon's canonical response equals the
  // fresh-process offline replay of the same request, byte for byte.
  PlanService service(small_service());
  const std::string line =
      "plan id=42 model=gpt2-345m gpus=4 gbs=64 warm=off";
  const std::string served = service.handle_line(line);
  ASSERT_EQ(served.rfind("ok id=42 ", 0), 0u) << served;

  const ParsedLine parsed = parse_line(line);
  ASSERT_TRUE(parsed.error.empty());
  EXPECT_EQ(canonical_part(served), offline_response(parsed.request));
}

TEST(Service, RepeatRequestServedFromHistory) {
  PlanService service(small_service());
  const std::string line =
      "plan id=1 model=gpt2-345m gpus=4 gbs=64 warm=off";
  const std::string first = service.handle_line(line);
  const std::string again =
      service.handle_line("plan id=2 model=gpt2-345m gpus=4 gbs=64 warm=off");
  ASSERT_EQ(again.rfind("ok id=2 ", 0), 0u) << again;
  EXPECT_NE(again.find(" # src=history"), std::string::npos) << again;
  // Identical canonical content, re-served under the new id.
  EXPECT_EQ(canonical_part(first).substr(std::strlen("ok id=1 ")),
            canonical_part(again).substr(std::strlen("ok id=2 ")));
  EXPECT_EQ(service.stats().history_hits, 1);
}

TEST(Service, MemoPoolSharedAcrossDistinctRequests) {
  // Two requests with different fingerprints but the same (config, m)
  // reuse the shared simulation memo: the second search runs zero new
  // simulations.
  PlanService service(small_service());
  const std::string first = service.handle_line(
      "plan id=1 model=gpt2-345m gpus=4 gbs=64 warm=off slicer=1");
  ASSERT_EQ(first.rfind("ok ", 0), 0u) << first;
  const std::string second = service.handle_line(
      "plan id=2 model=gpt2-345m gpus=4 gbs=64 warm=off slicer=0");
  ASSERT_EQ(second.rfind("ok ", 0), 0u) << second;
  EXPECT_NE(second.find(" # src=planned"), std::string::npos) << second;
  EXPECT_NE(second.find(" sims=0 "), std::string::npos) << second;

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.planned, 2);
  EXPECT_GT(stats.memo_lookups, 0);
  EXPECT_GT(stats.memo_pool, 0u);
}

TEST(Service, ExplicitWarmHintIsEchoedInCanonicalResponse) {
  PlanService service(small_service());
  const std::string cold = service.handle_line(
      "plan id=1 model=gpt2-345m gpus=4 gbs=64 stages=2 warm=off");
  ASSERT_EQ(cold.rfind("ok ", 0), 0u) << cold;
  // Re-request with the served counts as an explicit warm hint; the hint
  // must be echoed so the offline replay can reproduce the bytes.
  std::string counts;
  const std::string counts_key = " counts=";
  const auto pos = cold.find(counts_key);
  ASSERT_NE(pos, std::string::npos);
  counts = cold.substr(pos + counts_key.size(),
                       cold.find(' ', pos + counts_key.size()) -
                           (pos + counts_key.size()));
  const std::string line = "plan id=2 model=gpt2-345m gpus=4 gbs=64 stages=2 "
                           "warm=" + counts;
  const std::string warm = service.handle_line(line);
  ASSERT_EQ(warm.rfind("ok ", 0), 0u) << warm;
  EXPECT_NE(warm.find(" warm=" + counts + " "), std::string::npos) << warm;

  const ParsedLine parsed = parse_line(line);
  ASSERT_TRUE(parsed.error.empty());
  EXPECT_EQ(canonical_part(warm),
            offline_response(parsed.request, parse_warm_hint(warm)));
}

TEST(Service, ErrorsAreRepliesNotThrows) {
  PlanService service(small_service());
  EXPECT_EQ(service.handle_line("ping"), "pong");
  // Unknown model parses fine but fails at config construction.
  const std::string bad_model =
      service.handle_line("plan id=9 model=no-such-model");
  EXPECT_EQ(bad_model.rfind("error id=9 ", 0), 0u) << bad_model;
  // Malformed line fails at parse (default id).
  const std::string bad_key = service.handle_line("plan model=gpt2-345m x=1");
  EXPECT_EQ(bad_key.rfind("error id=0 ", 0), 0u) << bad_key;
  EXPECT_EQ(service.stats().errors, 2);
  // stats is a single self-describing line.
  EXPECT_EQ(service.handle_line("stats").rfind("stats requests=", 0), 0u);
  EXPECT_FALSE(service.shutdown_requested());
  EXPECT_EQ(service.handle_line("shutdown"), "bye");
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(Service, AdmissionControlShedsAtZeroQueue) {
  // max_queue=0 is the degenerate admission bound: every plan request is
  // shed with a `busy` reply, while the cheap verbs keep answering.
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_queue = 0;
  PlanService service(opts);
  const std::string reply =
      service.handle_line("plan id=5 model=gpt2-345m gpus=4 gbs=64");
  EXPECT_EQ(reply.rfind("busy id=5 queue=", 0), 0u) << reply;
  EXPECT_EQ(service.handle_line("ping"), "pong");
  EXPECT_EQ(service.stats().busy_rejected, 1);
  EXPECT_EQ(service.stats().planned, 0);
}

// ------------------------------------------------------- config digest

costmodel::ModelConfig zoo_config(const char* model) {
  const ParsedLine parsed = parse_line(std::string("plan model=") + model);
  EXPECT_TRUE(parsed.error.empty()) << parsed.error;
  return request_config(parsed.request);
}

TEST(Service, ConfigDigestEqualConfigsGiveEqualDigests) {
  const costmodel::ModelConfig a = zoo_config("gpt2-345m");
  const costmodel::ModelConfig copy = a;
  EXPECT_EQ(config_digest(a), config_digest(copy));
  EXPECT_EQ(config_digest(a), config_digest(zoo_config("gpt2-345m")));
  EXPECT_NE(config_digest(a), config_digest(zoo_config("bert-large")));
}

TEST(Service, ConfigDigestChangesWithEverySingleField) {
  // One edit per field: every ModelSpec, TrainConfig, DeviceProfile and
  // LinkProfile field, comm_ms, and every Block field of one block. Doubles
  // move by one ulp. bwd_input_ms, bwd_weight_ms and bw_state_bytes are the
  // fields the config_io text form does not write.
  const costmodel::ModelConfig base = zoo_config("gpt2-345m");
  const auto ulp = [](double& x) {
    x = std::nextafter(x, std::numeric_limits<double>::infinity());
  };
  using Edit = std::function<void(costmodel::ModelConfig&)>;
  using C = costmodel::ModelConfig;
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"spec.name", [](C& c) { c.spec.name += "x"; }},
      {"spec.num_layers", [](C& c) { ++c.spec.num_layers; }},
      {"spec.hidden", [](C& c) { ++c.spec.hidden; }},
      {"spec.heads", [](C& c) { ++c.spec.heads; }},
      {"spec.vocab", [](C& c) { ++c.spec.vocab; }},
      {"spec.default_seq", [](C& c) { ++c.spec.default_seq; }},
      {"spec.causal", [](C& c) { c.spec.causal = !c.spec.causal; }},
      {"train.micro_batch_size", [](C& c) { ++c.train.micro_batch_size; }},
      {"train.seq_len", [](C& c) { ++c.train.seq_len; }},
      {"train.recompute", [](C& c) { c.train.recompute = !c.train.recompute; }},
      {"device.name", [](C& c) { c.device.name += "x"; }},
      {"device.matmul_tflops", [&](C& c) { ulp(c.device.matmul_tflops); }},
      {"device.memband_gbps", [&](C& c) { ulp(c.device.memband_gbps); }},
      {"device.mem_capacity_bytes",
       [&](C& c) { ulp(c.device.mem_capacity_bytes); }},
      {"device.kernel_launch_ms",
       [&](C& c) { ulp(c.device.kernel_launch_ms); }},
      {"link.name", [](C& c) { c.link.name += "x"; }},
      {"link.latency_ms", [&](C& c) { ulp(c.link.latency_ms); }},
      {"link.bandwidth_gbps", [&](C& c) { ulp(c.link.bandwidth_gbps); }},
      {"comm_ms", [&](C& c) { ulp(c.comm_ms); }},
      {"block.name", [](C& c) { c.blocks[1].name += "x"; }},
      {"block.kind",
       [](C& c) { c.blocks[1].kind = costmodel::BlockKind::Head; }},
      {"block.fwd_ms", [&](C& c) { ulp(c.blocks[1].fwd_ms); }},
      {"block.bwd_ms", [&](C& c) { ulp(c.blocks[1].bwd_ms); }},
      {"block.bwd_input_ms", [&](C& c) { ulp(c.blocks[1].bwd_input_ms); }},
      {"block.bwd_weight_ms", [&](C& c) { ulp(c.blocks[1].bwd_weight_ms); }},
      {"block.param_bytes", [&](C& c) { ulp(c.blocks[1].param_bytes); }},
      {"block.stash_bytes", [&](C& c) { ulp(c.blocks[1].stash_bytes); }},
      {"block.work_bytes", [&](C& c) { ulp(c.blocks[1].work_bytes); }},
      {"block.output_bytes", [&](C& c) { ulp(c.blocks[1].output_bytes); }},
      {"block.bw_state_bytes", [&](C& c) { ulp(c.blocks[1].bw_state_bytes); }},
      {"block.layer_units", [&](C& c) { ulp(c.blocks[1].layer_units); }},
      {"blocks.size", [](C& c) { c.blocks.pop_back(); }},
  };
  const std::uint64_t base_digest = config_digest(base);
  std::set<std::uint64_t> seen = {base_digest};
  for (const auto& [field, edit] : edits) {
    costmodel::ModelConfig changed = base;
    edit(changed);
    const std::uint64_t digest = config_digest(changed);
    EXPECT_NE(digest, base_digest) << field;
    EXPECT_TRUE(seen.insert(digest).second) << field << " repeats a digest";
  }
}

// ------------------------------------------- warm gate and eviction

/// The ` family=<0|1>` diagnostic of a planned reply: whether the service
/// seeded the search from the family's last plan.
std::string family_flag(const std::string& reply) {
  const auto pos = reply.find(" family=");
  return pos == std::string::npos ? "?" : reply.substr(pos + 8, 1);
}

/// A `warm=auto` re-request of `base` whose blocks 1..changed drift by 10%.
std::string drifted(const std::string& base, int changed) {
  std::string line = base + " warm=auto perturb=";
  for (int i = 1; i <= changed; ++i) {
    if (i > 1) line += ",";
    line += std::to_string(i) + ":1.1:1.1";
  }
  return line;
}

TEST(Service, AutoWarmSeedsAtExactlyWarmMaxChangedBlocks) {
  const std::string base = "plan model=gpt2-345m gpus=4 gbs=64 stages=2";
  for (const int over : {0, 1}) {
    PlanService service(small_service());
    const int changed = small_service().warm_max_changed + over;
    ASSERT_EQ(service.handle_line(base + " warm=off").rfind("ok ", 0), 0u);
    const std::string line = drifted(base, changed);
    const std::string reply = service.handle_line(line);
    ASSERT_EQ(reply.rfind("ok ", 0), 0u) << reply;
    EXPECT_EQ(family_flag(reply), over == 0 ? "1" : "0")
        << changed << " changed blocks: " << reply;
    EXPECT_EQ(parse_warm_hint(reply).empty(), over == 1) << reply;
    EXPECT_EQ(canonical_part(reply),
              offline_response(parse_line(line).request,
                               parse_warm_hint(reply)));
  }
}

TEST(Service, HistoryEvictionDropsRepeatAndFamilySeed) {
  // Three families fill the history; a fourth request then drifts the
  // first family and a fifth repeats its first request. With room for all
  // of them the drift is seeded and the repeat is a history hit; with
  // max_history = 2 the first entry is gone, and with it both.
  const std::string a = "plan model=gpt2-345m gpus=4 gbs=64 stages=2";
  for (const std::size_t max_history : {4u, 2u}) {
    ServiceOptions opts = small_service();
    opts.max_history = max_history;
    PlanService service(opts);
    for (const char* model : {"gpt2-345m", "gpt2-762m", "bert-large"}) {
      const std::string reply = service.handle_line(
          std::string("plan model=") + model + " gpus=4 gbs=64 stages=2");
      ASSERT_EQ(reply.rfind("ok ", 0), 0u) << reply;
    }
    const bool kept = max_history == 4;
    const std::string drift = service.handle_line(drifted(a, 2));
    EXPECT_EQ(family_flag(drift), kept ? "1" : "0") << drift;
    const std::string repeat = service.handle_line(a);
    EXPECT_EQ(repeat.find(" # src=history") != std::string::npos, kept)
        << repeat;
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.history_hits, kept ? 1 : 0);
    EXPECT_EQ(stats.history_size, max_history);
  }
}

// ------------------------------------------------------ unix socket

int connect_retry(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) == 0) {
      return fd;
    }
    if (fd >= 0) ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

void send_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    ASSERT_GT(n, 0);
    done += static_cast<std::size_t>(n);
  }
}

std::string recv_line(int fd) {
  std::string out;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return out;
    out.push_back(c);
  }
  return out;
}

TEST(Service, UnixSocketTransportServesAndShutsDown) {
  const std::string path = testing::TempDir() + "/ap-service-test.sock";
  ::unlink(path.c_str());

  PlanService service(small_service());
  ServerOptions server_opts;
  server_opts.stdio = false;
  server_opts.socket_path = path;
  PlanServer server(service, server_opts);
  std::atomic<int> rc{-1};
  std::thread daemon([&] { rc = server.run(); });

  const int fd = connect_retry(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  send_all(fd, "ping\n");
  EXPECT_EQ(recv_line(fd), "pong");

  const std::string line = "plan id=s1 model=gpt2-345m gpus=4 gbs=64 warm=off";
  send_all(fd, line + "\n");
  const std::string served = recv_line(fd);
  ASSERT_EQ(served.rfind("ok id=s1 ", 0), 0u) << served;
  EXPECT_EQ(canonical_part(served),
            offline_response(parse_line(line).request));

  send_all(fd, "shutdown\n");
  EXPECT_EQ(recv_line(fd), "bye");
  ::close(fd);
  daemon.join();
  EXPECT_EQ(rc.load(), 0);
}

TEST(Service, OverlongRequestLineGetsErrorAndClose) {
  const std::string path = testing::TempDir() + "/ap-service-overlong.sock";
  ::unlink(path.c_str());

  PlanService service(small_service());
  ServerOptions server_opts;
  server_opts.stdio = false;
  server_opts.socket_path = path;
  PlanServer server(service, server_opts);
  std::atomic<int> rc{-1};
  std::thread daemon([&] { rc = server.run(); });

  // One byte over the bound and no newline: the server has read every byte
  // when it replies, so the close cannot race the client's write.
  const int fd = connect_retry(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  send_all(fd, std::string(kMaxRequestLine + 1, 'x'));
  EXPECT_EQ(recv_line(fd).rfind("error id=0 ", 0), 0u);
  char c;
  EXPECT_EQ(::read(fd, &c, 1), 0) << "connection should be closed";
  ::close(fd);

  // A line exactly at the bound is still a request (a malformed one).
  const int fresh = connect_retry(path);
  ASSERT_GE(fresh, 0);
  send_all(fresh, std::string(kMaxRequestLine, 'y') + "\nping\n");
  EXPECT_EQ(recv_line(fresh).rfind("error id=0 ", 0), 0u);
  EXPECT_EQ(recv_line(fresh), "pong");
  send_all(fresh, "shutdown\n");
  EXPECT_EQ(recv_line(fresh), "bye");
  ::close(fresh);
  daemon.join();
  EXPECT_EQ(rc.load(), 0);
}

TEST(Service, BoundedStdinReaderStopsOneByteOverTheBound) {
  // The stdio transport's reader: a line exactly at the bound is returned
  // whole; one byte more stops the loop with *too_long set, as the server's
  // stdin path relies on.
  const std::string at(kMaxRequestLine, 'y');
  const std::string over(kMaxRequestLine + 1, 'x');
  std::istringstream in(at + "\nping\n" + over + "\nlost\n");
  std::string line;
  bool too_long = false;
  ASSERT_TRUE(read_bounded_line(in, line, &too_long));
  EXPECT_EQ(line, at);
  ASSERT_TRUE(read_bounded_line(in, line, &too_long));
  EXPECT_EQ(line, "ping");
  EXPECT_FALSE(too_long);
  EXPECT_FALSE(read_bounded_line(in, line, &too_long));
  EXPECT_TRUE(too_long);

  // An unterminated last line is still a line; EOF then ends the loop.
  std::istringstream tail("stats");
  too_long = false;
  ASSERT_TRUE(read_bounded_line(tail, line, &too_long));
  EXPECT_EQ(line, "stats");
  EXPECT_FALSE(read_bounded_line(tail, line, &too_long));
  EXPECT_FALSE(too_long);
}

// -------------------------------------------------- concurrent storm

TEST(Service, SeededStormDeterministicUnderConcurrency) {
  // Many client threads hammer one service with a seeded request mix
  // (cold, auto-warm, explicit-warm, perturbed). Every `ok` response must
  // byte-match its offline replay regardless of interleaving -- the proof
  // that the shared memo pool, plan history and warm-start machinery are
  // behaviour-neutral under concurrency. Run under TSan in CI.
  ServiceOptions opts;
  opts.workers = 4;
  opts.max_queue = 1024;  // no shedding: every request must be served
  PlanService service(opts);

  constexpr int kThreads = 8;
  constexpr int kRequests = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937 rng(1234u + static_cast<unsigned>(t));
      const char* models[] = {"gpt2-345m", "gpt2-762m"};
      const char* warms[] = {"off", "auto", "auto"};
      for (int i = 0; i < kRequests; ++i) {
        std::string line = "plan id=t" + std::to_string(t) + "." +
                           std::to_string(i) +
                           " model=" + models[rng() % 2] +
                           " gpus=4 gbs=64 stages=2 warm=" + warms[rng() % 3];
        if (rng() % 2 == 0) {
          const int block = static_cast<int>(rng() % 8);
          const int pct = 95 + static_cast<int>(rng() % 11);  // 0.95..1.05
          line += " perturb=" + std::to_string(block) + ":" +
                  std::to_string(pct / 100.0) + ":" +
                  std::to_string(pct / 100.0);
        }
        const std::string served = service.handle_line(line);
        if (served.rfind("ok ", 0) != 0) {
          failures.fetch_add(1);
          ADD_FAILURE() << "unexpected reply: " << served;
          continue;
        }
        const ParsedLine parsed = parse_line(line);
        const std::string offline = offline_response(
            parsed.request, parse_warm_hint(served));
        if (canonical_part(served) != offline) {
          mismatches.fetch_add(1);
          ADD_FAILURE() << "served : " << canonical_part(served)
                        << "\noffline: " << offline;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kRequests);
  EXPECT_EQ(stats.busy_rejected, 0);
  EXPECT_EQ(stats.errors, 0);
  // The storm repeats fingerprints across threads, so some requests must
  // have been served from history and the rest planned.
  EXPECT_EQ(stats.planned + stats.history_hits, kThreads * kRequests);
  EXPECT_GT(stats.history_hits, 0);
}


// ------------------------------------------------------- stream golden

TEST(Service, SeededStreamMatchesRecordedCanonicalHash) {
  // A plan-cold-shaped stream through one long-lived service: rotating zoo
  // models over a 16-GPU depth sweep, warm=auto and warm=off alternating in
  // blocks of four, two seeded drifted blocks per request. The FNV-1a of
  // every canonical part and the warm-started count were recorded at the
  // commit before the binary config digest and the timing-only history;
  // any change to memo keying or warm seeding that moves a byte shows here.
  const char* const models[] = {"gpt2-345m", "gpt2-762m", "gpt2-1.3b",
                                "bert-large"};
  ServiceOptions opts;
  opts.workers = 1;
  PlanService service(opts);
  util::Rng rng(2024);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  constexpr int kRequests = 2000;
  for (int i = 0; i < kRequests; ++i) {
    const char* model = models[i % 4];
    const int blocks = 2 * costmodel::model_by_name(model).num_layers + 2;
    const int a = static_cast<int>(rng.next_below(blocks));
    const int b = (a + 1 + static_cast<int>(rng.next_below(blocks - 1))) %
                  blocks;
    double f[4];
    for (double& x : f) x = rng.uniform(0.95, 1.05);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "plan id=s%d model=%s gpus=16 gbs=128 stages=0 warm=%s "
                  "perturb=%d:%.4f:%.4f,%d:%.4f:%.4f",
                  i, model, (i / 4) % 2 == 0 ? "auto" : "off", std::min(a, b),
                  f[0], f[1], std::max(a, b), f[2], f[3]);
    const std::string reply = service.handle_line(line);
    ASSERT_EQ(reply.rfind("ok ", 0), 0u) << reply;
    for (const char c : canonical_part(reply) + "\n") {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(std::string(hex), "545f51a186252568");
  EXPECT_EQ(stats.planned + stats.history_hits, kRequests);
  EXPECT_EQ(stats.warm_planned, 249);
}

}  // namespace
}  // namespace autopipe::service
