// plan-cold: one client thread sends a seeded stream of drifted plan
// requests to an in-process PlanService; plus the per-layer probes of the
// planner, slicer, schedule evaluator, cost model and service layers.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/autopipe.h"
#include "core/schedule.h"
#include "core/slicer.h"
#include "costmodel/model_zoo.h"
#include "service/plan_service.h"
#include "service/protocol.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace autopipe;

/// Seeded request stream over the zoo at gpus=16 stages=0 (every request
/// sweeps the pipeline depths 1..16). Models rotate and warm=auto / warm=off
/// alternate in a fixed cycle, so every seed sends the same mix; the seed
/// picks which two blocks of each request drift and by how much. The stream
/// never repeats a request, so the plan history can seed searches but never
/// answer one in O(1).
class PlanStream {
 public:
  explicit PlanStream(std::uint64_t seed) : rng_(seed) {}

  std::string next() {
    static const char* const kModels[] = {"gpt2-345m", "gpt2-762m",
                                          "gpt2-1.3b", "bert-large"};
    const char* model = kModels[count_ % 4];
    const char* warm = (count_ / 4) % 2 == 0 ? "auto" : "off";
    const int blocks = 2 * costmodel::model_by_name(model).num_layers + 2;
    for (;;) {
      const int a = static_cast<int>(rng_.next_below(blocks));
      const int b =
          (a + 1 + static_cast<int>(rng_.next_below(blocks - 1))) % blocks;
      char body[160];
      std::snprintf(body, sizeof(body),
                    "model=%s gpus=16 gbs=128 stages=0 warm=%s "
                    "perturb=%d:%.4f:%.4f,%d:%.4f:%.4f",
                    model, warm, std::min(a, b), rng_.uniform(0.95, 1.05),
                    rng_.uniform(0.95, 1.05), std::max(a, b),
                    rng_.uniform(0.95, 1.05), rng_.uniform(0.95, 1.05));
      if (!seen_.insert(body).second) continue;
      return "plan id=r" + std::to_string(count_++) + " " + body;
    }
  }

 private:
  util::Rng rng_;
  std::set<std::string> seen_;  ///< request bodies already sent
  long count_ = 0;
};

service::ServiceOptions service_options() {
  service::ServiceOptions o;
  o.workers = 1;
  o.planner_threads = 1;
  return o;
}

bool is_ok(const std::string& reply) { return reply.rfind("ok ", 0) == 0; }

/// The served==offline contract: the canonical part of a served reply equals
/// a fresh offline solve of the same request with the echoed warm hint.
bool matches_offline(const std::string& line, const std::string& reply) {
  const service::ParsedLine parsed = service::parse_line(line);
  if (!parsed.error.empty()) return false;
  const std::string offline = service::offline_response(
      parsed.request, service::parse_warm_hint(reply));
  return service::canonical_part(offline) == service::canonical_part(reply);
}

constexpr int kSetupReps = 5;
constexpr int kWarmupRequests = 64;
constexpr int kCheckStride = 16;
constexpr double kTailPct = 99;

}  // namespace

Result run_plan_cold(const RunArgs& args, Tracer* tracer) {
  Result out;
  PlanStream stream(args.seed);
  std::vector<std::string> warmup;
  for (int i = 0; i < kWarmupRequests; ++i) warmup.push_back(stream.next());

  // Set-up, repeated: a fresh service (worker pool, memo pool, history)
  // plus its first requests, which seed the plan history's families.
  std::vector<double> setup_s;
  std::unique_ptr<service::PlanService> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const double t0 = now_ms();
    svc = std::make_unique<service::PlanService>(service_options());
    for (const std::string& line : warmup) {
      ++out.attempted;
      if (!is_ok(svc->handle_line(line))) ++out.failed;
    }
    setup_s.push_back((now_ms() - t0) / 1e3);
  }

  std::vector<std::pair<std::string, std::string>> sampled;
  long index = 0;
  const Window win = run_window(args.seconds, tracer, 64, [&](Tracer* t) {
    const std::string line = stream.next();
    std::string reply;
    {
      Span span(t, "service.handle_line");
      reply = svc->handle_line(line);
    }
    if (index++ % kCheckStride == 0) sampled.emplace_back(line, reply);
    return is_ok(reply);
  });
  out.attempted += win.ops;
  out.failed += win.failed;

  // Outside the window: sampled replies against the offline solver.
  long mismatches = 0;
  for (const auto& [line, reply] : sampled) {
    if (is_ok(reply) && !matches_offline(line, reply)) ++mismatches;
  }
  out.failed += mismatches;

  const service::ServiceStats stats = svc->stats();
  char info[320];
  std::snprintf(info, sizeof(info),
                "{\"workload\":\"plan-cold\",\"requests\":%ld,"
                "\"offline_checked\":%zu,\"offline_mismatches\":%ld,"
                "\"planned\":%ld,\"history_hits\":%ld,\"warm_planned\":%ld,"
                "\"busy\":%ld,\"errors\":%ld}",
                win.ops, sampled.size(), mismatches, stats.planned,
                stats.history_hits, stats.warm_planned, stats.busy_rejected,
                stats.errors);
  print_info(info);

  if (tracer == nullptr) {
    out.add_end_to_end(win, static_cast<double>(win.ops - win.failed),
                       kTailPct, setup_s);
  } else {
    out.add_trace_overhead(win);
  }
  return out;
}

void probe_planning(std::uint64_t seed, Tracer& tracer, Result& out) {
  PlanStream stream(seed);
  service::PlanService svc(service_options());
  constexpr int kWarmup = 32;
  constexpr int kRequests = 200;

  std::vector<double> overhead_plan_first, overhead_handle_first;
  long cold_requests = 0;
  double evaluations = 0, unique_sims = 0, hits = 0;
  for (int i = 0; i < kWarmup + kRequests; ++i) {
    const bool timed = i >= kWarmup;
    Tracer* t = timed ? &tracer : nullptr;
    tracer.set_trace_id(i);
    const std::string line = stream.next();
    service::ParsedLine parsed;
    {
      Span s(t, "service.parse_line");
      parsed = service::parse_line(line);
    }
    const service::PlanRequest& req = parsed.request;
    costmodel::ModelConfig config;
    {
      Span s(t, "costmodel.request_config");
      config = service::request_config(req);
    }
    std::string reply;
    double handle_ms = 0;
    const auto handle = [&] {
      const double t0 = now_ms();
      Span s(t, "service.handle_line");
      reply = svc.handle_line(line);
      handle_ms = now_ms() - t0;
    };
    // The planner alone on the same request and warm hint, as solve_plan
    // calls it but without the service's shared memo.
    core::AutoPipeResult result;
    double plan_ms = 0;
    const auto plan = [&](std::vector<int> hint) {
      core::AutoPipeOptions options;
      options.num_gpus = req.gpus;
      options.global_batch = req.global_batch;
      options.forced_stages = req.stages;
      options.enable_slicer = req.slicer;
      options.warm_start = std::move(hint);
      const double t0 = now_ms();
      Span s(t, "core.auto_plan");
      result = core::auto_plan(config, options);
      plan_ms = now_ms() - t0;
    };
    // Whichever of the two runs second finds the caches warm, so on cold
    // requests (whose hint is known to be empty) the order alternates and
    // the overhead is the mean of the two orders' medians.
    const bool cold = req.warm == "off";
    const bool plan_first = cold && cold_requests++ % 2 == 0;
    if (plan_first) {
      plan({});
      handle();
    } else {
      handle();
      plan(service::parse_warm_hint(reply));
    }
    const int m = static_cast<int>(std::max<long>(
        1, req.global_batch /
               (static_cast<long>(req.micro_batch) *
                result.plan.data_parallel)));
    {
      Span s(t, "core.evaluate_schedule");
      core::evaluate_schedule(result.schedule);
    }
    {
      Span s(t, "core.solve_slicing");
      core::solve_slicing(config, result.plan.partition, m);
    }
    if (!timed) continue;
    if (cold) {
      (plan_first ? overhead_plan_first : overhead_handle_first)
          .push_back(handle_ms - plan_ms);
    }
    evaluations += result.evaluations;
    unique_sims += result.unique_simulations;
    hits += result.cache_hits;
  }

  const auto us = [&](const char* name) {
    return median(tracer.durations_ms(name)) * 1e3;
  };
  out.add("core.auto_plan.ms", median(tracer.durations_ms("core.auto_plan")),
          "ms");
  out.add("core.evaluations_per_plan", evaluations / kRequests, "count");
  out.add("core.unique_sims_per_plan", unique_sims / kRequests, "count");
  out.add("core.memo_hit_ratio", hits / evaluations, "ratio");
  out.add("core.evaluate_schedule.us", us("core.evaluate_schedule"), "us");
  out.add("core.solve_slicing.us", us("core.solve_slicing"), "us");
  out.add("costmodel.request_config.us", us("costmodel.request_config"), "us");
  out.add("service.parse_line.us", us("service.parse_line"), "us");
  out.add("service.overhead_ms",
          (median(overhead_plan_first) + median(overhead_handle_first)) / 2,
          "ms");
  const service::ServiceStats stats = svc.stats();
  out.add("service.memo_hit_ratio",
          1.0 - static_cast<double>(stats.memo_misses) /
                    static_cast<double>(stats.memo_lookups),
          "ratio");
  out.add("service.warm_planned_share",
          static_cast<double>(stats.warm_planned) /
              static_cast<double>(stats.planned),
          "ratio");
}

}  // namespace perfbench
