// train-gemm and train-deep: closed loops of real pipelined training
// iterations on the thread-per-device runtime, plus the per-layer probes of
// the model, runtime, guard, checkpoint and simulator layers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/storage.h"
#include "core/balanced_dp.h"
#include "core/schedule.h"
#include "core/slicer.h"
#include "costmodel/analytic.h"
#include "guard/guard.h"
#include "model/arena.h"
#include "model/ops.h"
#include "profiler/block_profiler.h"
#include "runtime/health.h"
#include "runtime/optimizer.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/train_session.h"
#include "sim/executor.h"
#include "sim/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace autopipe;

struct TrainWorkload {
  model::TinySpec spec;
  int stages = 2;
  int micro_batch = 4;
  int micro_batches = 8;
  int ops_threads = 1;
  costmodel::ScheduleKind kind = costmodel::ScheduleKind::OneFOneB;
  /// Guards (all but the norm guard), health board and an in-memory
  /// checkpoint after every step.
  bool guarded = false;
  double tail_pct = 90;
  // Derived from the analytic cost model (deterministic, host-independent):
  std::vector<int> counts;  ///< the Planner's partition
  int sliced = 0;           ///< the Slicer's sliced micro-batches

  double tokens_per_iter() const {
    return static_cast<double>(micro_batch) * micro_batches * spec.seq;
  }
};

costmodel::ModelSpec model_spec(const model::TinySpec& s) {
  costmodel::ModelSpec m;
  m.name = "perfbench-tiny";
  m.num_layers = s.layers;
  m.hidden = s.hidden;
  m.heads = s.heads;
  m.vocab = s.vocab;
  m.default_seq = s.seq;
  m.causal = s.causal;
  return m;
}

costmodel::TrainConfig train_config(const TrainWorkload& w) {
  return {w.micro_batch, w.spec.seq, true};
}

/// Balanced partition (Algorithm 1) and slicing from the Slicer, both on
/// the analytic config, so every run executes the same schedule on any host.
void plan_partition(TrainWorkload& w) {
  const costmodel::ModelConfig config =
      costmodel::build_model_config(model_spec(w.spec), train_config(w));
  const core::Partition partition = core::balanced_partition(config, w.stages);
  w.counts = partition.counts;
  if (w.kind == costmodel::ScheduleKind::AutoPipeSliced) {
    w.sliced = core::solve_slicing(config, partition, w.micro_batches)
                   .sliced_micro_batches;
  }
}

/// GEMM-bound: a wide model whose kernels carry the iteration, fanned out
/// over a 2-worker kernel pool next to the 2 stage threads.
TrainWorkload train_gemm(std::uint64_t seed) {
  TrainWorkload w;
  w.spec = {4, 128, 4, 256, 16, true, seed};
  w.stages = 2;
  w.micro_batch = 4;
  w.micro_batches = 8;
  w.ops_threads = 2;
  w.kind = costmodel::ScheduleKind::OneFOneB;
  w.tail_pct = 90;
  plan_partition(w);
  return w;
}

/// Dispatch-bound: a narrow, deep model with many small ops on 4 stages
/// under AutoPipe's sliced schedule, with guards and per-step checkpoints.
TrainWorkload train_deep(std::uint64_t seed) {
  TrainWorkload w;
  w.spec = {16, 64, 4, 256, 16, true, seed};
  w.stages = 4;
  w.micro_batch = 4;
  w.micro_batches = 16;
  w.ops_threads = 1;
  w.kind = costmodel::ScheduleKind::AutoPipeSliced;
  w.guarded = true;
  w.tail_pct = 85;
  plan_partition(w);
  return w;
}

TrainWorkload training_workload(const std::string& name, std::uint64_t seed) {
  if (name == "train-gemm") return train_gemm(seed);
  if (name == "train-deep") return train_deep(seed);
  throw std::invalid_argument("unknown training workload: " + name);
}

guard::GuardOptions guard_options() {
  guard::GuardOptions g;
  g.handoff_crc = true;
  g.nonfinite_checks = true;
  g.weight_interval = 1;
  return g;
}

constexpr double kLr = 3e-3;

std::uint64_t data_seed(std::uint64_t seed) { return seed * 2654435761ULL + 7; }

/// A training session plus what it points at. Members are declared so the
/// session is destroyed before the storage and board it references; clear()
/// keeps that order (move assignment would not).
struct Live {
  std::unique_ptr<ckpt::MemStorage> storage;
  std::unique_ptr<runtime::HealthBoard> board;
  std::unique_ptr<runtime::TrainSession> session;

  void clear() {
    session.reset();
    board.reset();
    storage.reset();
  }
};

Live make_session(const TrainWorkload& w) {
  Live live;
  runtime::TrainSessionOptions o;
  o.spec = w.spec;
  o.counts = w.counts;
  o.kind = w.kind;
  o.sliced = w.sliced;
  o.micro_batch = w.micro_batch;
  o.num_micro_batches = w.micro_batches;
  o.lr = kLr;
  o.data_seed = data_seed(w.spec.seed);
  if (w.guarded) {
    live.storage = std::make_unique<ckpt::MemStorage>();
    live.board = std::make_unique<runtime::HealthBoard>(w.stages);
    o.ckpt_dir = "ckpt";
    o.ckpt_interval = 1;
    o.ckpt_keep = 2;
    o.storage = live.storage.get();
    o.run.health = live.board.get();
    o.guard = guard_options();
  }
  live.session = std::make_unique<runtime::TrainSession>(o);
  return live;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

constexpr int kCheckedSteps = 2;
constexpr int kWarmupSteps = 3;  // >= kCheckedSteps
constexpr int kSetupReps = 3;

}  // namespace

int training_threads(const std::string& name) {
  const TrainWorkload w = training_workload(name, 1);
  return w.stages + (w.ops_threads > 1 ? w.ops_threads : 0);
}

Result run_training(const RunArgs& args, Tracer* tracer) {
  const TrainWorkload w = training_workload(args.workload, args.seed);
  Result out;

  // Reference: the first steps under the naive model::ref:: kernels. The
  // fast path must reproduce these losses bit for bit (HotpathFuzz).
  std::vector<double> reference;
  {
    model::set_ops_threads(w.ops_threads);
    model::set_fast_ops(false);
    Live ref = make_session(w);
    for (int i = 0; i < kCheckedSteps; ++i) ref.session->step();
    reference = ref.session->losses();
    model::set_fast_ops(true);
  }

  // Set-up, repeated from a cold arena and a fresh kernel pool: build the
  // session and run a fixed number of warm-up steps. The first step fills
  // the arena's size classes; after it train-gemm takes no misses, while
  // train-deep's four stage threads keep taking a few per step depending on
  // how they interleave (listed in the warmup_misses diagnostic). A fixed
  // count keeps the set-up work the same in every run.
  std::vector<double> setup_s;
  Live live;
  std::string warmup_misses;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live.clear();
    model::Arena::global().trim();
    const double t0 = now_ms();
    model::set_ops_threads(w.ops_threads);
    live = make_session(w);
    warmup_misses.clear();
    for (int step = 0; step < kWarmupSteps; ++step) {
      const std::uint64_t misses = model::Arena::global().stats().misses;
      live.session->step();
      warmup_misses += (warmup_misses.empty() ? "" : ",") +
                       std::to_string(model::Arena::global().stats().misses -
                                      misses);
    }
    setup_s.push_back((now_ms() - t0) / 1e3);
    const std::vector<double>& losses = live.session->losses();
    for (int i = 0; i < kCheckedSteps; ++i) {
      ++out.attempted;
      if (!same_bits(losses[i], reference[i])) ++out.failed;
    }
  }

  runtime::TrainSession& session = *live.session;
  const Window win = run_window(args.seconds, tracer, 2, [&](Tracer* t) {
    try {
      Span span(t, "runtime.train_session.step");
      return std::isfinite(session.step());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "step failed: %s\n", e.what());
      return false;
    }
  });
  out.attempted += win.ops;
  out.failed += win.failed;

  std::string counts;
  for (int c : w.counts) {
    counts += (counts.empty() ? "" : ",") + std::to_string(c);
  }
  char info[256];
  std::snprintf(info, sizeof(info),
                "{\"workload\":\"%s\",\"stages\":%d,\"counts\":\"%s\","
                "\"micro_batches\":%d,\"sliced\":%d,\"warmup_misses\":\"%s\","
                "\"iterations\":%ld,\"checkpoints\":%d}",
                args.workload.c_str(), w.stages, counts.c_str(),
                w.micro_batches, w.sliced, warmup_misses.c_str(), win.ops,
                session.checkpoints_written());
  print_info(info);

  if (tracer == nullptr) {
    out.add_end_to_end(
        win, static_cast<double>(win.ops - win.failed) * w.tokens_per_iter(),
        w.tail_pct, setup_s);
  } else {
    out.add_trace_overhead(win);
  }
  return out;
}

// ------------------------------------------------------------ probes

void probe_train_deep(std::uint64_t seed, Tracer& tracer, Result& out) {
  const TrainWorkload w = train_deep(seed);
  model::set_ops_threads(w.ops_threads);

  // The TrainSession::step body, one public call at a time.
  model::TransformerModel net(w.spec);
  runtime::PipelineRuntime rt(net, w.counts);
  const core::Schedule schedule =
      rt.make_schedule(w.kind, w.micro_batches, w.sliced);
  model::SyntheticCorpus corpus(w.spec.vocab, data_seed(seed));
  runtime::Adam adam(kLr);
  const guard::GuardOptions gopts = guard_options();
  guard::GuardCounters counters;
  runtime::HealthBoard board(w.stages);
  runtime::RunOptions run;
  run.guard = &gopts;
  run.guard_counters = &counters;
  run.health = &board;
  ckpt::MemStorage storage;
  ckpt::CheckpointWriter writer(storage, "ckpt", ckpt::WriterOptions{2});
  const double scale = 1.0 / w.tokens_per_iter();

  constexpr int kWarmup = 2;
  constexpr int kIters = 8;
  std::vector<double> busy_share;
  double ckpt_bytes = 0;
  model::ArenaStats before{};
  std::uint64_t copies_before = 0;
  long checks_before = 0;
  for (int i = 0; i < kWarmup + kIters; ++i) {
    const bool timed = i >= kWarmup;
    if (i == kWarmup) {
      before = model::Arena::global().stats();
      copies_before = model::ArenaBuffer::copy_count();
      checks_before = counters.handoff_checks.load();
    }
    Tracer* t = timed ? &tracer : nullptr;
    tracer.set_trace_id(i);
    Span iteration(t, "runtime.iteration");
    std::vector<model::Batch> micro;
    {
      Span s(t, "runtime.data");
      const model::Batch batch =
          corpus.next_batch(w.micro_batch * w.micro_batches, w.spec.seq);
      micro = model::SyntheticCorpus::split_micro_batches(batch, w.spec.seq,
                                                          w.micro_batch);
    }
    net.zero_grads();
    const double cpu0 = process_cpu_ms();
    const double wall0 = now_ms();
    {
      Span s(t, "runtime.run_iteration");
      rt.run_iteration(schedule, micro, scale, run);
    }
    if (timed) {
      busy_share.push_back((process_cpu_ms() - cpu0) /
                           ((now_ms() - wall0) * rt.num_devices()));
    }
    {
      Span s(t, "runtime.adam_step");
      adam.step(net);
    }
    std::uint32_t crc = 0;
    {
      Span s(t, "guard.weight_crc");
      crc = guard::weight_crc(net, adam.m(), adam.v());
    }
    ckpt::TrainState state;
    {
      Span s(t, "ckpt.capture");
      state = ckpt::capture_train_state(net, adam.state(), corpus.rng_state(),
                                        i + 1, w.counts,
                                        static_cast<int>(w.kind));
    }
    std::string dir;
    {
      Span s(t, "ckpt.write");
      dir = writer.write(state, &crc);
    }
    if (timed) {
      double bytes = 0;
      for (const std::string& f : storage.list_dir(dir)) {
        bytes += static_cast<double>(storage.read_file(dir + "/" + f).size());
      }
      ckpt_bytes = bytes;
    }
  }
  const model::ArenaStats after = model::Arena::global().stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);

  out.add("model.arena.hit_ratio", hits / (hits + misses), "ratio");
  out.add("model.arena.high_water_mb",
          static_cast<double>(after.high_water_bytes) / (1024.0 * 1024.0),
          "MB");
  out.add("model.tensor_copies_per_iter",
          static_cast<double>(model::ArenaBuffer::copy_count() -
                              copies_before) /
              kIters,
          "count");
  const auto span_ms = [&](const char* name) {
    return median(tracer.durations_ms(name));
  };
  const double run_ms = span_ms("runtime.run_iteration");
  out.add("runtime.run_iteration.ms", run_ms, "ms");
  out.add("runtime.adam_step.ms", span_ms("runtime.adam_step"), "ms");
  out.add("runtime.data.ms", span_ms("runtime.data"), "ms");
  out.add("runtime.busy_share", median(busy_share), "ratio");
  out.add("guard.handoff_checks_per_iter",
          static_cast<double>(counters.handoff_checks.load() - checks_before) /
              kIters,
          "count");
  out.add("guard.weight_crc.ms", span_ms("guard.weight_crc"), "ms");
  out.add("ckpt.capture.ms", span_ms("ckpt.capture"), "ms");
  out.add("ckpt.write.ms", span_ms("ckpt.write"), "ms");
  out.add("ckpt.bytes", ckpt_bytes, "bytes");

  // Measured block profile at this workload's shapes, then the simulator's
  // prediction of the same schedule priced with it (Fig. 11 on the real
  // runtime). Channels hand tensors over by pointer, so hops cost 0.
  const costmodel::ModelSpec mspec = model_spec(w.spec);
  const costmodel::TrainConfig train = train_config(w);
  profiler::ProfilerOptions popts;
  popts.seed = seed;
  std::vector<profiler::BlockMeasurement> kinds;
  {
    Span s(&tracer, "profiler.profile_kinds");
    kinds = profiler::BlockProfiler(popts).profile_kinds(
        mspec, train,
        {costmodel::BlockKind::Embedding, costmodel::BlockKind::Attention,
         costmodel::BlockKind::FFN, costmodel::BlockKind::Head});
  }
  static const char* const kKindNames[] = {"embedding", "attention", "ffn",
                                           "head"};
  costmodel::ModelConfig measured = costmodel::build_model_config(mspec, train);
  for (const profiler::BlockMeasurement& m : kinds) {
    const std::string base =
        std::string("model.block.") + kKindNames[static_cast<int>(m.kind)];
    out.add(base + ".fwd_ms", m.fwd_ms, "ms");
    out.add(base + ".bwd_ms", m.bwd_ms, "ms");
    for (costmodel::Block& b : measured.blocks) {
      if (b.kind != m.kind) continue;
      const double input_share =
          b.bwd_ms > 0 ? b.bwd_input_ms / b.bwd_ms : 2.0 / 3.0;
      b.fwd_ms = m.fwd_ms;
      b.bwd_ms = m.bwd_ms;
      b.bwd_input_ms = m.bwd_ms * input_share;
      b.bwd_weight_ms = m.bwd_ms - b.bwd_input_ms;
    }
  }
  const auto costs = core::stage_costs(measured, core::Partition{w.counts});
  core::BuildScheduleOptions bopts;
  bopts.sliced = w.sliced;
  const core::Schedule priced = core::build_schedule(
      w.kind, costs, w.micro_batches, costmodel::CommModel(0.0), bopts);
  double predicted = 0;
  {
    Span s(&tracer, "core.evaluate_schedule.priced");
    predicted = core::evaluate_schedule(priced).iteration_ms;
  }
  out.add("core.predicted_iter_ms", predicted, "ms");
  out.add("sim.bubble_fraction",
          sim::analyze(sim::execute(priced)).bubble_fraction, "ratio");
  out.add("runtime.sim_gap", run_ms / predicted - 1.0, "ratio");
}

void probe_gemm_ops(std::uint64_t seed, Tracer& tracer, Result& out) {
  const TrainWorkload w = train_gemm(seed);
  model::set_ops_threads(w.ops_threads);
  const int tokens = w.micro_batch * w.spec.seq;
  const int h = w.spec.hidden;
  const int s = w.spec.seq;
  util::Rng rng(seed);
  using model::Tensor;
  const Tensor x = Tensor::randn({tokens, h}, rng, 0.02f);
  const Tensor wt = Tensor::randn({h, 4 * h}, rng, 0.02f);
  const Tensor dy = Tensor::randn({tokens, 4 * h}, rng, 0.02f);
  const Tensor pre = Tensor::randn({tokens, 4 * h}, rng, 1.0f);
  const Tensor gamma = Tensor::full({h}, 1.0f);
  const Tensor beta = Tensor({h});
  const Tensor dx = Tensor::randn({tokens, h}, rng, 0.02f);
  const Tensor scores = Tensor::randn({s, s}, rng, 1.0f);
  const Tensor logits = Tensor::randn({tokens, w.spec.vocab}, rng, 0.5f);
  std::vector<int> targets(static_cast<std::size_t>(tokens));
  for (int& t : targets) t = static_cast<int>(rng.next_below(w.spec.vocab));
  model::LayerNormCache cache;
  model::layernorm(x, gamma, beta, &cache);

  // Median ms per call: batches of calls sized to about 2 ms, one span each.
  const auto per_call_ms = [&](const char* name, auto&& fn) {
    double t0 = now_ms();
    fn();
    const double once = std::max(now_ms() - t0, 1e-4);
    const int reps = std::max(1, static_cast<int>(2.0 / once));
    for (int i = 0; i < reps; ++i) fn();  // warm-up batch
    std::vector<double> per_call;
    for (int sample = 0; sample < 15; ++sample) {
      Span span(&tracer, name);
      t0 = now_ms();
      for (int i = 0; i < reps; ++i) fn();
      per_call.push_back((now_ms() - t0) / reps);
    }
    return median(per_call);
  };
  const double gemm_flop = 2.0 * tokens * h * (4.0 * h);
  const auto gflops = [&](double ms) { return gemm_flop / (ms * 1e6); };
  out.add("model.matmul.gflops",
          gflops(per_call_ms("model.matmul", [&] { model::matmul(x, wt); })),
          "GFLOP/s");
  out.add("model.matmul_grad_a.gflops",
          gflops(per_call_ms("model.matmul_grad_a",
                             [&] { model::matmul_grad_a(dy, wt); })),
          "GFLOP/s");
  out.add("model.matmul_grad_b.gflops",
          gflops(per_call_ms("model.matmul_grad_b",
                             [&] { model::matmul_grad_b(x, dy); })),
          "GFLOP/s");
  out.add("model.gelu.ms",
          per_call_ms("model.gelu", [&] { model::gelu(pre); }), "ms");
  out.add("model.gelu_backward.ms",
          per_call_ms("model.gelu_backward",
                      [&] { model::gelu_backward(pre, dy); }),
          "ms");
  out.add("model.layernorm.ms", per_call_ms("model.layernorm", [&] {
            model::LayerNormCache c;
            model::layernorm(x, gamma, beta, &c);
          }),
          "ms");
  out.add("model.layernorm_backward.ms",
          per_call_ms("model.layernorm_backward",
                      [&] { model::layernorm_backward(cache, gamma, dx); }),
          "ms");
  out.add("model.softmax_rows.ms",
          per_call_ms("model.softmax_rows",
                      [&] { model::softmax_rows(scores); }),
          "ms");
  out.add("model.cross_entropy.ms", per_call_ms("model.cross_entropy", [&] {
            Tensor dlogits;
            model::cross_entropy(logits, targets, 1.0 / tokens, &dlogits);
          }),
          "ms");
}

}  // namespace perfbench
