// Runtime hot-path benchmark: naive reference ops vs the blocked/ILP fast
// kernels, per primitive and end-to-end through the pipelined trainer.
//
//   ./bench_runtime_hotpath [--hidden 128] [--seq 16] [--vocab 256]
//                           [--layers 4] [--stages 2] [--micro-batches 8]
//                           [--iters 5] [--reps 5] [--threads 0]
//                           [--assert-speedup 0]
//
// Output is one JSON line per measurement (medians over --reps) plus the
// bench/common.h metadata line, so archived runs stay attributable. The op
// sweep times each primitive at the trainer's dominant shapes; the
// end-to-end rows time whole training iterations with set_fast_ops(false)
// vs (true) on the same model and data.
//
// GEMM rows also report absolute GFLOP/s (2mkn / time) for both paths: at
// the trainer's shapes with --threads workers, and at train-deep's shapes
// (64 tokens, hidden 64) on one thread.
//
// Two arena_churn rows time the tensor arena alone: allocate/release pairs
// per second, on 1 and on 4 threads at once, in the pattern of one
// attention sample at train-deep's shapes (seq 16, hidden 64, 4 heads).
//
// Four rows time the serial work around a guarded train-deep step, on one
// thread: crc32 (GB/s over 10 MiB, slicing-by-8 and the dispatched update),
// adam_step (the scalar loop and the dispatched step over train-deep's
// model), ckpt_step (one verified 4-stage checkpoint of that model into
// in-memory storage, written from a captured TrainState and from the live
// tensors) and gelu_with_grad (against gelu + gelu_backward at 64x256).
// The crc32 row fails the run, exit code 1, when the two CRC kernels
// disagree, and the ckpt_step row when the two writes' files differ.
//
// --assert-speedup S exits non-zero unless the end-to-end fast path, and
// every GEMM row's fast kernel, is at least S times the naive throughput;
// CI runs a tiny config with S=1.0 as a smoke check, EXPERIMENTS.md records
// the >= 3x protocol.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/storage.h"
#include "common.h"
#include "core/balanced_dp.h"
#include "guard/guard.h"
#include "model/arena.h"
#include "model/data.h"
#include "model/kernels.h"
#include "model/ops.h"
#include "runtime/adam_kernels.h"
#include "runtime/optimizer.h"
#include "runtime/pipeline_runtime.h"
#include "util/checksum.h"
#include "util/cli.h"
#include "util/crc32_kernels.h"
#include "util/stats.h"

namespace {

using namespace autopipe;

double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median ms over reps runs of fn, first warming up once.
double median_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) samples.push_back(time_ms(fn));
  return util::median(samples);
}

void emit_row(const char* op, const char* shape, double naive_ms,
              double fast_ms) {
  std::printf(
      "{\"bench\":\"runtime_hotpath\",\"op\":\"%s\",\"shape\":\"%s\","
      "\"naive_ms\":%.4f,\"fast_ms\":%.4f,\"speedup\":%.2f}\n",
      op, shape, naive_ms, fast_ms, naive_ms / fast_ms);
}

/// Times fn with the fast kernels off, then on; returns {naive, fast}.
std::pair<double, double> naive_vs_fast(int reps,
                                        const std::function<void()>& fn) {
  model::set_fast_ops(false);
  const double naive = median_ms(reps, fn);
  model::set_fast_ops(true);
  const double fast = median_ms(reps, fn);
  return {naive, fast};
}

/// Times the three GEMMs of one m x k x n linear layer (matmul, and both
/// of its gradients) at the current ops thread count, one row each with
/// absolute GFLOP/s. Returns the lowest fast/naive speedup of the three.
double gemm_rows(int m, int k, int n, int reps, util::Rng& rng) {
  const model::Tensor x = model::Tensor::randn({m, k}, rng, 0.02f);
  const model::Tensor w = model::Tensor::randn({k, n}, rng, 0.02f);
  const model::Tensor dy = model::Tensor::randn({m, n}, rng, 0.02f);
  const std::pair<const char*, std::function<void()>> ops[] = {
      {"matmul", [&] { model::matmul(x, w); }},
      {"matmul_grad_a", [&] { model::matmul_grad_a(dy, w); }},
      {"matmul_grad_b", [&] { model::matmul_grad_b(x, dy); }},
  };
  const double gflop = 2.0 * m * k * n * 1e-9;
  double worst = 1e300;
  for (const auto& [op, fn] : ops) {
    const auto [naive, fast] = naive_vs_fast(reps, fn);
    std::printf(
        "{\"bench\":\"runtime_hotpath\",\"op\":\"%s\",\"shape\":\"%dx%dx%d\","
        "\"threads\":%d,\"naive_ms\":%.4f,\"fast_ms\":%.4f,\"speedup\":%.2f,"
        "\"naive_gflops\":%.2f,\"gflops\":%.2f}\n",
        op, m, k, n, model::ops_threads(), naive, fast, naive / fast,
        gflop / (naive * 1e-3), gflop / (fast * 1e-3));
    worst = std::min(worst, naive / fast);
  }
  return worst;
}

/// Arena allocate/release pairs per second (all threads together) with
/// `threads` threads each running `rounds` rounds of one attention sample's
/// temporaries at train-deep's shapes: the sample's qkv rows [16,192] and
/// context [16,64], then per head q, k, v, k^T, scores, probs and probs*v,
/// all [16,16]. Buffers are dirty, so only the arena is timed.
double arena_pairs_per_s(int threads, int rounds) {
  constexpr int kSeq = 16, kHidden = 64, kHeads = 4, kHeadTemps = 7;
  constexpr std::size_t kHeadNumel = kSeq * (kHidden / kHeads);
  constexpr int kPairsPerRound = 2 + kHeads * kHeadTemps;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int r = 0; r < rounds; ++r) {
        model::ArenaBuffer qkv(kSeq * 3 * kHidden, /*zeroed=*/false);
        model::ArenaBuffer ctx(kSeq * kHidden, /*zeroed=*/false);
        for (int h = 0; h < kHeads; ++h) {
          std::array<model::ArenaBuffer, kHeadTemps> temps;
          for (auto& buf : temps) {
            buf = model::ArenaBuffer(kHeadNumel, /*zeroed=*/false);
          }
        }
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const double ms = time_ms([&] {
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
  });
  return static_cast<double>(threads) * rounds * kPairsPerRound /
         (ms * 1e-3);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  model::TinySpec spec;
  spec.hidden = cli.checked_int("hidden", 128, 8, 4096);
  spec.heads = cli.checked_int("heads", 4, 1, 64);
  spec.seq = cli.checked_int("seq", 16, 2, 4096);
  spec.vocab = cli.checked_int("vocab", 256, 4, 65536);
  spec.layers = cli.checked_int("layers", 4, 1, 64);
  const int stages = cli.checked_int("stages", 2, 1, 16);
  const int m = cli.checked_int("micro-batches", 8, 1, 64);
  const int iters = cli.checked_int("iters", 5, 1, 1000);
  const int reps = cli.checked_int("reps", 5, 1, 100);
  const int B = cli.checked_int("micro-batch", 4, 1, 64);
  const double assert_speedup =
      cli.checked_double("assert-speedup", 0.0, 0.0, 100.0);
  const int threads = cli.checked_int("threads", 0, 0, 256);
  model::set_ops_threads(threads);

  bench::emit_metadata("runtime_hotpath");

  // --------------------------------------------------------- op sweep
  // The trainer's dominant GEMM shapes: tokens x hidden activations against
  // hidden x 4*hidden MLP weights, plus the vocab projection.
  const int tokens = B * spec.seq;
  util::Rng rng(42);
  char shape[64];
  double gemm_speedup = gemm_rows(tokens, spec.hidden, 4 * spec.hidden, reps,
                                  rng);
  // train-deep's three linear shapes (FFN up, FFN down, fused QKV) on the
  // one ops thread it runs with.
  model::set_ops_threads(1);
  for (const auto& [mm, kk, nn] :
       {std::array{64, 64, 256}, std::array{64, 256, 64},
        std::array{64, 64, 192}}) {
    gemm_speedup = std::min(gemm_speedup, gemm_rows(mm, kk, nn, reps, rng));
  }
  model::set_ops_threads(threads);
  {
    const model::Tensor x =
        model::Tensor::randn({tokens, spec.hidden}, rng, 0.02f);
    const model::Tensor w =
        model::Tensor::randn({spec.hidden, 4 * spec.hidden}, rng, 0.02f);
    const model::Tensor dy =
        model::Tensor::randn({tokens, 4 * spec.hidden}, rng, 0.02f);
    std::snprintf(shape, sizeof(shape), "%dx%dx%d", tokens, spec.hidden,
                  4 * spec.hidden);
    const model::Tensor bias = model::Tensor::randn({4 * spec.hidden}, rng);
    auto [n3, f3] =
        naive_vs_fast(reps, [&] { model::linear(x, w, bias); });
    emit_row("linear", shape, n3, f3);
    auto [n4, f4] =
        naive_vs_fast(reps, [&] { model::linear_backward(x, w, dy); });
    emit_row("linear_backward", shape, n4, f4);
  }
  {
    const model::Tensor x =
        model::Tensor::randn({tokens, 4 * spec.hidden}, rng, 0.02f);
    std::snprintf(shape, sizeof(shape), "%dx%d", tokens, 4 * spec.hidden);
    auto [n0, f0] = naive_vs_fast(reps, [&] { model::gelu(x); });
    emit_row("gelu", shape, n0, f0);
    auto [n1, f1] =
        naive_vs_fast(reps, [&] { model::gelu_backward(x, x); });
    emit_row("gelu_backward", shape, n1, f1);
  }
  {
    const model::Tensor x =
        model::Tensor::randn({tokens, spec.hidden}, rng, 0.02f);
    const model::Tensor gamma = model::Tensor::full({spec.hidden}, 1.0f);
    const model::Tensor beta = model::Tensor({spec.hidden});
    std::snprintf(shape, sizeof(shape), "%dx%d", tokens, spec.hidden);
    model::LayerNormCache cache;
    auto [n0, f0] = naive_vs_fast(
        reps, [&] { model::layernorm(x, gamma, beta, &cache); });
    emit_row("layernorm", shape, n0, f0);
    model::layernorm(x, gamma, beta, &cache);
    auto [n1, f1] = naive_vs_fast(
        reps, [&] { model::layernorm_backward(cache, gamma, x); });
    emit_row("layernorm_backward", shape, n1, f1);
  }
  {
    const model::Tensor logits =
        model::Tensor::randn({tokens, spec.vocab}, rng, 0.5f);
    std::snprintf(shape, sizeof(shape), "%dx%d", tokens, spec.vocab);
    auto [n0, f0] =
        naive_vs_fast(reps, [&] { model::softmax_rows(logits); });
    emit_row("softmax_rows", shape, n0, f0);
    const model::Tensor probs = model::softmax_rows(logits);
    auto [n1, f1] = naive_vs_fast(
        reps, [&] { model::softmax_backward(probs, logits); });
    emit_row("softmax_backward", shape, n1, f1);
    std::vector<int> targets(tokens, 1);
    model::Tensor dlogits;
    auto [n2, f2] = naive_vs_fast(reps, [&] {
      model::cross_entropy(logits, targets, 1.0 / tokens, &dlogits);
    });
    emit_row("cross_entropy", shape, n2, f2);
  }

  // ------------------------------------------------- end-to-end trainer
  // Whole pipelined training iterations (forward + backward + Adam) on the
  // same model/partition/data, naive ops vs fast ops.
  model::TransformerModel net(spec);
  const std::vector<int> counts =
      core::balanced_counts(std::vector<double>(net.num_blocks(), 1.0),
                            stages);
  runtime::PipelineRuntime rt(net, counts);
  const auto schedule =
      rt.make_schedule(costmodel::ScheduleKind::OneFOneB, m, 0);
  model::SyntheticCorpus corpus(spec.vocab);
  const double scale = 1.0 / (B * m * spec.seq);
  runtime::Adam adam(3e-3);
  const auto iteration = [&] {
    const auto batch = corpus.next_batch(B * m, spec.seq);
    const auto micro =
        model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
    net.zero_grads();
    rt.run_iteration(schedule, micro, scale);
    adam.step(net);
  };
  const auto run_iters = [&] {
    for (int i = 0; i < iters; ++i) iteration();
  };

  model::set_fast_ops(false);
  const double naive_ms = median_ms(reps, run_iters) / iters;
  model::set_fast_ops(true);
  const double fast_ms = median_ms(reps, run_iters) / iters;
  const double speedup = naive_ms / fast_ms;
  const auto arena = model::Arena::global().stats();
  std::printf(
      "{\"bench\":\"runtime_hotpath\",\"op\":\"train_iteration\","
      "\"shape\":\"h%d_s%d_v%d_l%d_st%d_m%d\",\"naive_ms\":%.3f,"
      "\"fast_ms\":%.3f,\"speedup\":%.2f,\"arena_hits\":%llu,"
      "\"arena_misses\":%llu,\"arena_high_water_mb\":%.1f,"
      "\"tensor_copies\":%llu}\n",
      spec.hidden, spec.seq, spec.vocab, spec.layers, stages, m, naive_ms,
      fast_ms, speedup, static_cast<unsigned long long>(arena.hits),
      static_cast<unsigned long long>(arena.misses),
      arena.high_water_bytes / (1024.0 * 1024.0),
      static_cast<unsigned long long>(model::ArenaBuffer::copy_count()));

  // ------------------------------------------------------ arena churn
  // After the trainer, so its arena counts above cover the trainer alone.
  for (const int churn_threads : {1, 4}) {
    constexpr int kRounds = 20000;
    std::vector<double> rates;
    for (int r = 0; r < reps; ++r) {
      rates.push_back(arena_pairs_per_s(churn_threads, kRounds));
    }
    const double rate = util::median(rates);
    std::printf(
        "{\"bench\":\"runtime_hotpath\",\"op\":\"arena_churn\","
        "\"shape\":\"train-deep attention sample\",\"threads\":%d,"
        "\"pairs_per_s\":%.4g,\"pairs_per_s_per_thread\":%.4g}\n",
        churn_threads, rate, rate / churn_threads);
  }

  // ------------------------------------------------ guarded-step tail
  // The serial work train-deep does around each iteration: CRC32 over the
  // weights and optimizer state, Adam, and the FFN recompute's GELU. After
  // the trainer, so its arena and copy counts cover the trainer alone.
  model::set_ops_threads(1);
  bool crc_agrees = true;
  bool ckpt_agrees = true;
  {
    // Both CRC kernels on one 10 MiB buffer. The dispatched update must
    // give slicing-by-8's value: a disagreement fails the run whatever
    // the timing.
    std::vector<unsigned char> buf(10u << 20);
    for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
    std::uint32_t table = 0, fast = 0;
    const double table_ms = median_ms(reps, [&] {
      table = util::crc32_kernels::slice8(0xFFFFFFFFu, buf.data(), buf.size());
    });
    const double fast_ms = median_ms(reps, [&] {
      util::Crc32 crc;
      crc.update(buf.data(), buf.size());
      fast = crc.value() ^ 0xFFFFFFFFu;
    });
    crc_agrees = table == fast;
    const double gb = static_cast<double>(buf.size()) * 1e-9;
    std::printf(
        "{\"bench\":\"runtime_hotpath\",\"op\":\"crc32\",\"shape\":\"10MiB\","
        "\"kernel\":\"%s\",\"slice8_ms\":%.4f,\"fast_ms\":%.4f,"
        "\"slice8_gbps\":%.2f,\"gbps\":%.2f,\"agree\":%s}\n",
        util::crc32_kernels::pclmul_supported() ? "pclmul" : "slice8",
        table_ms, fast_ms, gb / (table_ms * 1e-3), gb / (fast_ms * 1e-3),
        crc_agrees ? "true" : "false");
  }
  {
    // Adam over train-deep's model (16 layers, hidden 64, vocab 256):
    // the scalar loop against the dispatched step.
    const model::TinySpec deep{16, 64, 4, 256, 16, true, 1};
    model::TransformerModel deep_net(deep);
    std::size_t params = 0;
    for (int b = 0; b < deep_net.num_blocks(); ++b) {
      for (auto& p : deep_net.block(b).params()) {
        for (std::size_t i = 0; i < p.grad.numel(); ++i) {
          p.grad.at(i) = static_cast<float>(rng.uniform(-1e-2, 1e-2));
        }
        params += p.value.numel();
      }
    }
    runtime::Adam adam_deep(3e-3);
    adam_deep.step(deep_net);  // sizes the moments
    const runtime::adam_kernels::AdamStep k{0.9, 0.999, 0.1, 0.001, 3e-3,
                                            1e-8};
    runtime::AdamState moments = adam_deep.state();
    const double scalar_ms = median_ms(reps, [&] {
      std::size_t slot = 0;
      for (int b = 0; b < deep_net.num_blocks(); ++b) {
        for (auto& p : deep_net.block(b).params()) {
          runtime::adam_kernels::adam_update(
              k, p.grad.data(), moments.m[slot].data(),
              moments.v[slot].data(), p.value.data(), p.value.numel());
          ++slot;
        }
      }
    });
    const double fast_ms = median_ms(reps, [&] { adam_deep.step(deep_net); });
    std::printf(
        "{\"bench\":\"runtime_hotpath\",\"op\":\"adam_step\","
        "\"shape\":\"train-deep %zu params\",\"kernel\":\"%s\","
        "\"scalar_ms\":%.4f,\"fast_ms\":%.4f,\"speedup\":%.2f}\n",
        params, model::kernels::avx2_supported() ? "avx2" : "scalar",
        scalar_ms, fast_ms, scalar_ms / fast_ms);

    // One train-deep checkpoint (its 4-stage partition, verified stamp),
    // rewritten at the same step: write(capture()) against the live write.
    // Both must leave the same files, byte for byte.
    const std::vector<int> deep_counts = {9, 8, 9, 8};
    const int kind = static_cast<int>(costmodel::ScheduleKind::AutoPipeSliced);
    const util::Rng::State data_rng = rng.state();
    const std::uint32_t crc =
        guard::weight_crc(deep_net, adam_deep.m(), adam_deep.v());
    ckpt::MemStorage captured_mem, live_mem;
    ckpt::CheckpointWriter captured_writer(captured_mem, "ck", {1});
    ckpt::CheckpointWriter live_writer(live_mem, "ck", {1});
    std::string dir;
    const double captured_ms = median_ms(reps, [&] {
      dir = captured_writer.write(
          ckpt::capture_train_state(deep_net, adam_deep, data_rng, 1,
                                    deep_counts, kind),
          &crc);
    });
    const double live_ms = median_ms(reps, [&] {
      live_writer.write(ckpt::live_view(deep_net, adam_deep, data_rng, 1,
                                        deep_counts, kind),
                        &crc);
    });
    const std::vector<std::string> names = captured_mem.list_dir(dir);
    ckpt_agrees = names == live_mem.list_dir(dir);
    std::size_t bytes = 0;
    for (const std::string& name : names) {
      const std::string captured = captured_mem.read_file(dir + "/" + name);
      bytes += captured.size();
      ckpt_agrees =
          ckpt_agrees && live_mem.read_file(dir + "/" + name) == captured;
    }
    std::printf(
        "{\"bench\":\"runtime_hotpath\",\"op\":\"ckpt_step\","
        "\"shape\":\"train-deep %zu params, 4 stages\","
        "\"captured_write_ms\":%.4f,\"live_write_ms\":%.4f,"
        "\"speedup\":%.2f,\"bytes\":%zu,\"agree\":%s}\n",
        params, captured_ms, live_ms, captured_ms / live_ms, bytes,
        ckpt_agrees ? "true" : "false");
  }
  {
    // The FFN recompute's activation and gradient at train-deep's shape:
    // gelu + gelu_backward (two tanh passes) against gelu_with_grad and
    // the product with dy (one).
    const model::Tensor x = model::Tensor::randn({64, 256}, rng, 1.0f);
    const model::Tensor dy = model::Tensor::randn({64, 256}, rng, 0.02f);
    const double two_pass_ms = median_ms(reps, [&] {
      model::gelu(x);
      model::gelu_backward(x, dy);
    });
    const double fused_ms = median_ms(reps, [&] {
      model::Tensor grad;
      model::gelu_with_grad(x, &grad);
      model::Tensor dx = dy;
      dx.mul_(grad);
    });
    std::printf(
        "{\"bench\":\"runtime_hotpath\",\"op\":\"gelu_with_grad\","
        "\"shape\":\"64x256\",\"two_pass_ms\":%.4f,\"fast_ms\":%.4f,"
        "\"speedup\":%.2f}\n",
        two_pass_ms, fused_ms, two_pass_ms / fused_ms);
  }

  if (!crc_agrees) {
    std::fprintf(stderr,
                 "FAIL: dispatched CRC32 disagrees with slicing-by-8\n");
    return 1;
  }
  if (!ckpt_agrees) {
    std::fprintf(stderr,
                 "FAIL: the live checkpoint write's files differ from "
                 "write(capture())'s\n");
    return 1;
  }
  if (assert_speedup > 0 && speedup < assert_speedup) {
    std::fprintf(stderr,
                 "FAIL: end-to-end speedup %.2fx below required %.2fx\n",
                 speedup, assert_speedup);
    return 1;
  }
  if (assert_speedup > 0 && gemm_speedup < assert_speedup) {
    std::fprintf(stderr,
                 "FAIL: slowest GEMM row's speedup %.2fx below required "
                 "%.2fx\n",
                 gemm_speedup, assert_speedup);
    return 1;
  }
  return 0;
}
