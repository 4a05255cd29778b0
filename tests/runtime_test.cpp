#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "faults/fault_plan.h"
#include "model/data.h"
#include "model/kernels.h"
#include "runtime/adam_kernels.h"
#include "runtime/channel.h"
#include "runtime/optimizer.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/stage_worker.h"

namespace autopipe::runtime {
namespace {

// ---------------------------------------------------------------- channel

TEST(Channel, TagMatchedRendezvous) {
  Channel ch;
  ch.send({core::OpType::Forward, 2, -1}, model::Tensor::full({1, 1}, 7.0f));
  ch.send({core::OpType::Forward, 1, -1}, model::Tensor::full({1, 1}, 5.0f));
  // Receive out of send order: tags select the message.
  EXPECT_FLOAT_EQ(ch.recv({core::OpType::Forward, 1, -1}).at(0), 5.0f);
  EXPECT_FLOAT_EQ(ch.recv({core::OpType::Forward, 2, -1}).at(0), 7.0f);
  EXPECT_EQ(ch.pending(), 0u);
}

TEST(Channel, HalvesAndTypesAreDistinctTags) {
  Channel ch;
  ch.send({core::OpType::Forward, 0, 0}, model::Tensor::full({1, 1}, 1.0f));
  ch.send({core::OpType::Forward, 0, 1}, model::Tensor::full({1, 1}, 2.0f));
  ch.send({core::OpType::Backward, 0, 0}, model::Tensor::full({1, 1}, 3.0f));
  EXPECT_EQ(ch.pending(), 3u);
  EXPECT_FLOAT_EQ(ch.recv({core::OpType::Backward, 0, 0}).at(0), 3.0f);
  EXPECT_FLOAT_EQ(ch.recv({core::OpType::Forward, 0, 1}).at(0), 2.0f);
  EXPECT_FLOAT_EQ(ch.recv({core::OpType::Forward, 0, 0}).at(0), 1.0f);
}

TEST(Channel, DuplicateSendIsAnError) {
  Channel ch;
  ch.send({core::OpType::Forward, 0, -1}, model::Tensor({1, 1}));
  EXPECT_THROW(ch.send({core::OpType::Forward, 0, -1}, model::Tensor({1, 1})),
               std::logic_error);
}

TEST(Channel, RecvBlocksUntilSend) {
  Channel ch;
  std::thread producer([&ch] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.send({core::OpType::Forward, 0, -1},
            model::Tensor::full({1, 1}, 9.0f));
  });
  EXPECT_FLOAT_EQ(ch.recv({core::OpType::Forward, 0, -1}).at(0), 9.0f);
  producer.join();
}

TEST(Channel, CloseWakesBlockedReceiver) {
  // The old recv would block forever on a dead peer; close() must wake it
  // with a typed failure instead.
  Channel ch;
  std::thread closer([&ch] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.close("device 1 died");
  });
  try {
    ch.recv({core::OpType::Forward, 0, -1});
    FAIL() << "recv returned from a closed, empty channel";
  } catch (const StageFailure& e) {
    EXPECT_EQ(e.kind(), FailureKind::PeerClosed);
    EXPECT_NE(std::string(e.what()).find("device 1 died"), std::string::npos);
  }
  closer.join();
}

TEST(Channel, RecvForTimesOutAsTypedFailure) {
  Channel ch;
  try {
    ch.recv_for({core::OpType::Forward, 0, -1}, 30.0);
    FAIL() << "recv_for returned without a message";
  } catch (const StageFailure& e) {
    EXPECT_EQ(e.kind(), FailureKind::Timeout);
  }
}

TEST(Channel, RecvForDeliversWithinDeadline) {
  Channel ch;
  std::thread producer([&ch] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.send({core::OpType::Backward, 3, -1},
            model::Tensor::full({1, 1}, 4.0f));
  });
  EXPECT_FLOAT_EQ(ch.recv_for({core::OpType::Backward, 3, -1}, 5000.0).at(0),
                  4.0f);
  producer.join();
}

TEST(Channel, CloseDropsMessagesAndPoisons) {
  Channel ch;
  ch.send({core::OpType::Forward, 0, -1}, model::Tensor({1, 1}));
  ch.send({core::OpType::Forward, 1, -1}, model::Tensor({1, 1}));
  ch.close("first reason");
  ch.close("second reason ignored");  // idempotent, first reason wins
  EXPECT_TRUE(ch.closed());
  EXPECT_EQ(ch.close_reason(), "first reason");
  EXPECT_EQ(ch.pending(), 0u);  // leak check stays meaningful after close
  EXPECT_THROW(ch.send({core::OpType::Forward, 2, -1}, model::Tensor({1, 1})),
               StageFailure);
  EXPECT_THROW(ch.recv({core::OpType::Forward, 0, -1}), StageFailure);
  EXPECT_THROW(ch.recv_for({core::OpType::Forward, 0, -1}, 1000.0),
               StageFailure);
}

// ------------------------------------------------------------ slice_half

TEST(SliceHalf, SplitsSamplesNotTokens) {
  model::Batch whole;
  const int seq = 3, samples = 4;
  whole.ids = model::Tensor({samples * seq, 1});
  whole.targets.resize(samples * seq);
  for (int i = 0; i < samples * seq; ++i) {
    whole.ids.data()[i] = static_cast<float>(i);
    whole.targets[i] = i;
  }
  const auto h0 = slice_half(whole, seq, 0);
  const auto h1 = slice_half(whole, seq, 1);
  EXPECT_EQ(h0.ids.dim(0), 2 * seq);
  EXPECT_EQ(h1.ids.dim(0), 2 * seq);
  EXPECT_FLOAT_EQ(h1.ids.at(0), 2 * seq);
  EXPECT_EQ(h1.targets.front(), 2 * seq);
  const auto whole_again = slice_half(whole, seq, -1);
  EXPECT_EQ(whole_again.ids.dim(0), samples * seq);
  model::Batch tiny;
  tiny.ids = model::Tensor({seq, 1});
  EXPECT_THROW(slice_half(tiny, seq, 0), std::invalid_argument);
}

// -------------------------------------------------- gradient equivalence

struct EquivalenceCase {
  costmodel::ScheduleKind kind;
  std::vector<int> counts;  // blocks per stage (model has 8 blocks)
  int micro_batches;
  int sliced;
};

// Names each instance by its value ("2-3-3 m6 s0 1F1B") instead of gtest's
// byte dump, which holds the counts vector's heap pointers. The schedule
// comes last so that a name cut short still tells the cases apart.
void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  for (std::size_t i = 0; i < c.counts.size(); ++i) {
    *os << (i == 0 ? "" : "-") << c.counts[i];
  }
  *os << " m" << c.micro_batches << " s" << c.sliced << ' '
      << costmodel::to_string(c.kind);
}

class GradientEquivalence : public testing::TestWithParam<EquivalenceCase> {
 protected:
  static model::TinySpec spec() {
    model::TinySpec s;
    s.layers = 3;  // 8 blocks
    s.hidden = 16;
    s.heads = 2;
    s.vocab = 32;
    s.seq = 4;
    return s;
  }
};

TEST_P(GradientEquivalence, PipelinedGradsMatchReference) {
  const auto& param = GetParam();
  model::TransformerModel ref(spec()), piped(spec());

  model::SyntheticCorpus corpus(spec().vocab);
  const int B = 4;
  const int m = param.micro_batches;
  const auto batch = corpus.next_batch(B * m, spec().seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec().seq, B);
  const double scale = 1.0 / (B * m * spec().seq);

  ref.zero_grads();
  const double ref_loss = ref.reference_step(batch.ids, batch.targets, scale);

  PipelineRuntime rt(piped, param.counts);
  piped.zero_grads();
  const auto schedule = rt.make_schedule(param.kind, m, param.sliced);
  const auto result = rt.run_iteration(schedule, micro, scale);

  // The consistency property of §II-B: distributed pipeline == single
  // machine, for loss and every parameter gradient.
  EXPECT_NEAR(result.loss, ref_loss, 1e-5);
  EXPECT_LT(ref.max_grad_diff(piped), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    SchedulesAndPartitions, GradientEquivalence,
    testing::Values(
        EquivalenceCase{costmodel::ScheduleKind::OneFOneB, {2, 3, 3}, 6, 0},
        EquivalenceCase{costmodel::ScheduleKind::OneFOneB, {4, 4}, 4, 0},
        EquivalenceCase{costmodel::ScheduleKind::OneFOneB, {1, 2, 2, 3}, 8, 0},
        EquivalenceCase{costmodel::ScheduleKind::OneFOneB, {8}, 3, 0},
        EquivalenceCase{
            costmodel::ScheduleKind::AutoPipeSliced, {2, 3, 3}, 6, 1},
        EquivalenceCase{
            costmodel::ScheduleKind::AutoPipeSliced, {2, 3, 3}, 6, 2},
        EquivalenceCase{
            costmodel::ScheduleKind::AutoPipeSliced, {1, 2, 2, 3}, 4, 3},
        EquivalenceCase{costmodel::ScheduleKind::GPipe, {2, 3, 3}, 6, 0},
        EquivalenceCase{costmodel::ScheduleKind::GPipe, {4, 4}, 2, 0},
        EquivalenceCase{costmodel::ScheduleKind::ZeroBubble, {2, 3, 3}, 6, 0},
        EquivalenceCase{costmodel::ScheduleKind::ZeroBubble, {4, 4}, 4, 0},
        EquivalenceCase{
            costmodel::ScheduleKind::ZeroBubble, {1, 2, 2, 3}, 8, 0}));

TEST(Runtime, NoRecomputeModeMatchesReference) {
  // Disabling activation checkpointing (§II-C's other side of the
  // tradeoff) must not change the gradients.
  model::TinySpec spec;
  spec.layers = 3;
  spec.hidden = 16;
  spec.heads = 2;
  spec.vocab = 32;
  spec.seq = 4;
  model::TransformerModel ref(spec), piped(spec);
  model::SyntheticCorpus corpus(spec.vocab);
  const int B = 4, m = 6;
  const auto batch = corpus.next_batch(B * m, spec.seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
  const double scale = 1.0 / (B * m * spec.seq);
  ref.zero_grads();
  const double ref_loss = ref.reference_step(batch.ids, batch.targets, scale);
  PipelineRuntime rt(piped, {2, 3, 3});
  piped.zero_grads();
  const auto schedule =
      rt.make_schedule(costmodel::ScheduleKind::OneFOneB, m);
  RunOptions run;
  run.recompute = false;
  const auto result = rt.run_iteration(schedule, micro, scale, run);
  EXPECT_NEAR(result.loss, ref_loss, 1e-5);
  EXPECT_LT(ref.max_grad_diff(piped), 1e-4);
}

TEST(Runtime, InterleavedScheduleMatchesReference) {
  // Megatron-LM's interleaved 1F1B on real blocks: 2 devices x 2 chunks
  // over an 8-block model; gradients must still equal the single-process
  // reference (and the wrap-around channel from device 1 chunk 0 to
  // device 0 chunk 1 must route correctly).
  model::TinySpec spec;
  spec.layers = 3;  // 8 blocks
  spec.hidden = 16;
  spec.heads = 2;
  spec.vocab = 32;
  spec.seq = 4;
  model::TransformerModel ref(spec), piped(spec);

  model::SyntheticCorpus corpus(spec.vocab);
  const int B = 4, m = 4;
  const auto batch = corpus.next_batch(B * m, spec.seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
  const double scale = 1.0 / (B * m * spec.seq);

  ref.zero_grads();
  const double ref_loss = ref.reference_step(batch.ids, batch.targets, scale);

  PipelineRuntime rt(piped, {2, 2, 2, 2}, /*chunks=*/2);
  EXPECT_EQ(rt.num_devices(), 2);
  piped.zero_grads();
  const auto schedule =
      rt.make_schedule(costmodel::ScheduleKind::Interleaved, m);
  const auto result = rt.run_iteration(schedule, micro, scale);
  EXPECT_NEAR(result.loss, ref_loss, 1e-5);
  EXPECT_LT(ref.max_grad_diff(piped), 1e-4);
}

TEST(Runtime, InterleavedFourDevicesTwoChunks) {
  model::TinySpec spec;
  spec.layers = 7;  // 16 blocks -> 8 global stages of 2 blocks
  spec.hidden = 8;
  spec.heads = 2;
  spec.vocab = 16;
  spec.seq = 4;
  model::TransformerModel ref(spec), piped(spec);
  model::SyntheticCorpus corpus(spec.vocab);
  const int B = 2, m = 8;
  const auto batch = corpus.next_batch(B * m, spec.seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
  const double scale = 1.0 / (B * m * spec.seq);
  ref.zero_grads();
  const double ref_loss = ref.reference_step(batch.ids, batch.targets, scale);
  PipelineRuntime rt(piped, std::vector<int>(8, 2), /*chunks=*/2);
  piped.zero_grads();
  const auto result = rt.run_iteration(
      rt.make_schedule(costmodel::ScheduleKind::Interleaved, m), micro, scale);
  EXPECT_NEAR(result.loss, ref_loss, 1e-5);
  EXPECT_LT(ref.max_grad_diff(piped), 1e-4);
}

TEST(Runtime, InterleavedRejectsBadShapes) {
  model::TinySpec spec;  // 2 layers -> 6 blocks
  model::TransformerModel m(spec);
  // devices*chunks must divide the global stage list.
  EXPECT_THROW(PipelineRuntime(m, {2, 2, 2}, 2), std::invalid_argument);
  PipelineRuntime rt(m, {2, 1, 1, 2}, 2);
  // Interleaved needs micro_batches % devices == 0.
  EXPECT_THROW(rt.make_schedule(costmodel::ScheduleKind::Interleaved, 3),
               std::invalid_argument);
}

TEST(Runtime, LossDecreasesUnderTraining) {
  model::TinySpec spec;
  spec.layers = 2;
  spec.hidden = 16;
  spec.heads = 2;
  spec.vocab = 24;
  spec.seq = 4;
  model::TransformerModel m(spec);
  PipelineRuntime rt(m, {3, 3});
  model::SyntheticCorpus corpus(spec.vocab);
  const int B = 4, micro_count = 4;
  const double scale = 1.0 / (B * micro_count * spec.seq);
  const auto schedule =
      rt.make_schedule(costmodel::ScheduleKind::AutoPipeSliced, micro_count, 1);
  Adam adam(3e-3);
  double first = 0, last = 0;
  for (int it = 0; it < 12; ++it) {
    const auto batch = corpus.next_batch(B * micro_count, spec.seq);
    const auto micro =
        model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);
    m.zero_grads();
    const auto r = rt.run_iteration(schedule, micro, scale);
    adam.step(m);
    if (it == 0) first = r.loss;
    last = r.loss;
  }
  EXPECT_LT(last, first * 0.97);
}

TEST(Runtime, SgdAndAdamMoveParameters) {
  model::TinySpec spec;
  model::TransformerModel m(spec);
  model::SyntheticCorpus corpus(spec.vocab);
  const auto batch = corpus.next_batch(2, spec.seq);
  m.zero_grads();
  m.reference_step(batch.ids, batch.targets, 1.0 / (2 * spec.seq));
  const float before = m.block(1).params()[2].value.at(0);
  Sgd sgd(0.1);
  sgd.step(m);
  const float after_sgd = m.block(1).params()[2].value.at(0);
  EXPECT_NE(before, after_sgd);
  Adam adam(0.01);
  adam.step(m);
  EXPECT_NE(after_sgd, m.block(1).params()[2].value.at(0));
}

TEST(Runtime, Avx2AdamLanesMatchScalarLoop) {
  if (!model::kernels::avx2_supported()) GTEST_SKIP() << "CPU has no AVX2";
  // Zeros, subnormals, tiny normals, huge grads (g*g overflows float) and
  // non-finite values, mixed into seeded ordinary ones.
  const std::vector<float> specials = {
      0.0f,   -0.0f,   0x1p-149f, -0x1.8p-130f, 0x1p-126f,
      1e30f,  -3e38f,  std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN()};
  util::Rng rng(53);
  auto pick = [&](float scale) {
    return rng.uniform(0.0, 1.0) < 0.2
               ? specials[rng.next_u64() % specials.size()]
               : static_cast<float>(rng.uniform(-scale, scale));
  };
  auto same = [](const std::vector<float>& a, const std::vector<float>& b) {
    // Empty vectors may hold null data(), which memcmp must not see.
    if (a.empty()) return true;
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  for (const std::size_t n : {0, 1, 3, 4, 5, 7, 8, 9, 31, 33, 1001}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    std::vector<float> grad(n), m(n), v(n), value(n);
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = pick(1e-2f);
      m[i] = pick(1e-3f);
      v[i] = std::fabs(pick(1e-5f));
      value[i] = pick(1.0f);
    }
    std::vector<float> m2 = m, v2 = v, value2 = value;
    for (const long t : {1L, 2L, 1000L}) {
      const adam_kernels::AdamStep k{0.9, 0.999, 1.0 - std::pow(0.9, t),
                                     1.0 - std::pow(0.999, t), 3e-3, 1e-8};
      adam_kernels::adam_update(k, grad.data(), m.data(), v.data(),
                                value.data(), n);
      adam_kernels::avx2_adam_update(k, grad.data(), m2.data(), v2.data(),
                                     value2.data(), n);
      ASSERT_TRUE(same(m, m2)) << "m after t=" << t;
      ASSERT_TRUE(same(v, v2)) << "v after t=" << t;
      ASSERT_TRUE(same(value, value2)) << "value after t=" << t;
    }
  }
}

TEST(Runtime, RejectsMismatchedConfigs) {
  model::TinySpec spec;  // 2 layers -> 6 blocks
  model::TransformerModel m(spec);
  EXPECT_THROW(PipelineRuntime(m, {2, 2}), std::invalid_argument);
  EXPECT_THROW(PipelineRuntime(m, {6, 0}), std::invalid_argument);
  PipelineRuntime rt(m, {3, 3});
  const auto schedule =
      rt.make_schedule(costmodel::ScheduleKind::OneFOneB, 4, 0);
  model::SyntheticCorpus corpus(spec.vocab);
  const auto batch = corpus.next_batch(8, spec.seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec.seq, 2);
  // 4 micro-batches expected, give 2.
  const std::vector<model::Batch> wrong(micro.begin(), micro.begin() + 2);
  EXPECT_THROW(rt.run_iteration(schedule, wrong, 1.0), std::invalid_argument);
}

TEST(Runtime, WorkerDeathNeverDeadlocksPeers) {
  // Regression guard for the recv deadlock: before close/poison semantics,
  // a dead stage left its neighbours blocked in recv forever. The whole
  // faulted iteration must now finish -- by throwing StageFailure -- well
  // inside the 5 s watchdog.
  model::TinySpec spec;
  spec.layers = 3;
  spec.hidden = 16;
  spec.heads = 2;
  spec.vocab = 32;
  spec.seq = 4;
  model::TransformerModel m(spec);
  model::SyntheticCorpus corpus(spec.vocab);
  const int B = 4, mbatches = 6;
  const auto batch = corpus.next_batch(B * mbatches, spec.seq);
  const auto micro =
      model::SyntheticCorpus::split_micro_batches(batch, spec.seq, B);

  faults::FaultPlan plan;
  faults::DeviceCrash crash;
  crash.device = 1;
  crash.after_ops = 3;
  plan.crashes.push_back(crash);

  auto attempt = std::async(std::launch::async, [&] {
    PipelineRuntime rt(m, {2, 3, 3});
    m.zero_grads();
    const auto schedule =
        rt.make_schedule(costmodel::ScheduleKind::OneFOneB, mbatches);
    RunOptions run;
    run.faults = &plan;
    rt.run_iteration(schedule, micro, 1.0 / (B * mbatches * spec.seq), run);
  });
  ASSERT_EQ(attempt.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "faulted iteration deadlocked (recv never woke)";
  try {
    attempt.get();
    FAIL() << "crashed iteration reported success";
  } catch (const StageFailure& e) {
    EXPECT_EQ(e.kind(), FailureKind::Crash);
    EXPECT_EQ(e.device(), 1);
  }
}

TEST(Runtime, CorpusIsLearnableAndDeterministic) {
  model::SyntheticCorpus a(32, 5), b(32, 5);
  const auto ba = a.next_batch(2, 6);
  const auto bb = b.next_batch(2, 6);
  EXPECT_DOUBLE_EQ(model::max_abs_diff(ba.ids, bb.ids), 0.0);
  EXPECT_EQ(ba.targets, bb.targets);
  EXPECT_THROW(model::SyntheticCorpus::split_micro_batches(ba, 6, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace autopipe::runtime
