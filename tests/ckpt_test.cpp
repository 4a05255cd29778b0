#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/storage.h"
#include "core/resume.h"
#include "costmodel/analytic.h"
#include "faults/storage_faults.h"
#include "guard/guard.h"
#include "model/transformer.h"
#include "runtime/train_session.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace autopipe::ckpt {
namespace {

/// Same CPU-scale transformer the fault lab trains: 3 layers -> 8 blocks,
/// enough for a 3-stage pipeline with room to reshard onto 2 or 4.
model::TinySpec tiny_spec() {
  model::TinySpec s;
  s.layers = 3;
  s.hidden = 16;
  s.heads = 2;
  s.vocab = 32;
  s.seq = 4;
  return s;
}

costmodel::ModelConfig tiny_config() {
  const model::TinySpec t = tiny_spec();
  costmodel::ModelSpec spec;
  spec.name = "tiny";
  spec.num_layers = t.layers;
  spec.hidden = t.hidden;
  spec.heads = t.heads;
  spec.vocab = t.vocab;
  spec.default_seq = t.seq;
  spec.causal = t.causal;
  return costmodel::build_model_config(spec, {4, 0, true});
}

/// A deterministic TrainState without running the runtime: fresh model
/// init, no optimizer state yet, a seeded data RNG.
TrainState synthetic_state(int step, const std::vector<int>& counts = {2, 3,
                                                                       3}) {
  model::TransformerModel model(tiny_spec());
  util::Rng rng(0x5eedULL + static_cast<std::uint64_t>(step));
  return capture_train_state(model, {}, rng.state(), step, counts, 0);
}

TEST(CkptFormat, StepDirNameIsZeroPadded) {
  EXPECT_EQ(step_dir_name(12), "step-00000012");
  EXPECT_EQ(step_dir_name(0), "step-00000000");
}

TEST(CkptStorage, MemStorageAtomicWriteAndList) {
  MemStorage mem;
  mem.create_dirs("ck/step-00000001");
  atomic_write(mem, "ck/step-00000001/MANIFEST", "hello");
  EXPECT_EQ(mem.read_file("ck/step-00000001/MANIFEST"), "hello");
  EXPECT_FALSE(mem.has_file("ck/step-00000001/MANIFEST.tmp"));
  const auto names = mem.list_dir("ck/step-00000001");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "MANIFEST");
  EXPECT_THROW(mem.read_file("ck/absent"), StorageError);
}

TEST(CkptRoundTrip, MemStorage) {
  MemStorage mem;
  CheckpointWriter writer(mem, "ck");
  const TrainState state = synthetic_state(3);
  writer.write(state);

  CheckpointReader reader(mem, "ck");
  const RestoreResult restored = reader.restore();
  EXPECT_EQ(restored.state, state);
  ASSERT_FALSE(restored.candidates.empty());
  EXPECT_TRUE(restored.candidates.back().valid);
}

TEST(CkptRoundTrip, PosixStorage) {
  PosixStorage posix;
  const std::string dir = testing::TempDir() + "/ckpt_posix_roundtrip";
  CheckpointWriter writer(posix, dir);
  const TrainState state = synthetic_state(7);
  writer.write(state);
  CheckpointReader reader(posix, dir);
  EXPECT_EQ(reader.restore().state, state);
}

TEST(CkptWriter, RejectsCountsNotCoveringBlocks) {
  MemStorage mem;
  CheckpointWriter writer(mem, "ck");
  TrainState state = synthetic_state(1);
  state.counts = {2, 2};  // 8 blocks, counts sum to 4
  EXPECT_THROW(writer.write(state), std::invalid_argument);
  EXPECT_THROW(CheckpointWriter(mem, "ck", {0}), std::invalid_argument);
}

TEST(CkptReader, EmptyDirThrowsNotFound) {
  MemStorage mem;
  CheckpointReader reader(mem, "ck");
  try {
    reader.restore();
    FAIL() << "restored from nothing";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), CkptErrorKind::NotFound);
  }
}

TEST(CkptReader, NewestValidWinsOverCorruptNewest) {
  MemStorage mem;
  CheckpointWriter writer(mem, "ck");
  const TrainState s2 = synthetic_state(2);
  const TrainState s4 = synthetic_state(4);
  writer.write(s2);
  writer.write(s4);

  // Flip one bit inside the newest step's record payload.
  std::string& rec = mem.bytes("ck/step-00000004/stage-001.rec");
  rec[rec.size() / 2] ^= 0x01;

  CheckpointReader reader(mem, "ck");
  const RestoreResult restored = reader.restore();
  EXPECT_EQ(restored.state, s2);
  ASSERT_EQ(restored.candidates.size(), 2u);
  EXPECT_FALSE(restored.candidates[0].valid);
  EXPECT_NE(restored.candidates[0].reason.find("CRC"), std::string::npos)
      << restored.candidates[0].reason;
  EXPECT_TRUE(restored.candidates[1].valid);
}

TEST(CkptReader, TornRecordFallsBack) {
  MemStorage mem;
  CheckpointWriter writer(mem, "ck");
  const TrainState s2 = synthetic_state(2);
  writer.write(s2);
  writer.write(synthetic_state(4));
  std::string& rec = mem.bytes("ck/step-00000004/stage-000.rec");
  rec.resize(rec.size() / 2);  // torn mid-write
  CheckpointReader reader(mem, "ck");
  EXPECT_EQ(reader.restore().state, s2);
}

TEST(CkptReader, TornManifestFallsBack) {
  MemStorage mem;
  CheckpointWriter writer(mem, "ck");
  const TrainState s2 = synthetic_state(2);
  writer.write(s2);
  writer.write(synthetic_state(4));
  std::string& manifest = mem.bytes("ck/step-00000004/MANIFEST");
  manifest.resize(manifest.size() - 5);
  CheckpointReader reader(mem, "ck");
  EXPECT_EQ(reader.restore().state, s2);
}

TEST(CkptReader, TamperedCountsRejectedByFingerprint) {
  // Rewrite the manifest's counts line AND fix the trailing whole-file CRC:
  // the scheme fingerprint still refuses, because it binds the counts the
  // writer actually used.
  MemStorage mem;
  CheckpointWriter writer(mem, "ck");
  writer.write(synthetic_state(2));
  std::string& manifest = mem.bytes("ck/step-00000002/MANIFEST");
  const auto counts_pos = manifest.find("counts 2 3 3");
  ASSERT_NE(counts_pos, std::string::npos);
  manifest.replace(counts_pos, 12, "counts 3 2 3");
  const auto crc_pos = manifest.rfind("crc ");
  ASSERT_NE(crc_pos, std::string::npos);
  manifest = manifest.substr(0, crc_pos);
  manifest += "crc " + util::crc32_hex(util::crc32(manifest)) + "\n";

  CheckpointReader reader(mem, "ck");
  try {
    reader.restore();
    FAIL() << "tampered counts restored";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), CkptErrorKind::Corrupt);
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos)
        << e.what();
  }
}

TEST(CkptReader, AllCorruptThrowsCorrupt) {
  MemStorage mem;
  CheckpointWriter writer(mem, "ck");
  writer.write(synthetic_state(2));
  writer.write(synthetic_state(4));
  mem.bytes("ck/step-00000002/stage-002.rec")[40] ^= 0x10;
  mem.bytes("ck/step-00000004/stage-002.rec")[40] ^= 0x10;
  CheckpointReader reader(mem, "ck");
  try {
    reader.restore();
    FAIL() << "corrupt state restored";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), CkptErrorKind::Corrupt);
  }
}

TEST(CkptReader, ForeignFormatVersionThrowsVersion) {
  MemStorage mem;
  CheckpointWriter writer(mem, "ck");
  writer.write(synthetic_state(2));
  // The record's format-version field is bytes [4, 8) of the frame.
  for (const char* rec :
       {"ck/step-00000002/stage-000.rec", "ck/step-00000002/stage-001.rec",
        "ck/step-00000002/stage-002.rec"}) {
    mem.bytes(rec)[4] = 99;
  }
  CheckpointReader reader(mem, "ck");
  try {
    reader.restore();
    FAIL() << "foreign version restored";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), CkptErrorKind::Version);
  }
}

TEST(CkptWriter, InjectedRenameFailureLeavesOldCheckpointIntact) {
  MemStorage mem;
  faults::StorageFaultPlan plan;
  plan.faults.push_back({faults::StorageFault::Kind::RenameFail, 1, 0});
  faults::FaultyStorage faulty(mem, plan);
  CheckpointWriter writer(faulty, "ck");
  const TrainState s2 = synthetic_state(2);
  writer.write(s2);                                     // rename #0: commits
  EXPECT_THROW(writer.write(synthetic_state(4)), StorageError);  // rename #1
  EXPECT_EQ(faulty.injected(), 1);

  // The failed step never committed: no MANIFEST, invisible to the reader.
  EXPECT_FALSE(mem.has_file("ck/step-00000004/MANIFEST"));
  CheckpointReader reader(mem, "ck");
  EXPECT_EQ(reader.committed_steps(), std::vector<int>{2});
  EXPECT_EQ(reader.restore().state, s2);
}

TEST(CkptWriter, RetentionKeepsNewestK) {
  MemStorage mem;
  WriterOptions opts;
  opts.keep_last = 2;
  CheckpointWriter writer(mem, "ck", opts);
  writer.write(synthetic_state(1));
  writer.write(synthetic_state(2));
  writer.write(synthetic_state(3));
  CheckpointReader reader(mem, "ck");
  EXPECT_EQ(reader.committed_steps(), (std::vector<int>{3, 2}));
  EXPECT_FALSE(mem.has_file("ck/step-00000001/MANIFEST"));
  EXPECT_FALSE(mem.has_file("ck/step-00000001/stage-000.rec"));
}

TEST(CkptApply, MismatchedModelThrowsTyped) {
  const TrainState state = synthetic_state(1);
  model::TinySpec small = tiny_spec();
  small.layers = 2;  // 6 blocks instead of 8
  model::TransformerModel other(small);
  try {
    apply_train_state(state, other);
    FAIL() << "applied to a different architecture";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.kind(), CkptErrorKind::Mismatch);
  }
}

TEST(CkptApply, RoundTripsModelAndOptimizerExactly) {
  model::TransformerModel model(tiny_spec());
  util::Rng rng(11);
  const TrainState state =
      capture_train_state(model, {}, rng.state(), 0, {2, 3, 3}, 0);
  model::TransformerModel fresh(tiny_spec());
  apply_train_state(state, fresh);
  const TrainState again =
      capture_train_state(fresh, {}, rng.state(), 0, {2, 3, 3}, 0);
  EXPECT_EQ(again, state);
}

// --------------------------------------------------------- resume semantics

runtime::TrainSessionOptions session_options(Storage* storage,
                                             const std::string& dir,
                                             int interval) {
  runtime::TrainSessionOptions o;
  o.spec = tiny_spec();
  o.counts = {2, 3, 3};
  o.ckpt_dir = dir;
  o.ckpt_interval = interval;
  o.storage = storage;
  return o;
}

TEST(CkptResume, SameShapeResumeIsBitIdentical) {
  MemStorage mem;
  auto opts = session_options(&mem, "ck", 2);

  runtime::TrainSession first(opts);
  for (int i = 0; i < 4; ++i) first.step();
  ASSERT_EQ(first.checkpoints_written(), 2);

  core::ResumeOptions ropt;  // same device count
  const auto resumed = core::resume_from_checkpoint(tiny_config(), mem, "ck",
                                                    ropt);
  EXPECT_FALSE(resumed.resharded);
  EXPECT_EQ(resumed.state.step, 4);
  EXPECT_EQ(resumed.counts, opts.counts);

  auto ropts = opts;
  ropts.counts = resumed.counts;
  runtime::TrainSession continued(ropts, resumed.state);
  while (continued.iteration() < 8) continued.step();

  auto gopts = opts;
  gopts.ckpt_dir.clear();
  gopts.ckpt_interval = 0;
  runtime::TrainSession golden(gopts);
  for (int i = 0; i < 8; ++i) golden.step();

  // Losses after the resume point are bit-equal, and so is the full final
  // state (parameters, Adam moments, data stream, schedule position).
  ASSERT_EQ(continued.losses().size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(continued.losses()[static_cast<std::size_t>(i)],
              golden.losses()[static_cast<std::size_t>(4 + i)])
        << "step " << 5 + i;
  }
  EXPECT_EQ(continued.capture(), golden.capture());
}

double max_param_diff(const TrainState& a, const TrainState& b) {
  EXPECT_EQ(a.blocks.size(), b.blocks.size());
  double worst = 0;
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    for (std::size_t p = 0; p < a.blocks[i].params.size(); ++p) {
      const auto& va = a.blocks[i].params[p].value;
      const auto& vb = b.blocks[i].params[p].value;
      EXPECT_EQ(va.size(), vb.size());
      for (std::size_t k = 0; k < va.size(); ++k) {
        worst = std::max(worst, std::fabs(static_cast<double>(va[k]) -
                                          static_cast<double>(vb[k])));
      }
    }
  }
  return worst;
}

class CkptElasticResume : public testing::TestWithParam<int> {};

TEST_P(CkptElasticResume, ReshardedResumeStaysGradientExact) {
  const int target = GetParam();
  MemStorage mem;
  auto opts = session_options(&mem, "ck", 2);
  runtime::TrainSession first(opts);
  for (int i = 0; i < 4; ++i) first.step();

  core::ResumeOptions ropt;
  ropt.num_gpus = target;
  const auto resumed = core::resume_from_checkpoint(tiny_config(), mem, "ck",
                                                    ropt);
  EXPECT_TRUE(resumed.resharded);
  EXPECT_EQ(static_cast<int>(resumed.counts.size()), target);
  int covered = 0;
  for (int c : resumed.counts) covered += c;
  EXPECT_EQ(covered, 8);

  auto ropts = opts;
  ropts.counts = resumed.counts;
  ropts.ckpt_dir.clear();
  ropts.ckpt_interval = 0;
  runtime::TrainSession continued(ropts, resumed.state);
  while (continued.iteration() < 8) continued.step();

  auto gopts = opts;
  gopts.ckpt_dir.clear();
  gopts.ckpt_interval = 0;
  runtime::TrainSession golden(gopts);
  for (int i = 0; i < 8; ++i) golden.step();

  // Per-block state is partition-independent, so training on the new
  // partition computes the same gradients (tolerance covers accumulation
  // order, which in practice matches bit-exactly on this runtime).
  EXPECT_LE(max_param_diff(continued.capture(), golden.capture()), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(NMinusOneAndNPlusOne, CkptElasticResume,
                         testing::Values(2, 4));

TEST(CkptResume, FailedCheckpointNeverKillsTraining) {
  MemStorage mem;
  faults::StorageFaultPlan plan;
  plan.faults.push_back({faults::StorageFault::Kind::RenameFail, 0, 0});
  faults::FaultyStorage faulty(mem, plan);
  auto opts = session_options(&faulty, "ck", 2);
  runtime::TrainSession session(opts);
  for (int i = 0; i < 4; ++i) session.step();
  EXPECT_EQ(session.iteration(), 4);          // training survived
  EXPECT_EQ(session.checkpoint_failures(), 1);  // step-2 commit failed
  EXPECT_EQ(session.checkpoints_written(), 1);  // step-4 landed
  EXPECT_FALSE(session.last_checkpoint_error().empty());
  CheckpointReader reader(mem, "ck");
  EXPECT_EQ(reader.committed_steps(), std::vector<int>{4});
}

// ------------------------------------------------- live-writer byte parity

/// Every file under `dir`, as (path, bytes), in listing order.
std::vector<std::pair<std::string, std::string>> files_under(
    MemStorage& mem, const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& name : mem.list_dir(dir)) {
    const std::string path = dir + "/" + name;
    if (mem.has_file(path)) {
      out.emplace_back(path, mem.read_file(path));
    } else {
      for (auto& f : files_under(mem, path)) out.push_back(std::move(f));
    }
  }
  return out;
}

/// The files one checkpoint write of `state` leaves in fresh storage.
template <typename State>
std::vector<std::pair<std::string, std::string>> written_files(
    const State& state, const std::uint32_t* verified) {
  MemStorage mem;
  CheckpointWriter(mem, "ck").write(state, verified);
  return files_under(mem, "ck");
}

/// (stages, guards on)
class CkptLiveWriter
    : public testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CkptLiveWriter, FilesMatchWritingTheCapturedState) {
  const int stages = std::get<0>(GetParam());
  const bool guarded = std::get<1>(GetParam());
  const std::vector<std::vector<int>> partitions = {
      {8}, {4, 4}, {2, 3, 3}, {2, 2, 2, 2}};
  MemStorage mem;
  auto opts = session_options(&mem, "ck", 1);
  opts.counts = partitions[static_cast<std::size_t>(stages - 1)];
  opts.data_seed = 0x11ULL * static_cast<std::uint64_t>(stages);
  if (guarded) {
    opts.guard.handoff_crc = true;
    opts.guard.nonfinite_checks = true;
    opts.guard.weight_interval = 1;
  }

  // Before the first Adam step: no moments, adam_t == 0.
  {
    const model::TransformerModel model(opts.spec);
    const runtime::Adam adam(opts.lr);
    util::Rng rng(opts.data_seed);
    const TrainState captured =
        capture_train_state(model, adam, rng.state(), 0, opts.counts, 0);
    const auto want = written_files(captured, nullptr);
    ASSERT_EQ(want.size(), opts.counts.size() + 1);  // records + MANIFEST
    EXPECT_EQ(written_files(live_view(model, adam, rng.state(), 0,
                                      opts.counts, 0),
                            nullptr),
              want);
  }

  // The session writes from the live view after every step; its
  // committed files must equal a write of the same state captured.
  const auto check_session = [&](runtime::TrainSession& session) {
    const TrainState state = session.capture();
    ASSERT_GT(state.adam_t, 0);
    const std::uint32_t crc = guard::weight_state_crc(state);
    const auto want = written_files(state, guarded ? &crc : nullptr);
    ASSERT_EQ(want.size(), state.counts.size() + (guarded ? 2u : 1u));
    EXPECT_EQ(files_under(mem, "ck/" + step_dir_name(state.step)), want)
        << "step " << state.step;
  };
  runtime::TrainSession first(opts);
  for (int i = 0; i < 3; ++i) {
    first.step();
    check_session(first);
  }

  // Elastic resume onto another stage count, then more live writes.
  core::ResumeOptions ropt;
  ropt.num_gpus = stages % 4 + 1;
  const auto resumed =
      core::resume_from_checkpoint(tiny_config(), mem, "ck", ropt);
  ASSERT_EQ(static_cast<int>(resumed.counts.size()), ropt.num_gpus);
  auto ropts = opts;
  ropts.counts = resumed.counts;
  runtime::TrainSession continued(ropts, resumed.state);
  for (int i = 0; i < 2; ++i) {
    continued.step();
    check_session(continued);
  }
  EXPECT_EQ(continued.checkpoints_written(), 2);
}

INSTANTIATE_TEST_SUITE_P(StagesAndGuards, CkptLiveWriter,
                         testing::Combine(testing::Values(1, 2, 3, 4),
                                          testing::Bool()));

// ------------------------------------------------------------------- fuzz

TEST(CkptFuzz, SeededFaultPlansNeverRestoreCorruptState) {
  // Build a handful of genuine training states once (the expensive part).
  std::vector<TrainState> states;
  {
    runtime::TrainSessionOptions opts;
    opts.spec = tiny_spec();
    opts.counts = {2, 3, 3};
    runtime::TrainSession session(opts);
    for (int i = 0; i < 4; ++i) {
      session.step();
      states.push_back(session.capture());
    }
  }

  faults::StorageFaultDistribution dist;
  dist.torn_write_prob = 0.15;
  dist.bit_flip_prob = 0.15;
  dist.short_read_prob = 0.15;
  dist.rename_fail_prob = 0.25;

  int restores = 0, typed_failures = 0, injected_total = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    MemStorage mem;
    // Per step: 3 records + 1 manifest temp = 4 writes, 1 commit rename.
    const auto plan =
        faults::sample_storage_fault_plan(dist, 16, 16, 4, seed);
    faults::FaultyStorage faulty(mem, plan);

    CheckpointWriter writer(faulty, "ck", {10});
    std::vector<int> committed;
    for (const TrainState& s : states) {
      try {
        writer.write(s);
        committed.push_back(s.step);
      } catch (const StorageError&) {
        // The write was interrupted -- older checkpoints must be intact.
      }
    }
    injected_total += faulty.injected();

    // THE crash-consistency property: under any fault plan, restore either
    // returns a state bit-identical to one that was written, or raises a
    // typed CkptError. It never fabricates or truncates state.
    const auto is_committed = [&](int step) {
      return std::find(committed.begin(), committed.end(), step) !=
             committed.end();
    };
    const auto state_for = [&](int step) -> const TrainState& {
      return states[static_cast<std::size_t>(step - 1)];  // steps are 1..4
    };

    CheckpointReader reader(faulty, "ck");
    try {
      const RestoreResult restored = reader.restore();
      ++restores;
      ASSERT_TRUE(is_committed(restored.state.step)) << "seed " << seed;
      EXPECT_EQ(restored.state, state_for(restored.state.step))
          << "seed " << seed;
    } catch (const CkptError&) {
      ++typed_failures;  // typed refusal is the only acceptable failure
    }

    // And through clean storage (no read faults): restore lands on a
    // committed checkpoint bit-exactly, or refuses typed -- NotFound only
    // when no write ever committed.
    CheckpointReader clean(mem, "ck");
    try {
      const RestoreResult restored = clean.restore();
      ASSERT_TRUE(is_committed(restored.state.step)) << "seed " << seed;
      EXPECT_EQ(restored.state, state_for(restored.state.step))
          << "seed " << seed;
    } catch (const CkptError& e) {
      if (e.kind() == CkptErrorKind::NotFound) {
        EXPECT_TRUE(committed.empty()) << "seed " << seed << ": " << e.what();
      }
      // Corrupt is legitimate with commits: a bit flip can silently poison
      // every committed step. The point is it was *detected*.
    } catch (const StorageError& e) {
      FAIL() << "seed " << seed << ": untyped failure " << e.what();
    }
  }
  // The sweep must exercise both paths, or the property is vacuous.
  EXPECT_GT(injected_total, 0);
  EXPECT_GT(restores, 0);
  (void)typed_failures;
}

// -------------------------------------------------------- bit-flip sweep

/// Storage decorator that records the payload size of every write_file call,
/// so the sweep below can aim one BitFlip at every (op, byte) coordinate of
/// a checkpoint generation without hard-coding the on-disk format.
class RecordingStorage final : public Storage {
 public:
  explicit RecordingStorage(Storage& inner) : inner_(inner) {}
  void create_dirs(const std::string& path) override {
    inner_.create_dirs(path);
  }
  void write_file(const std::string& path, std::string bytes) override {
    sizes_.push_back(bytes.size());
    inner_.write_file(path, std::move(bytes));
  }
  void rename_file(const std::string& from, const std::string& to) override {
    inner_.rename_file(from, to);
  }
  std::string read_file(const std::string& path) override {
    return inner_.read_file(path);
  }
  bool exists(const std::string& path) override { return inner_.exists(path); }
  std::vector<std::string> list_dir(const std::string& dir) override {
    return inner_.list_dir(dir);
  }
  void remove_file(const std::string& path) override {
    inner_.remove_file(path);
  }
  void remove_dir(const std::string& path) override { inner_.remove_dir(path); }
  const std::vector<std::size_t>& sizes() const { return sizes_; }

 private:
  Storage& inner_;
  std::vector<std::size_t> sizes_;
};

/// Smallest model the checkpoint format supports (1 layer -> 4 blocks) so
/// the exhaustive byte sweep stays cheap.
model::TinySpec micro_spec() {
  model::TinySpec s;
  s.layers = 1;
  s.hidden = 4;
  s.heads = 1;
  s.vocab = 8;
  s.seq = 2;
  return s;
}

TrainState micro_state(int step, const std::vector<int>& counts) {
  model::TransformerModel model(micro_spec());
  util::Rng rng(0x5eedULL + static_cast<std::uint64_t>(step));
  return capture_train_state(model, {}, rng.state(), step, counts, 0);
}

TEST(CkptBitFlipSweep, EveryOffsetFallsBackToPriorGeneration) {
  // Flip one bit at EVERY byte offset of the newest generation's payloads
  // (each record and the manifest). Newest-valid-wins must reject the
  // poisoned step-4 candidate with a diagnosis and fall back to step 2
  // bit-exactly, at every single offset -- no byte of the format may be
  // outside checksum coverage.
  const std::vector<int> counts = {2, 2};
  const TrainState gen1 = micro_state(2, counts);
  const TrainState gen2 = micro_state(4, counts);

  // Recording pass: learn how many write ops one checkpoint takes and the
  // payload size of each of gen2's ops (2 records + MANIFEST for 2 stages).
  std::size_t ops_per_ckpt = 0;
  std::vector<std::size_t> sizes;
  {
    MemStorage mem;
    RecordingStorage rec(mem);
    CheckpointWriter writer(rec, "ck");
    writer.write(gen1);
    ops_per_ckpt = rec.sizes().size();
    writer.write(gen2);
    sizes.assign(rec.sizes().begin() + static_cast<long>(ops_per_ckpt),
                 rec.sizes().end());
  }
  ASSERT_EQ(sizes.size(), 3u);  // 2 stage records + MANIFEST

  int swept = 0;
  for (std::size_t op = 0; op < sizes.size(); ++op) {
    for (std::size_t byte = 0; byte < sizes[op]; ++byte) {
      MemStorage mem;
      faults::StorageFaultPlan plan;
      plan.faults.push_back({faults::StorageFault::Kind::BitFlip,
                             static_cast<int>(ops_per_ckpt + op), byte});
      faults::FaultyStorage faulty(mem, plan);
      CheckpointWriter writer(faulty, "ck");
      writer.write(gen1);
      writer.write(gen2);
      ASSERT_EQ(faulty.injected(), 1) << "op " << op << " byte " << byte;

      CheckpointReader reader(mem, "ck");
      const RestoreResult restored = reader.restore();
      ++swept;
      ASSERT_EQ(restored.state.step, 2) << "op " << op << " byte " << byte;
      ASSERT_EQ(restored.state, gen1) << "op " << op << " byte " << byte;

      // Per-candidate diagnostics: the poisoned newest generation is listed
      // first with a non-empty reason; the winner is last and valid.
      ASSERT_GE(restored.candidates.size(), 2u);
      const CandidateReport& newest = restored.candidates.front();
      const CandidateReport& winner = restored.candidates.back();
      EXPECT_EQ(newest.step, 4) << "op " << op << " byte " << byte;
      EXPECT_FALSE(newest.valid) << "op " << op << " byte " << byte;
      EXPECT_FALSE(newest.reason.empty()) << "op " << op << " byte " << byte;
      EXPECT_EQ(winner.step, 2);
      EXPECT_TRUE(winner.valid);
    }
  }
  // The property above is per-offset; this guards against a vacuous sweep.
  EXPECT_GT(swept, 100);
}

// ------------------------------------------------------ train-deep golden

/// perfbench's train-deep shape: 16 layers at hidden 64 on 4 stages, 16
/// micro-batches of 4 under the sliced schedule, every guard but the norm
/// guard, a verified checkpoint after every step.
runtime::TrainSessionOptions train_deep_options(Storage* storage) {
  runtime::TrainSessionOptions o;
  o.spec = {16, 64, 4, 256, 16, true, 1};
  o.counts = {9, 8, 9, 8};
  o.kind = costmodel::ScheduleKind::AutoPipeSliced;
  o.sliced = 2;
  o.micro_batch = 4;
  o.num_micro_batches = 16;
  o.lr = 3e-3;
  o.data_seed = 1 * 2654435761ULL + 7;
  o.ckpt_dir = "ckpt";
  o.ckpt_interval = 1;
  o.ckpt_keep = 2;
  o.storage = storage;
  o.guard.handoff_crc = true;
  o.guard.nonfinite_checks = true;
  o.guard.weight_interval = 1;
  return o;
}

// Golden values recorded with slicing-by-8 CRC32, the scalar Adam loop and
// the two-pass GELU recompute. The PCLMULQDQ fold, the AVX2 Adam lanes and
// the fused GELU kernel perform the same arithmetic, so eight guarded steps
// must reproduce these losses and checkpoint files bit for bit.
TEST(CkptGolden, TrainDeepStepsMatchRecordedBits) {
  MemStorage mem;
  runtime::TrainSession session(train_deep_options(&mem));
  for (int i = 0; i < 8; ++i) session.step();
  const std::vector<double> losses = {
      0x1.63069817b3772p+2, 0x1.5e05e083b12c5p+2, 0x1.66960247aae2cp+2,
      0x1.59e43896e87a2p+2, 0x1.568ddebf8e76ep+2, 0x1.540e27356e64fp+2,
      0x1.4db663d0458e2p+2, 0x1.4886da54401e4p+2};
  ASSERT_EQ(session.losses().size(), losses.size());
  for (std::size_t i = 0; i < losses.size(); ++i) {
    EXPECT_EQ(session.losses()[i], losses[i]) << "step " << i + 1;
  }
  const std::vector<std::pair<std::string, std::uint32_t>> files = {
      {"MANIFEST", 0xe47996b1u},      {"VERIFIED", 0xdb04c14du},
      {"stage-000.rec", 0xba6cc806u}, {"stage-001.rec", 0x4e13d92eu},
      {"stage-002.rec", 0xe714e75eu}, {"stage-003.rec", 0x8a741acbu}};
  const std::string dir = "ckpt/" + step_dir_name(8);
  std::vector<std::string> names = mem.list_dir(dir);
  std::sort(names.begin(), names.end());
  ASSERT_EQ(names.size(), files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(names[i], files[i].first);
    EXPECT_EQ(util::crc32(mem.read_file(dir + "/" + files[i].first)),
              files[i].second)
        << files[i].first;
  }
}

}  // namespace
}  // namespace autopipe::ckpt
