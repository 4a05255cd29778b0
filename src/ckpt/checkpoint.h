// Versioned, checksummed, crash-consistent training checkpoints
// (DESIGN.md §7).
//
// A checkpoint captures everything needed to continue training as if the
// process had never died: per-block parameters, Adam moments, the data
// stream's RNG state, the schedule position (iteration number) and the
// active partition/schedule fingerprint. On disk a checkpoint is one
// directory per committed step:
//
//   <dir>/step-00000012/stage-000.rec     framed binary record per stage
//   <dir>/step-00000012/...
//   <dir>/step-00000012/MANIFEST          commits the checkpoint, written
//                                         last via temp+fsync+atomic-rename
//
// Each record frames its payload with a magic, a format version, the
// payload length and a trailing CRC32; the manifest lists every record with
// its size and CRC and carries its own whole-file CRC. The MANIFEST rename
// is the commit point: a crash (or injected storage fault) at any earlier
// moment leaves at most an uncommitted step directory, which the reader
// treats as if it did not exist. Restore scans candidates newest-first and
// returns the first one that fully validates -- torn, flipped or truncated
// state is *never* loaded; when nothing validates, a typed CkptError is
// raised instead.
//
// Records store raw IEEE-754 float32 and little-endian integers (the only
// platforms this repo targets), so a same-partition restore is bit-exact.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/storage.h"
#include "model/transformer.h"
#include "runtime/optimizer.h"
#include "util/rng.h"

namespace autopipe::ckpt {

/// Bumped on any incompatible change to the record framing, the payload
/// layout or the manifest schema; older checkpoints are then rejected as
/// CkptErrorKind::Version instead of being misread.
inline constexpr int kCheckpointVersion = 1;

enum class CkptErrorKind {
  NotFound,  ///< no committed checkpoint exists at all
  Corrupt,   ///< candidates exist but none validates
  Version,   ///< only incompatible-format candidates found
  Mismatch,  ///< valid checkpoint, wrong model/cluster for this restore
};

const char* to_string(CkptErrorKind kind);

class CkptError : public std::runtime_error {
 public:
  CkptError(CkptErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  CkptErrorKind kind() const { return kind_; }

 private:
  CkptErrorKind kind_;
};

/// One parameter tensor's checkpointed state. adam_m/adam_v are empty until
/// the optimizer has taken its first step (all-or-nothing across the whole
/// checkpoint).
struct ParamState {
  std::string name;
  std::vector<float> value;
  std::vector<float> adam_m;
  std::vector<float> adam_v;

  bool operator==(const ParamState&) const = default;
};

struct BlockState {
  std::string kind;  ///< Block::kind(), validated on apply
  std::vector<ParamState> params;

  bool operator==(const BlockState&) const = default;
};

/// Everything a resumed run needs, in block order (stage boundaries are
/// metadata, not structure -- which is what makes elastic resume a pure
/// re-grouping of the same per-block records).
struct TrainState {
  int step = 0;       ///< completed iterations (schedule position)
  long adam_t = 0;    ///< optimizer step counter
  util::Rng::State data_rng{};   ///< sampling stream, mid-sequence
  std::vector<int> counts;       ///< partition at save time (blocks/stage)
  int schedule_kind = 0;         ///< costmodel::ScheduleKind as int
  /// core::scheme_hash(counts) at save time; cross-checked on restore so a
  /// manifest whose counts line was tampered with cannot validate.
  std::uint64_t scheme_fingerprint = 0;
  std::vector<BlockState> blocks;

  bool operator==(const TrainState&) const = default;
};

/// What a checkpoint holds, as read-only views into wherever the floats
/// live: a TrainState, or the live model and optimizer. The record
/// serializer reads only views, so a checkpoint written from the live
/// tensors is byte-identical to one written from their TrainState copy.
struct ParamView {
  std::string_view name;
  std::span<const float> value;
  std::span<const float> adam_m;  ///< empty before the first Adam step
  std::span<const float> adam_v;
};

struct BlockView {
  std::string_view kind;
  std::vector<ParamView> params;
};

struct StateView {
  int step = 0;
  long adam_t = 0;
  util::Rng::State data_rng{};
  std::span<const int> counts;
  int schedule_kind = 0;
  std::uint64_t scheme_fingerprint = 0;
  std::vector<BlockView> blocks;
};

/// Views `state`'s blocks in place; valid while `state` is unchanged.
StateView view_of(const TrainState& state);
StateView view_of(TrainState&&) = delete;  ///< would view a temporary
/// Views the live parameters and the optimizer's moments in place: the
/// state capture_train_state() would copy. Throws CkptError(Mismatch) when
/// the optimizer's moments do not cover the model's parameters. The view
/// is valid while `model`, `adam` and `counts` are unchanged.
StateView live_view(const model::TransformerModel& model,
                    const runtime::Adam& adam,
                    const util::Rng::State& data_rng, int step,
                    const std::vector<int>& counts, int schedule_kind);

/// Snapshot of (model, optimizer, data stream, schedule position) at an
/// iteration boundary. `adam` may be a default AdamState when training
/// has not stepped yet.
TrainState capture_train_state(const model::TransformerModel& model,
                               const runtime::AdamState& adam,
                               const util::Rng::State& data_rng, int step,
                               const std::vector<int>& counts,
                               int schedule_kind);
/// The same snapshot, reading the optimizer's moments in place instead of
/// through Adam::state()'s copy.
TrainState capture_train_state(const model::TransformerModel& model,
                               const runtime::Adam& adam,
                               const util::Rng::State& data_rng, int step,
                               const std::vector<int>& counts,
                               int schedule_kind);

/// Writes `state` back into a freshly-constructed model of the same
/// architecture and returns the optimizer state to adopt. Gradients are
/// zeroed. Throws CkptError(Mismatch) when block kinds, parameter names or
/// shapes disagree with the model.
runtime::AdamState apply_train_state(const TrainState& state,
                                     model::TransformerModel& model);

struct WriterOptions {
  /// Committed checkpoints retained after each successful write (>= 1);
  /// older step directories are pruned best-effort.
  int keep_last = 2;
};

class CheckpointWriter {
 public:
  CheckpointWriter(Storage& storage, std::string dir,
                   WriterOptions options = {});

  /// Commits `state` as checkpoint step `state.step` under the protocol
  /// described above and returns the step directory. Throws StorageError
  /// when an I/O fault (real or injected) interrupts the protocol -- in
  /// that case no new checkpoint became visible and every previously
  /// committed checkpoint is intact; training can simply continue.
  ///
  /// When `verified_weights` is non-null it is the caller's live
  /// weight-state checksum (guard::weight_crc), asserted clean by the
  /// weight guard; the writer then stamps the checkpoint "verified-clean"
  /// with a VERIFIED file written *after* the manifest commit. A crash
  /// between the two leaves a valid-but-unverified checkpoint, which is
  /// safe: restore(require_verified) simply skips it.
  std::string write(const StateView& state,
                    const std::uint32_t* verified_weights = nullptr);
  /// write(view_of(state)).
  std::string write(const TrainState& state,
                    const std::uint32_t* verified_weights = nullptr);

 private:
  void prune();

  Storage& storage_;
  std::string dir_;
  WriterOptions options_;
};

/// Per-candidate verdict from a restore scan, newest first.
struct CandidateReport {
  int step = 0;
  std::string dir;
  bool valid = false;
  /// Candidate carries a VERIFIED stamp whose checksum matches the restored
  /// weight state (only meaningful when the records themselves validate).
  bool verified = false;
  std::string reason;  ///< why the candidate was rejected (when !valid)
};

struct RestoreResult {
  TrainState state;
  std::string dir;  ///< the winning step directory
  /// Every candidate examined (the winner last, since the scan stops there).
  std::vector<CandidateReport> candidates;
};

struct RestoreOptions {
  /// Accept only candidates stamped verified-clean by the weight guard --
  /// the supervisor's corruption rung, where "newest valid" is not enough
  /// because a silently corrupted state checkpoints as perfectly valid.
  bool require_verified = false;
};

class CheckpointReader {
 public:
  CheckpointReader(Storage& storage, std::string dir);

  /// Newest checkpoint that fully validates (manifest committed, every
  /// record present with matching length and CRC, fingerprint consistent).
  /// Throws CkptError(NotFound) when no committed candidate exists,
  /// CkptError(Version) when only incompatible versions exist, and
  /// CkptError(Corrupt) when candidates exist but none validates (or,
  /// under require_verified, none is stamped verified-clean).
  RestoreResult restore(const RestoreOptions& options = {});

  /// Steps with a committed (present, not necessarily valid) manifest,
  /// descending.
  std::vector<int> committed_steps();

 private:
  Storage& storage_;
  std::string dir_;
};

/// "step-00000012" -- the on-disk spelling of a step directory name.
std::string step_dir_name(int step);

}  // namespace autopipe::ckpt
