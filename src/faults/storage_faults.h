// Deterministic storage-fault injection for the checkpoint subsystem
// (DESIGN.md §7's failure matrix).
//
// Mirrors faults/fault_plan.h: a StorageFaultPlan is pure *data* describing
// which primitive storage operations misbehave, so the same plan replays
// the same failure scenario on every run and platform. FaultyStorage wraps
// any ckpt::Storage and applies the plan by per-kind operation counters:
//
//   TornWrite   the N-th write_file persists only the first `at_byte` bytes
//               and then throws StorageError -- the write looked like a
//               crash mid-write and left a truncated file behind
//   BitFlip     the N-th write_file lands completely but with one bit
//               flipped -- silent media corruption, detectable only by CRC
//   ShortRead   the N-th read_file returns a prefix of the real contents
//   RenameFail  the N-th rename_file throws without renaming -- the commit
//               that rename carried never happened
//
// The crash-consistency property the checkpoint tests enforce: under ANY
// plan, restore either loads the newest checkpoint that still validates or
// raises a typed ckpt::CkptError -- corrupt state is never loaded.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/storage.h"

namespace autopipe::faults {

struct StorageFault {
  enum class Kind { TornWrite, BitFlip, ShortRead, RenameFail };
  Kind kind = Kind::TornWrite;
  /// Which operation of the kind's stream the fault hits (0-based count of
  /// write_file calls for TornWrite/BitFlip, read_file calls for ShortRead,
  /// rename_file calls for RenameFail).
  int op_index = 0;
  /// TornWrite/ShortRead: bytes that survive (clamped to the payload).
  /// BitFlip: byte offset of the flipped bit (mod payload size).
  std::size_t at_byte = 0;
};

struct StorageFaultPlan {
  std::vector<StorageFault> faults;
  bool empty() const { return faults.empty(); }
};

/// Storage decorator applying a StorageFaultPlan. An empty plan is
/// bit-identical to the bare inner storage (the no-fault contract the
/// fuzz tests pin down).
class FaultyStorage final : public ckpt::Storage {
 public:
  FaultyStorage(ckpt::Storage& inner, StorageFaultPlan plan)
      : inner_(inner), plan_(std::move(plan)) {}

  void create_dirs(const std::string& path) override;
  void write_file(const std::string& path, std::string bytes) override;
  void rename_file(const std::string& from, const std::string& to) override;
  std::string read_file(const std::string& path) override;
  bool exists(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  void remove_file(const std::string& path) override;
  void remove_dir(const std::string& path) override;

  /// Operations seen so far -- lets tests size fault plans to a workload.
  int writes() const { return writes_; }
  int reads() const { return reads_; }
  int renames() const { return renames_; }
  /// Faults actually triggered (an op_index past the workload never fires).
  int injected() const { return injected_; }

 private:
  const StorageFault* match(StorageFault::Kind kind, int index) const;

  ckpt::Storage& inner_;
  StorageFaultPlan plan_;
  int writes_ = 0, reads_ = 0, renames_ = 0, injected_ = 0;
};

/// Per-operation fault probabilities for the seeded generator.
struct StorageFaultDistribution {
  double torn_write_prob = 0.05;
  double bit_flip_prob = 0.05;
  double short_read_prob = 0.05;
  double rename_fail_prob = 0.05;
  /// Upper bound for drawn byte offsets (positions are clamped to the
  /// payload at injection time anyway).
  std::size_t max_byte = 1 << 14;
};

/// Draws one deterministic plan covering `write_ops` writes, `read_ops`
/// reads and `rename_ops` renames. Same (dist, shape, seed) -> same plan.
StorageFaultPlan sample_storage_fault_plan(const StorageFaultDistribution& dist,
                                           int write_ops, int read_ops,
                                           int rename_ops, std::uint64_t seed);

}  // namespace autopipe::faults
