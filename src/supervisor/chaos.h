// Seeded chaos scripts: which faults hit which training step.
//
// A ChaosScript is the soak harness's ground truth -- a pure-data list of
// (step, fault) events drawn deterministically from a seed, spanning every
// failure class the supervisor must survive: worker crashes, hard hangs,
// wall-clock stragglers, escalating transients and torn checkpoint writes.
// The supervisor arms each event exactly once, the first time training
// reaches its step; a checkpoint-restore that rolls the step counter back
// does NOT re-arm already-fired events (real hardware does not replay its
// faults because the software recovered), which is what lets a seeded soak
// terminate.
//
// ArmedStorage is the storage-class counterpart of the runtime fault plan:
// a ckpt::Storage decorator whose next write_file can be armed to tear
// (persist a prefix, then throw StorageError), modelling a crash mid
// checkpoint write at a supervisor-chosen moment. Unarmed it is
// bit-identical passthrough.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/storage.h"

namespace autopipe::supervisor {

enum class ChaosKind {
  Crash,           ///< DeviceCrash before an op: worker throws, never returns
  Hang,            ///< HangFault: worker wedges silently, watchdog must act
  Straggler,       ///< SlowOps: real wall-clock delay, step completes slowly
  Transient,       ///< TransientOpFault past the in-place retry budget
  TornCheckpoint,  ///< next checkpoint write tears mid-file
  // Silent-data-corruption classes (faults/sdc.h): a single seeded bit flip
  // that no fail-stop detector sees -- only the guard layer can.
  CorruptActivation,  ///< in-flight flip on a forward boundary tensor
  CorruptGradient,    ///< in-flight flip on a backward boundary tensor
  CorruptWeight,      ///< flip in a parameter between steps
  CorruptOptimizer,   ///< flip in an Adam moment between steps
};

const char* to_string(ChaosKind kind);

/// True for the four Corrupt* classes.
bool is_corruption(ChaosKind kind);

struct ChaosEvent {
  int step = 0;    ///< 0-based training step the event arms at
  ChaosKind kind = ChaosKind::Crash;
  int device = 0;  ///< ignored for TornCheckpoint
  int op_index = 0;
  double delay_ms = 0;  ///< Straggler: per-op extra wall ms
  int op_count = 1;     ///< Straggler: ops affected
  int failures = 1;     ///< Transient: injected failure count
  /// Corrupt* only: which element/bit the flip lands on (reduced modulo the
  /// target's extent at fire time).
  std::uint64_t elem = 0;
  int bit = 0;
};

struct ChaosScriptOptions {
  int steps = 10;       ///< script covers steps [0, steps)
  int devices = 3;
  int ops_per_device = 8;   ///< op_index draw range
  int incidents = 6;        ///< events to draw
  double straggler_delay_ms = 40;
  int transient_failures = 8;  ///< > worker retry budget => escalates
  /// Failure classes the script cycles through. Empty (the default) keeps
  /// the legacy five-class fail-stop cycle, byte-stable for existing seeded
  /// scripts; a corruption soak passes the four Corrupt* classes.
  std::vector<ChaosKind> classes;
};

struct ChaosScript {
  std::vector<ChaosEvent> events;

  /// Events armed at `step`, in script order.
  std::vector<const ChaosEvent*> at_step(int step) const;

  /// Draws `options.incidents` events deterministically from `seed`,
  /// cycling through all five fail-stop classes (or `options.classes` when
  /// set) so any script with >= cycle-length incidents spans every class.
  /// Steps are drawn uniformly; at most one runtime fault lands per
  /// (step, device) -- and at most one Corrupt* event per step, so each
  /// injected corruption maps to exactly one observed incident.
  static ChaosScript sample(const ChaosScriptOptions& options,
                            std::uint64_t seed);
};

class ArmedStorage final : public ckpt::Storage {
 public:
  explicit ArmedStorage(ckpt::Storage& inner) : inner_(inner) {}

  /// The next write_file persists only `keep_bytes` bytes then throws
  /// StorageError. One-shot: the write disarms it.
  void arm_torn_write(std::size_t keep_bytes) {
    armed_ = true;
    keep_bytes_ = keep_bytes;
  }
  bool armed() const { return armed_; }
  int torn_writes() const { return torn_writes_; }

  void create_dirs(const std::string& path) override;
  void write_file(const std::string& path, std::string bytes) override;
  void rename_file(const std::string& from, const std::string& to) override;
  std::string read_file(const std::string& path) override;
  bool exists(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  void remove_file(const std::string& path) override;
  void remove_dir(const std::string& path) override;

 private:
  ckpt::Storage& inner_;
  bool armed_ = false;
  std::size_t keep_bytes_ = 0;
  int torn_writes_ = 0;
};

}  // namespace autopipe::supervisor
