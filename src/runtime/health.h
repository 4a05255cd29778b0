// Lock-free per-device health board: heartbeats and progress watermarks.
//
// Every stage worker publishes, through plain atomic stores, (a) how many
// schedule ops it has completed and (b) when it last made progress, plus a
// coarse lifecycle state. The supervisor's watchdog samples the board from
// outside the iteration without taking any lock the workers could be
// holding -- the publish path is wait-free (one relaxed store per op, two
// on state changes), so health reporting can never itself stall a worker,
// and a wedged worker is visible precisely because its slot stops moving.
//
// Timestamps are milliseconds on a steady clock relative to the board's
// epoch (reset()), stored as integer microseconds so the 64-bit slots stay
// plain atomics on every platform the repo targets.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace autopipe::runtime {

enum class DeviceHealth : int {
  Idle = 0,     ///< slot allocated, worker not started yet
  Running = 1,  ///< worker executing its op list
  Done = 2,     ///< worker finished its op list normally
  Failed = 3,   ///< worker threw (StageFailure or otherwise)
};

class HealthBoard {
 public:
  explicit HealthBoard(int max_devices);

  /// Re-arms the board for a new iteration attempt over `devices` devices
  /// (<= max_devices): zeroes watermarks, stamps every slot "now", states
  /// to Idle. Not safe concurrently with beats -- call it between attempts.
  void reset(int devices);

  /// Safe to read from any thread, e.g. the watchdog's, while reset() runs.
  int devices() const { return devices_.load(std::memory_order_relaxed); }

  /// Worker-side: `ops_done` schedule ops complete on `device`, progress
  /// stamp refreshed. Wait-free.
  void beat(int device, int ops_done);

  /// Worker-side lifecycle transition (also refreshes the progress stamp).
  void mark(int device, DeviceHealth state);

  // Watchdog-side samples. All tolerate concurrent beats.
  int ops_done(int device) const;
  DeviceHealth state(int device) const;
  /// ms on the steady clock since `device` last beat (or since reset()).
  double silent_ms(int device) const;

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> ops{0};
    std::atomic<std::int64_t> beat_us{0};  ///< since epoch_
    std::atomic<int> state{0};
  };

  std::int64_t now_us() const;

  int max_devices_;
  std::atomic<int> devices_{0};
  std::unique_ptr<Slot[]> slots_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace autopipe::runtime
