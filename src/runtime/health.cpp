#include "runtime/health.h"

#include <stdexcept>

namespace autopipe::runtime {

HealthBoard::HealthBoard(int max_devices)
    : max_devices_(max_devices),
      slots_(max_devices > 0 ? std::make_unique<Slot[]>(
                                   static_cast<std::size_t>(max_devices))
                             : nullptr),
      epoch_(std::chrono::steady_clock::now()) {
  if (max_devices < 1) {
    throw std::invalid_argument("health board: need at least one device");
  }
  reset(max_devices);
}

void HealthBoard::reset(int devices) {
  if (devices < 1 || devices > max_devices_) {
    throw std::invalid_argument("health board: device count out of range");
  }
  devices_.store(devices, std::memory_order_relaxed);
  const std::int64_t now = now_us();
  for (int d = 0; d < devices; ++d) {
    slots_[d].ops.store(0, std::memory_order_relaxed);
    slots_[d].beat_us.store(now, std::memory_order_relaxed);
    slots_[d].state.store(static_cast<int>(DeviceHealth::Idle),
                          std::memory_order_relaxed);
  }
}

void HealthBoard::beat(int device, int ops_done) {
  Slot& slot = slots_[device];
  slot.ops.store(ops_done, std::memory_order_relaxed);
  slot.beat_us.store(now_us(), std::memory_order_relaxed);
}

void HealthBoard::mark(int device, DeviceHealth state) {
  Slot& slot = slots_[device];
  slot.beat_us.store(now_us(), std::memory_order_relaxed);
  slot.state.store(static_cast<int>(state), std::memory_order_relaxed);
}

int HealthBoard::ops_done(int device) const {
  return static_cast<int>(slots_[device].ops.load(std::memory_order_relaxed));
}

DeviceHealth HealthBoard::state(int device) const {
  return static_cast<DeviceHealth>(
      slots_[device].state.load(std::memory_order_relaxed));
}

double HealthBoard::silent_ms(int device) const {
  const std::int64_t beat =
      slots_[device].beat_us.load(std::memory_order_relaxed);
  return static_cast<double>(now_us() - beat) / 1000.0;
}

std::int64_t HealthBoard::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

}  // namespace autopipe::runtime
