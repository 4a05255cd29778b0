// Typed failure propagation for the thread runtime.
//
// A StageWorker that dies must not leave its peers blocked in Channel::recv
// forever (the pre-fault-subsystem behaviour): failures surface as a
// StageFailure carrying *which* device failed and *why*, so the supervisor
// (supervisor/supervisor.h) can distinguish a transient hiccup worth
// retrying from a permanent device loss that needs a restore or a replan
// onto the surviving devices.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace autopipe::runtime {

enum class FailureKind {
  Transient,   ///< op failed more times than the in-place retry budget
  Crash,       ///< injected (or real) permanent device loss
  Timeout,     ///< a bounded recv deadline expired (hung peer)
  PeerClosed,  ///< a channel was closed/poisoned by a failing peer
  Corruption,  ///< an integrity guard caught silent data corruption
};

inline const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::Transient: return "transient";
    case FailureKind::Crash: return "crash";
    case FailureKind::Timeout: return "timeout";
    case FailureKind::PeerClosed: return "peer-closed";
    case FailureKind::Corruption: return "corruption";
  }
  return "unknown";
}

class StageFailure : public std::runtime_error {
 public:
  StageFailure(FailureKind kind, int device, const std::string& what)
      : std::runtime_error(what), kind_(kind), device_(device) {}

  FailureKind kind() const { return kind_; }
  /// Device the failure originated on (-1 when unknown, e.g. a peer's
  /// closure observed from the receiving side before the reason arrives).
  int device() const { return device_; }

 private:
  FailureKind kind_;
  int device_;
};

/// The *origin* of one iteration's failures, not the echoes it caused in
/// the other workers: kinds[d] is device d's failure (nullopt when it did
/// not fail). A poisoned channel echoes as PeerClosed, and the cancelled
/// token as Timeout in a worker that was between ops, so definite kinds
/// (crash/transient/corruption) outrank Timeout, which outranks
/// PeerClosed; ties break toward the lower device id. -1 when none failed.
inline int origin_device(
    const std::vector<std::optional<FailureKind>>& kinds) {
  const auto rank = [](FailureKind kind) {
    return kind == FailureKind::PeerClosed ? 0
           : kind == FailureKind::Timeout  ? 1
                                           : 2;
  };
  int origin = -1;
  for (int d = 0; d < static_cast<int>(kinds.size()); ++d) {
    if (!kinds[d]) continue;
    if (origin < 0 || rank(*kinds[d]) > rank(*kinds[origin])) origin = d;
  }
  return origin;
}

}  // namespace autopipe::runtime
