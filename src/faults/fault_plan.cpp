#include "faults/fault_plan.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace autopipe::faults {

double FaultPlan::slowdown(int device, double at_ms) const {
  double factor = 1.0;
  for (const Straggler& s : stragglers) {
    if (s.device == device && at_ms >= s.start_ms && at_ms < s.end_ms) {
      factor *= s.slowdown;
    }
  }
  return factor;
}

TransferOutcome FaultPlan::transfer(int boundary, double depart_ms,
                                    double base_lag_ms) const {
  TransferOutcome out;
  double depart = depart_ms;
  // Outages first: the message cannot leave while the link is down. Each
  // failed attempt costs one backoff; the loop is bounded because windows
  // are finite and backoffs positive (validate() enforces both).
  for (const LinkOutage& o : outages) {
    if (o.boundary != boundary) continue;
    while (depart >= o.start_ms && depart < o.end_ms) {
      depart += o.retry_backoff_ms;
      ++out.retries;
    }
  }
  double lag = base_lag_ms + (depart - depart_ms);
  for (const LinkSpike& s : spikes) {
    if (s.boundary == boundary && depart >= s.start_ms && depart < s.end_ms) {
      lag += s.extra_ms;
    }
  }
  out.lag_ms = lag;
  return out;
}

const DeviceCrash* FaultPlan::crash_for(int device) const {
  const DeviceCrash* first = nullptr;
  for (const DeviceCrash& c : crashes) {
    if (c.device == device && (first == nullptr || c.at_ms < first->at_ms)) {
      first = &c;
    }
  }
  return first;
}

bool FaultPlan::crashes_before_op(int device, int op_index) const {
  for (const DeviceCrash& c : crashes) {
    if (c.device == device && c.after_ops >= 0 && op_index >= c.after_ops) {
      return true;
    }
  }
  return false;
}

const TransientOpFault* FaultPlan::transient_for(int device,
                                                 int op_index) const {
  for (const TransientOpFault& t : transients) {
    if (t.device == device && t.op_index == op_index) return &t;
  }
  return nullptr;
}

bool FaultPlan::hangs_before_op(int device, int op_index) const {
  for (const HangFault& h : hangs) {
    if (h.device == device && h.op_index == op_index) return true;
  }
  return false;
}

double FaultPlan::slow_delay_ms(int device, int op_index) const {
  double total = 0;
  for (const SlowOps& s : slow_ops) {
    if (s.device == device && op_index >= s.first_op &&
        op_index < s.first_op + s.op_count) {
      total += s.delay_ms;
    }
  }
  return total;
}

void FaultPlan::validate(int devices, int boundaries) const {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("fault plan: " + what);
  };
  for (const Straggler& s : stragglers) {
    if (s.device < 0 || s.device >= devices) bad("straggler device out of range");
    if (s.slowdown < 1.0) bad("straggler slowdown must be >= 1");
    if (s.end_ms < s.start_ms) bad("straggler window is inverted");
  }
  for (const LinkSpike& s : spikes) {
    if (s.boundary < 0 || s.boundary >= boundaries) {
      bad("spike boundary out of range");
    }
    if (s.extra_ms < 0) bad("spike latency must be >= 0");
  }
  for (const LinkOutage& o : outages) {
    if (o.boundary < 0 || o.boundary >= boundaries) {
      bad("outage boundary out of range");
    }
    if (o.retry_backoff_ms <= 0) bad("outage backoff must be > 0");
    if (!(o.end_ms >= o.start_ms) ||
        o.end_ms == std::numeric_limits<double>::infinity()) {
      bad("outage window must be finite and ordered");
    }
  }
  for (const DeviceCrash& c : crashes) {
    if (c.device < 0 || c.device >= devices) bad("crash device out of range");
  }
  for (const TransientOpFault& t : transients) {
    if (t.device < 0 || t.device >= devices) {
      bad("transient device out of range");
    }
    if (t.op_index < 0) bad("transient op index must be >= 0");
    if (t.failures < 1) bad("transient failure count must be >= 1");
  }
  for (const HangFault& h : hangs) {
    if (h.device < 0 || h.device >= devices) bad("hang device out of range");
    if (h.op_index < 0) bad("hang op index must be >= 0");
  }
  for (const SlowOps& s : slow_ops) {
    if (s.device < 0 || s.device >= devices) {
      bad("slow-ops device out of range");
    }
    if (s.first_op < 0) bad("slow-ops first op must be >= 0");
    if (s.op_count < 1) bad("slow-ops op count must be >= 1");
    if (s.delay_ms < 0) bad("slow-ops delay must be >= 0");
  }
}

FaultPlan sample_fault_plan(const FaultDistribution& dist, int devices,
                            int boundaries, double horizon_ms,
                            std::uint64_t seed) {
  if (devices < 1 || boundaries < 0 || horizon_ms < 0) {
    throw std::invalid_argument("sample_fault_plan: bad pipeline shape");
  }
  util::Rng rng(seed);
  FaultPlan plan;
  for (int d = 0; d < devices; ++d) {
    // Every device consumes the same number of draws whether or not it
    // straggles, so one device's outcome never shifts another's stream.
    const double roll = rng.next_double();
    const double slow = rng.uniform(dist.slowdown_min, dist.slowdown_max);
    const double at = rng.next_double();
    if (roll < dist.straggler_prob) {
      Straggler s;
      s.device = d;
      const double len = dist.window_frac * horizon_ms;
      s.start_ms = at * std::max(0.0, horizon_ms - len);
      s.end_ms = s.start_ms + len;
      s.slowdown = slow;
      plan.stragglers.push_back(s);
    }
  }
  for (int b = 0; b < boundaries; ++b) {
    const double spike_roll = rng.next_double();
    const double extra = rng.uniform(dist.spike_min_ms, dist.spike_max_ms);
    const double spike_at = rng.next_double();
    if (spike_roll < dist.spike_prob) {
      LinkSpike s;
      s.boundary = b;
      const double len = dist.window_frac * horizon_ms;
      s.start_ms = spike_at * std::max(0.0, horizon_ms - len);
      s.end_ms = s.start_ms + len;
      s.extra_ms = extra;
      plan.spikes.push_back(s);
    }
    const double outage_roll = rng.next_double();
    const double outage_at = rng.next_double();
    if (outage_roll < dist.outage_prob) {
      LinkOutage o;
      o.boundary = b;
      const double len = dist.outage_frac * horizon_ms;
      o.start_ms = outage_at * std::max(0.0, horizon_ms - len);
      o.end_ms = o.start_ms + len;
      o.retry_backoff_ms = dist.retry_backoff_ms;
      plan.outages.push_back(o);
    }
  }
  return plan;
}

}  // namespace autopipe::faults
