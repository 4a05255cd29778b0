#include "supervisor/chaos.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace autopipe::supervisor {

const char* to_string(ChaosKind kind) {
  switch (kind) {
    case ChaosKind::Crash: return "crash";
    case ChaosKind::Hang: return "hang";
    case ChaosKind::Straggler: return "straggler";
    case ChaosKind::Transient: return "transient";
    case ChaosKind::TornCheckpoint: return "torn-checkpoint";
    case ChaosKind::CorruptActivation: return "corrupt-activation";
    case ChaosKind::CorruptGradient: return "corrupt-gradient";
    case ChaosKind::CorruptWeight: return "corrupt-weight";
    case ChaosKind::CorruptOptimizer: return "corrupt-optimizer";
  }
  return "?";
}

bool is_corruption(ChaosKind kind) {
  return kind == ChaosKind::CorruptActivation ||
         kind == ChaosKind::CorruptGradient ||
         kind == ChaosKind::CorruptWeight ||
         kind == ChaosKind::CorruptOptimizer;
}

std::vector<const ChaosEvent*> ChaosScript::at_step(int step) const {
  std::vector<const ChaosEvent*> out;
  for (const ChaosEvent& e : events) {
    if (e.step == step) out.push_back(&e);
  }
  return out;
}

ChaosScript ChaosScript::sample(const ChaosScriptOptions& options,
                                std::uint64_t seed) {
  if (options.steps < 1 || options.devices < 1 || options.ops_per_device < 1 ||
      options.incidents < 0) {
    throw std::invalid_argument("chaos script: bad shape");
  }
  util::Rng rng(seed);
  ChaosScript script;
  // (step, device) pairs already hosting a runtime fault: one origin per
  // attempt keeps incident attribution unambiguous.
  std::vector<std::pair<int, int>> taken;
  constexpr ChaosKind kCycle[] = {ChaosKind::Crash, ChaosKind::Hang,
                                  ChaosKind::Straggler, ChaosKind::Transient,
                                  ChaosKind::TornCheckpoint};
  for (int i = 0; i < options.incidents; ++i) {
    ChaosEvent e;
    e.kind = options.classes.empty()
                 ? kCycle[i % 5]
                 : options.classes[i % options.classes.size()];
    // Every incident consumes the same number of draws regardless of kind
    // or collision retries' outcome, keeping scripts stable under option
    // tweaks: draw (step, device, op) up to a bounded number of times.
    for (int tries = 0; tries < 16; ++tries) {
      e.step = static_cast<int>(rng.next_double() * options.steps);
      e.step = std::min(e.step, options.steps - 1);
      e.device = static_cast<int>(rng.next_double() * options.devices);
      e.device = std::min(e.device, options.devices - 1);
      e.op_index =
          static_cast<int>(rng.next_double() * options.ops_per_device);
      e.op_index = std::min(e.op_index, options.ops_per_device - 1);
      if (e.kind == ChaosKind::TornCheckpoint) break;  // no collision domain
      if (is_corruption(e.kind)) {
        // One corruption per step, full stop: two flips detected by the
        // same sentinel would collapse into one incident and break the
        // injected-to-observed 1:1 accounting a soak asserts.
        const bool step_taken =
            std::any_of(taken.begin(), taken.end(),
                        [&](const auto& k) { return k.first == e.step; });
        if (!step_taken) {
          taken.emplace_back(e.step, -1);
          break;
        }
        continue;
      }
      const auto key = std::make_pair(e.step, e.device);
      if (std::find(taken.begin(), taken.end(), key) == taken.end()) {
        taken.push_back(key);
        break;
      }
    }
    e.delay_ms = options.straggler_delay_ms;
    e.op_count = 2;
    e.failures = options.transient_failures;
    if (is_corruption(e.kind)) {
      // Extra draws only for Corrupt* kinds: legacy scripts stay byte
      // stable for a given seed.
      e.elem = rng.next_u64();
      e.bit = static_cast<int>(rng.next_double() * 32) % 32;
    }
    script.events.push_back(e);
  }
  return script;
}

void ArmedStorage::create_dirs(const std::string& path) {
  inner_.create_dirs(path);
}

void ArmedStorage::write_file(const std::string& path, std::string bytes) {
  if (armed_) {
    armed_ = false;
    ++torn_writes_;
    const std::size_t total = bytes.size();
    const std::size_t keep = std::min(keep_bytes_, total);
    bytes.resize(keep);
    inner_.write_file(path, std::move(bytes));
    throw ckpt::StorageError("armed torn write: " + path + " kept " +
                             std::to_string(keep) + "/" +
                             std::to_string(total) + " bytes");
  }
  inner_.write_file(path, std::move(bytes));
}

void ArmedStorage::rename_file(const std::string& from, const std::string& to) {
  inner_.rename_file(from, to);
}

std::string ArmedStorage::read_file(const std::string& path) {
  return inner_.read_file(path);
}

bool ArmedStorage::exists(const std::string& path) { return inner_.exists(path); }

std::vector<std::string> ArmedStorage::list_dir(const std::string& dir) {
  return inner_.list_dir(dir);
}

void ArmedStorage::remove_file(const std::string& path) {
  inner_.remove_file(path);
}

void ArmedStorage::remove_dir(const std::string& path) {
  inner_.remove_dir(path);
}

}  // namespace autopipe::supervisor
