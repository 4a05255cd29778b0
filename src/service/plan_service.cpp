#include "service/plan_service.h"

#include <exception>
#include <sstream>
#include <type_traits>

namespace autopipe::service {

namespace {

/// 64-bit FNV-1a fed with raw field bytes.
class Fnv1a {
 public:
  template <typename T>
  void add(T value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    bytes(&value, sizeof value);
  }
  void add(const std::string& s) {
    add(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::vector<int> parse_counts(const std::string& csv) {
  std::vector<int> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    out.push_back(std::atoi(item.c_str()));
  }
  return out;
}

/// Blocks whose timings differ between a remembered plan and a config of
/// the same family -- the "how much did this request drift from the
/// family's last plan" distance that gates warm starting.
int changed_blocks(const std::vector<std::pair<double, double>>& timings,
                   const costmodel::ModelConfig& config) {
  if (timings.size() != config.blocks.size()) {
    return static_cast<int>(timings.size()) + config.num_blocks();
  }
  int changed = 0;
  for (std::size_t i = 0; i < timings.size(); ++i) {
    if (timings[i].first != config.blocks[i].fwd_ms ||
        timings[i].second != config.blocks[i].bwd_ms) {
      ++changed;
    }
  }
  return changed;
}

}  // namespace

std::uint64_t config_digest(const costmodel::ModelConfig& config) {
  Fnv1a h;
  const costmodel::ModelSpec& spec = config.spec;
  h.add(spec.name);
  h.add(spec.num_layers);
  h.add(spec.hidden);
  h.add(spec.heads);
  h.add(spec.vocab);
  h.add(spec.default_seq);
  h.add(spec.causal);
  h.add(config.train.micro_batch_size);
  h.add(config.train.seq_len);
  h.add(config.train.recompute);
  h.add(config.device.name);
  h.add(config.device.matmul_tflops);
  h.add(config.device.memband_gbps);
  h.add(config.device.mem_capacity_bytes);
  h.add(config.device.kernel_launch_ms);
  h.add(config.link.name);
  h.add(config.link.latency_ms);
  h.add(config.link.bandwidth_gbps);
  h.add(config.comm_ms);
  h.add(config.blocks.size());
  for (const costmodel::Block& b : config.blocks) {
    h.add(b.name);
    h.add(b.kind);
    h.add(b.fwd_ms);
    h.add(b.bwd_ms);
    h.add(b.bwd_input_ms);
    h.add(b.bwd_weight_ms);
    h.add(b.param_bytes);
    h.add(b.stash_bytes);
    h.add(b.work_bytes);
    h.add(b.output_bytes);
    h.add(b.bw_state_bytes);
    h.add(b.layer_units);
  }
  return h.value();
}

std::string ServiceStats::to_line() const {
  std::ostringstream out;
  out << "stats requests=" << requests << " planned=" << planned
      << " history_hits=" << history_hits << " warm_planned=" << warm_planned
      << " busy=" << busy_rejected << " errors=" << errors
      << " memo_lookups=" << memo_lookups << " memo_misses=" << memo_misses
      << " memos=" << memo_pool << " history=" << history_size
      << " queue=" << queue_depth;
  return out.str();
}

PlanService::PlanService(ServiceOptions options)
    : options_(std::move(options)), pool_(options_.workers) {}

PlanService::~PlanService() = default;

std::string PlanService::handle_line(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const ParsedLine parsed = parse_line(line);
  if (!parsed.error.empty()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return "error id=" + parsed.request.id + " " + parsed.error;
  }
  switch (parsed.verb) {
    case Verb::Ping:
      return "pong";
    case Verb::Stats:
      return stats().to_line();
    case Verb::Shutdown:
      shutdown_.store(true, std::memory_order_release);
      return "bye";
    case Verb::Plan:
      break;
  }

  // Admission control: the plan runs on the bounded worker pool; a full
  // backlog sheds the request instead of queueing it unboundedly. The
  // caller's thread blocks on the result, so concurrency comes from the
  // transports (one handle_line per connection/storm thread).
  const PlanRequest req = parsed.request;
  auto submitted = pool_.try_submit([this, req] { return handle_plan(req); },
                                    options_.max_queue);
  if (!submitted) {
    busy_rejected_.fetch_add(1, std::memory_order_relaxed);
    return "busy id=" + req.id +
           " queue=" + std::to_string(pool_.queue_depth());
  }
  return submitted->get();
}

std::vector<int> PlanService::resolve_warm_hint(
    const PlanRequest& req, const std::string& family,
    const costmodel::ModelConfig& config, bool& from_family) {
  from_family = false;
  if (req.warm == "off") return {};
  if (req.warm != "auto") return parse_counts(req.warm);

  // auto: seed from the family's last plan when the request drifted in few
  // enough blocks for the old plan's neighbourhood to transfer.
  std::lock_guard<std::mutex> lock(history_mu_);
  const auto it = by_family_.find(family);
  if (it == by_family_.end()) return {};
  const HistoryEntry& entry = *it->second;
  if (changed_blocks(entry.timings, config) > options_.warm_max_changed) {
    return {};
  }
  from_family = true;
  return entry.counts;
}

core::SimMemo* PlanService::memo_for(
    std::uint64_t config_digest,
    const std::shared_ptr<const costmodel::ModelConfig>& config,
    int micro_batches, const costmodel::CommModel& comm,
    std::vector<std::shared_ptr<MemoEntry>>& pinned) {
  if (options_.max_memos == 0) return nullptr;
  const std::string key =
      std::to_string(config_digest) + ":" + std::to_string(micro_batches);

  std::lock_guard<std::mutex> lock(memo_mu_);
  auto it = memos_.find(key);
  if (it == memos_.end()) {
    auto entry = std::make_shared<MemoEntry>();
    entry->config = config;
    entry->memo =
        std::make_unique<core::SimMemo>(*entry->config, micro_batches, comm);
    it = memos_.emplace(key, std::move(entry)).first;
    memo_order_.push_back(key);
    // FIFO eviction. In-flight users keep evicted entries alive via their
    // pin; the stats they add after retirement are the one thing this
    // accounting can miss.
    while (memo_order_.size() > options_.max_memos) {
      const std::string victim = memo_order_.front();
      memo_order_.pop_front();
      if (victim == key) {
        memo_order_.push_back(key);
        break;
      }
      const auto vit = memos_.find(victim);
      if (vit != memos_.end()) {
        retired_memo_lookups_ += vit->second->memo->lookups();
        retired_memo_misses_ += vit->second->memo->misses();
        memos_.erase(vit);
      }
    }
  }
  pinned.push_back(it->second);
  return it->second->memo.get();
}

void PlanService::remember(HistoryEntry entry) {
  std::lock_guard<std::mutex> lock(history_mu_);
  if (by_fingerprint_.count(entry.fingerprint) != 0) return;
  history_.push_back(std::move(entry));
  const auto it = std::prev(history_.end());
  by_fingerprint_[it->fingerprint] = it;
  const auto [latest, fresh] = by_family_.try_emplace(it->family, it);
  if (!fresh) {
    // Only a family's latest plan is ever compared for drift.
    BlockTimings().swap(latest->second->timings);
    latest->second = it;
  }
  while (history_.size() > options_.max_history) {
    const auto victim = history_.begin();
    const auto fit = by_fingerprint_.find(victim->fingerprint);
    if (fit != by_fingerprint_.end() && fit->second == victim) {
      by_fingerprint_.erase(fit);
    }
    const auto fam = by_family_.find(victim->family);
    if (fam != by_family_.end() && fam->second == victim) {
      by_family_.erase(fam);
    }
    history_.pop_front();
  }
}

std::string PlanService::handle_plan(const PlanRequest& req) {
  try {
    // O(1) fast path: an exact repeat is served from the stored canonical
    // response (same fingerprint -> same bytes by the purity contract).
    std::string fingerprint = canonical_request(req);
    {
      std::lock_guard<std::mutex> lock(history_mu_);
      const auto it = by_fingerprint_.find(fingerprint);
      if (it != by_fingerprint_.end()) {
        history_hits_.fetch_add(1, std::memory_order_relaxed);
        return "ok id=" + req.id + " " + it->second->canonical +
               " # src=history";
      }
    }

    // Obtain the config: analytic zoo build, or the profile session (cache
    // hit / drift-repaired / re-measured) for source=cache.
    std::string profile_note;
    costmodel::ModelConfig config;
    if (req.source == "cache") {
      const costmodel::ModelSpec spec = request_spec(req);
      const profiler::SessionResult session = profiler::obtain_profile(
          spec, {req.micro_batch, req.seq_len, req.recompute},
          options_.session);
      config = session.config;
      apply_perturbs(config, req.perturbs);
      profile_note = session.from_cache
                         ? (session.drift_checked ? "drift_clean" : "hit")
                         : (session.drifted.empty()
                                ? "measured:" + session.miss_reason
                                : "drift_repaired");
    } else {
      config = request_config(req);
    }
    const auto config_sp =
        std::make_shared<const costmodel::ModelConfig>(std::move(config));
    const std::uint64_t digest = config_digest(*config_sp);
    std::string family = family_key(req);

    bool from_family = false;
    const std::vector<int> hint =
        resolve_warm_hint(req, family, *config_sp, from_family);

    // Pins keep shared memo entries alive across this solve even if the
    // pool evicts them concurrently.
    std::vector<std::shared_ptr<MemoEntry>> pinned;
    SolveHooks hooks;
    hooks.memo_provider = [this, digest, config_sp, &pinned](
                              const costmodel::ModelConfig& cfg,
                              int micro_batches,
                              const costmodel::CommModel& comm) {
      (void)cfg;  // the service's own copy backs the memo
      return memo_for(digest, config_sp, micro_batches, comm, pinned);
    };

    const Solved solved = solve_plan(req, *config_sp, hint, hooks);
    planned_.fetch_add(1, std::memory_order_relaxed);
    if (solved.result.warm_started) {
      warm_planned_.fetch_add(1, std::memory_order_relaxed);
    }
    HistoryEntry entry;
    entry.canonical = solved.canonical;
    entry.counts = solved.result.plan.partition.counts;
    entry.timings.reserve(config_sp->blocks.size());
    for (const costmodel::Block& b : config_sp->blocks) {
      entry.timings.emplace_back(b.fwd_ms, b.bwd_ms);
    }
    entry.fingerprint = std::move(fingerprint);
    entry.family = std::move(family);
    remember(std::move(entry));

    std::ostringstream diag;
    diag << " # src=planned evals=" << solved.result.evaluations
         << " sims=" << solved.result.unique_simulations
         << " hits=" << solved.result.cache_hits
         << " warm=" << (solved.result.warm_started ? 1 : 0)
         << " family=" << (from_family ? 1 : 0);
    if (!profile_note.empty()) diag << " profile=" << profile_note;
    return "ok id=" + req.id + " " + solved.canonical + diag.str();
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return "error id=" + req.id + " " + e.what();
  }
}

ServiceStats PlanService::stats() const {
  ServiceStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.planned = planned_.load(std::memory_order_relaxed);
  out.history_hits = history_hits_.load(std::memory_order_relaxed);
  out.warm_planned = warm_planned_.load(std::memory_order_relaxed);
  out.busy_rejected = busy_rejected_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    out.memo_lookups = retired_memo_lookups_;
    out.memo_misses = retired_memo_misses_;
    for (const auto& [key, entry] : memos_) {
      (void)key;
      out.memo_lookups += entry->memo->lookups();
      out.memo_misses += entry->memo->misses();
    }
    out.memo_pool = memos_.size();
  }
  {
    std::lock_guard<std::mutex> lock(history_mu_);
    out.history_size = history_.size();
  }
  out.queue_depth = pool_.queue_depth();
  return out;
}

}  // namespace autopipe::service
