// Planner-as-a-service: the long-lived request handler behind plan_serve.
//
// A PlanService turns the offline auto_plan facade into a daemon-grade
// handler with three kinds of cross-request state, all behaviour-neutral by
// construction (the canonical response stays a pure function of the request
// plus the echoed warm hint -- see protocol.h):
//
//  * a shared simulation memo pool, keyed by (config digest, micro-batch
//    count): repeated or near-repeated requests skip simulations entirely
//    (simulations are pure, so sharing never changes bytes);
//  * a plan history: an exact repeat (same canonical request) is served in
//    O(1) from the stored canonical response, and the latest plan of each
//    request *family* (same shape, any block timings) seeds warm-started
//    incremental re-planning when a request drifts in at most
//    `warm_max_changed` blocks. A family's latest entry keeps only the
//    per-block timings that drift distance reads, not the config;
//  * admission control: plan requests run on a bounded worker pool
//    (util::ThreadPool::try_submit); when the backlog reaches `max_queue`
//    the request is shed with a `busy` reply instead of queueing unboundedly.
//
// handle_line() is thread-safe and blocking: transports (stdio loop, unix
// socket connections, bench storm threads) call it concurrently and each
// call returns exactly one response line.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/planner.h"
#include "profiler/session.h"
#include "service/protocol.h"
#include "util/thread_pool.h"

namespace autopipe::service {

struct ServiceOptions {
  int workers = 2;             ///< concurrent plan requests
  std::size_t max_queue = 16;  ///< backlog bound before `busy` shedding
  /// Ignored: the planner search is sequential. The field stays only
  /// because the repository benchmark's plan-cold workload still assigns
  /// it; it goes once that assignment does.
  int planner_threads = 1;
  std::size_t max_memos = 8;   ///< live (config, m) memo entries
  std::size_t max_history = 256;  ///< remembered plans (FIFO eviction)
  /// Auto warm-start bound: seed from the family's last plan only when at
  /// most this many blocks changed timing; beyond it the neighbourhood is
  /// unlikely to transfer and the search runs cold.
  int warm_max_changed = 8;
  /// Profile source for `source=cache` requests (cache_dir, staleness,
  /// drift detection). The daemon's long life is exactly when profiles go
  /// stale, so SessionOptions::drift pays off here.
  profiler::SessionOptions session;
};

struct ServiceStats {
  long requests = 0;
  long planned = 0;       ///< full planner searches run
  long history_hits = 0;  ///< served from the plan history
  long warm_planned = 0;  ///< searches seeded from a warm hint
  long busy_rejected = 0;
  long errors = 0;
  long memo_lookups = 0;  ///< across live + evicted memo entries
  long memo_misses = 0;
  std::size_t memo_pool = 0;
  std::size_t history_size = 0;
  std::size_t queue_depth = 0;

  std::string to_line() const;  ///< the `stats` verb's response line
};

/// 64-bit FNV-1a over the bit patterns of every config field: spec, train
/// config, device, link, comm_ms and every Block field (strings with their
/// length). The memo-pool key component that makes "same shape, drifted
/// timings" a different memo.
std::uint64_t config_digest(const costmodel::ModelConfig& config);

class PlanService {
 public:
  explicit PlanService(ServiceOptions options = {});
  ~PlanService();
  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// One request line in, exactly one response line out. Never throws;
  /// malformed or failing requests produce `error ...` lines. Safe to call
  /// from any number of transport threads.
  std::string handle_line(const std::string& line);

  ServiceStats stats() const;
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

 private:
  /// One shared simulation memo plus the config copy it references (SimMemo
  /// holds a reference, so the config must live exactly as long).
  struct MemoEntry {
    std::shared_ptr<const costmodel::ModelConfig> config;
    std::unique_ptr<core::SimMemo> memo;
  };

  /// Per-block (fwd_ms, bwd_ms): all the warm-start gate compares. Kept
  /// only while the entry is its family's latest plan.
  using BlockTimings = std::vector<std::pair<double, double>>;

  struct HistoryEntry {
    std::string canonical;  ///< response tokens after "ok id=<id> "
    std::vector<int> counts;
    BlockTimings timings;
    std::string fingerprint;
    std::string family;
  };

  std::string handle_plan(const PlanRequest& req);
  std::vector<int> resolve_warm_hint(const PlanRequest& req,
                                     const std::string& family,
                                     const costmodel::ModelConfig& config,
                                     bool& from_family);
  core::SimMemo* memo_for(std::uint64_t config_digest,
                          const std::shared_ptr<const costmodel::ModelConfig>&
                              config,
                          int micro_batches, const costmodel::CommModel& comm,
                          std::vector<std::shared_ptr<MemoEntry>>& pinned);
  void remember(HistoryEntry entry);

  ServiceOptions options_;
  util::ThreadPool pool_;
  std::atomic<bool> shutdown_{false};

  // --- memo pool (config digest + micro-batch count -> shared SimMemo).
  mutable std::mutex memo_mu_;
  std::unordered_map<std::string, std::shared_ptr<MemoEntry>> memos_;
  std::deque<std::string> memo_order_;
  long retired_memo_lookups_ = 0;
  long retired_memo_misses_ = 0;

  // --- plan history (exact fingerprints + latest plan per family).
  mutable std::mutex history_mu_;
  std::list<HistoryEntry> history_;
  std::unordered_map<std::string, std::list<HistoryEntry>::iterator>
      by_fingerprint_;
  std::unordered_map<std::string, std::list<HistoryEntry>::iterator>
      by_family_;

  // --- counters.
  std::atomic<long> requests_{0};
  std::atomic<long> planned_{0};
  std::atomic<long> history_hits_{0};
  std::atomic<long> warm_planned_{0};
  std::atomic<long> busy_rejected_{0};
  std::atomic<long> errors_{0};
};

}  // namespace autopipe::service
