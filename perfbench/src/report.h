// Shared plumbing of the repository benchmark: clocks, the span tracer the
// traced run records around public library calls, and the result object
// every workload fills and main() prints as the final JSON line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in milliseconds.
double now_ms();
/// CPU time of the whole process (all threads) in milliseconds.
double process_cpu_ms();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();
/// Time the hypervisor has taken from this VM's CPUs so far (steal time,
/// all CPUs, /proc/stat), in milliseconds; 0 where it is not reported.
double host_steal_ms();

/// Linear-interpolated percentile (q in [0, 100]) of a sample.
double percentile(std::vector<double> xs, double q);
double median(const std::vector<double>& xs);

/// In-memory span recorder. Spans are recorded only from the benchmark's
/// driving thread, around calls into the library's public functions; the
/// library itself is not instrumented. A null Tracer* means tracing is off
/// and a Span costs one pointer test.
class Tracer {
 public:
  struct Event {
    const char* name;  ///< static string: the layer call being timed
    double start_ms;
    double end_ms;
    int parent;     ///< index of the enclosing span, -1 at top level
    long trace_id;  ///< iteration or request the span belongs to
  };

  /// Spans opened after this call belong to `id` (one iteration or request).
  void set_trace_id(long id) { trace_id_ = id; }

  int open(const char* name);
  void close(int index);

  /// Durations (ms) of every closed span with this name, in record order.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Writes the spans as a Chrome trace (chrome://tracing, Perfetto).
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

  std::size_t size() const { return events_.size(); }

 private:
  std::vector<Event> events_;
  std::vector<int> open_;
  long trace_id_ = 0;
};

/// RAII span; no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~Span() {
    if (tracer_) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Timed closed loop shared by every workload. `op` runs one iteration or
/// request with the tracer it is given and returns false when it failed.
/// Without a tracer every op lands in `latencies_ms`; with one, blocks of
/// `block` ops alternate untraced (`latencies_ms`) and traced
/// (`traced_latencies_ms`), so both see the same host conditions.
struct Window {
  std::vector<double> latencies_ms;
  std::vector<double> traced_latencies_ms;
  double wall_ms = 0;
  double steal_ms = 0;  ///< host steal during the window (diagnostic)
  long ops = 0;
  long failed = 0;
};

template <class Op>
Window run_window(double seconds, Tracer* tracer, int block, Op&& op) {
  Window w;
  const double steal = host_steal_ms();
  const double start = now_ms();
  const double end = start + seconds * 1e3;
  for (long i = 0; now_ms() < end; ++i) {
    const bool traced = tracer != nullptr && (i / block) % 2 == 1;
    if (traced) tracer->set_trace_id(i);
    const double a = now_ms();
    const bool ok = op(traced ? tracer : nullptr);
    const double b = now_ms();
    (traced ? w.traced_latencies_ms : w.latencies_ms).push_back(b - a);
    ++w.ops;
    if (!ok) ++w.failed;
  }
  w.wall_ms = now_ms() - start;
  w.steal_ms = host_steal_ms() - steal;
  return w;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports: ops attempted and failed (a failed op is an
/// exception, an error reply or a correctness mismatch) and its metrics.
struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// The end-to-end set shared by every workload: throughput over the
  /// window, per-op latency p50 and the workload's fixed tail percentile,
  /// the median of the repeated set-up times and peak RSS. `work` is the
  /// total tokens or plans done in the window.
  void add_end_to_end(const Window& window, double work, double tail_pct,
                      const std::vector<double>& setup_s);
  /// Tracing overhead of a traced window: traced blocks' p50 against the
  /// interleaved untraced blocks'.
  void add_trace_overhead(const Window& window);
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string to_json() const;
};

/// One informational JSON line on stdout (never the last line).
void print_info(const std::string& json_object);

}  // namespace perfbench
