#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "util/stats.h"

namespace perfbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_steal_ms() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  if (!in || cpu != "cpu") return 0;
  return fields[7] * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double percentile(std::vector<double> xs, double q) {
  return xs.empty() ? 0.0 : autopipe::util::percentile(std::move(xs), q);
}

double median(const std::vector<double>& xs) { return percentile(xs, 50); }

int Tracer::open(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  events_.push_back({name, now_ms(), 0.0, parent, trace_id_});
  open_.push_back(static_cast<int>(events_.size()) - 1);
  return open_.back();
}

void Tracer::close(int index) {
  events_[static_cast<std::size_t>(index)].end_ms = now_ms();
  open_.pop_back();
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Event& e : events_) {
    if (name == e.name) out.push_back(e.end_ms - e.start_ms);
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = events_.empty() ? 0.0 : events_.front().start_ms;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"trace\":%ld}}",
                  i == 0 ? "" : ",", e.name, (e.start_ms - origin) * 1e3,
                  (e.end_ms - e.start_ms) * 1e3, i, e.parent, e.trace_id);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::add_end_to_end(const Window& window, double work,
                            double tail_pct,
                            const std::vector<double>& setup_s) {
  const std::vector<double>& latencies_ms = window.latencies_ms;
  add("throughput_per_s", work / (window.wall_ms / 1e3), "1/s");
  add("latency_ms.p50", percentile(latencies_ms, 50), "ms");
  add("latency_ms.tail", percentile(latencies_ms, tail_pct), "ms");
  add("setup_s", median(setup_s), "s");
  add("peak_rss_mb", peak_rss_mb(), "MB");
  const auto n = static_cast<double>(latencies_ms.size());
  std::string reps;
  for (double s : setup_s) {
    char v[32];
    std::snprintf(v, sizeof(v), "%s%.3f", reps.empty() ? "" : ",", s);
    reps += v;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"tail_percentile\":%.1f,\"latency_samples\":%.0f,"
                "\"samples_beyond_tail\":%.0f,\"latency_ms\":{\"p10\":%.4f,"
                "\"p90\":%.4f,\"p95\":%.4f,\"p99\":%.4f,\"max\":%.4f},"
                "\"setup_reps_s\":[%s],\"host_steal_ms\":%.0f}",
                tail_pct, n, std::floor(n * (1.0 - tail_pct / 100.0)),
                percentile(latencies_ms, 10), percentile(latencies_ms, 90),
                percentile(latencies_ms, 95), percentile(latencies_ms, 99),
                percentile(latencies_ms, 100), reps.c_str(), window.steal_ms);
  print_info(buf);
}

void Result::add_trace_overhead(const Window& window) {
  const double untraced = median(window.latencies_ms);
  const double traced = median(window.traced_latencies_ms);
  add("trace.latency_ms.p50", traced, "ms");
  add("trace.untraced_latency_ms.p50", untraced, "ms");
  add("trace.overhead_ratio", traced / untraced, "ratio");
}

std::string Result::to_json() const {
  // A non-finite metric is a measurement defect: report the run incorrect.
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  std::string out = "{\"correct\":";
  out += failed == 0 && finite ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g keeps every digit; non-finite values are not valid JSON.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", m.name.c_str(), v, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

void print_info(const std::string& json_object) {
  std::printf("%s\n", json_object.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
