// Shared machinery of the repository benchmark: run options, timing summaries, the
// report a workload fills (metrics, correctness checks, operation counts), span
// recording around calls into the libraries, and the process allocation counter.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/span.h"

namespace perfbench {

namespace obs = espresso::obs;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Heap allocations made by this process so far (the binary replaces operator new).
uint64_t AllocationCount();

// Peak resident set size of this process, in MiB.
double PeakRssMb();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;  // select-cold fingerprint reference file
  std::string trace_out;  // chrome trace written by a traced run
};

// Samples of one timing, summarised as percentiles.
class Timing {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t count() const { return values_.size(); }
  double Sum() const;
  // Harrell-Davis estimate of the q-quantile, q in (0, 1).
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

 private:
  std::vector<double> values_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // 0 for values that are not sampled timings
};

// What one workload run reports. End-to-end metrics go out untraced, per-layer
// metrics from the traced run; `attempted`/`failed` count the workload's operations
// and `correct` is false once any output check fails.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                size_t samples = 0);
  void Layer(const std::string& name, double value, const std::string& unit,
             size_t samples = 0);
  // One operation of the workload: counts it, and as failed when !ok.
  void Operation(bool ok, const std::string& failure);
  // An output check that is not itself an operation.
  void Check(bool ok, const std::string& failure);
  // A human-readable report line (printed before the result line).
  void Note(const std::string& line);

  const std::map<std::string, Metric>& end_to_end() const { return end_to_end_; }
  const std::map<std::string, Metric>& layers() const { return layers_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

 private:
  void LogFailure(const std::string& failure);

  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layers_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  size_t failures_logged_ = 0;
};

// Prints a metric line: "  name = value unit (n=samples)".
void PrintMetric(const std::string& name, const Metric& metric);

// --- Host speed ------------------------------------------------------------------
//
// The CPUs of a shared host change speed by up to ~1.8x over spans of several to tens
// of seconds (other tenants' load), and the wall time of an identical selection moves
// with them. The host-speed probe times a fixed computation in the benchmark's own
// code, which calls no library code and keeps its data in memory of its own, so that
// a workload can rescale a latency to the reference speed:
//   scaled = measured * kReferenceProbeSeconds / probe,
// with `probe` the mean of the probes taken just before and just after the measured
// operation. No change to the libraries moves the probe.

// The probe's time on the host the reference speed is named after (4-vCPU Xeon,
// RelWithDebInfo build): its median over five select-cold runs.
inline constexpr double kReferenceProbeSeconds = 6.5e-3;

// Wall time of the fixed computation, in seconds.
double ProbeHostSeconds();

// --- Spans -------------------------------------------------------------------------
//
// Spans are recorded only in the traced half of a traced run, into the benchmark's
// own collector (never the process-global one the libraries may write to), so the
// untraced measurements carry no span cost at all.

obs::TraceCollector& Tracer();
void SetTracing(bool enabled);

class Span {
 public:
  explicit Span(const char* name);

 private:
  std::optional<obs::ScopedSpan> span_;
};

// Per-name span totals over the collector: count, total and self time (total minus
// the time covered by directly nested spans on the same thread).
struct SpanTotals {
  size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> SpanSelfTimes(const obs::TraceCollector& trace);

// Reads one counter from the process-wide metrics registry (0 when absent).
uint64_t RegistryCounter(const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
