#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory_resource>
#include <new>
#include <unordered_map>

#include "src/obs/metrics.h"

// --- Allocation counting ----------------------------------------------------------
//
// The global allocating operators forward to malloc and count every call, so the
// mem.* layer metrics are measured in this binary rather than inferred.

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
// GCC cannot see that operator new above is malloc, and warns on every free below.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {

uint64_t AllocationCount() { return g_allocations.load(std::memory_order_relaxed); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Timing::Sum() const {
  double sum = 0.0;
  for (double v : values_) {
    sum += v;
  }
  return sum;
}

namespace {

// Continued fraction of the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const double qab = a + b, qap = a + 1.0, qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
  double h = d;
  for (int m = 1; m <= 1000; ++m) {
    const double m2 = 2.0 * m;
    for (const double aa : {m * (b - m) * x / ((qam + m2) * (a + m2)),
                            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))}) {
      d = 1.0 + aa * d;
      d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
      c = 1.0 + aa / c;
      c = std::fabs(c) < kTiny ? kTiny : c;
      h *= d * c;
    }
    if (std::fabs(d * c - 1.0) < 1e-15) {
      break;
    }
  }
  return h;
}

// Regularized incomplete beta function I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) {
    return 0.0;
  }
  if (x >= 1.0) {
    return 1.0;
  }
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  return x < (a + 1.0) / (a + b + 2.0)
             ? front * BetaContinuedFraction(a, b, x) / a
             : 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

}  // namespace

// Harrell-Davis estimate: a Beta-weighted mean of all order statistics. The workloads
// mix inputs of very different cost, so a single order statistic can sit on the gap
// between two inputs' latency clusters and jump between them from run to run; the
// weighted estimate moves smoothly instead.
double Timing::Percentile(double q) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  const double a = (n + 1.0) * q, b = (n + 1.0) * (1.0 - q);
  double estimate = 0.0, below = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const double upto = IncompleteBeta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * sorted[i];
    below = upto;
  }
  return estimate;
}

namespace {

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// Keeps the probe's result observable, so its work cannot be optimised away.
std::atomic<uint64_t> g_probe_sink{0};

// The probe's memory, made on the first call and reused by every run: neither the
// state of the process heap nor the libraries' allocations change where the probe's
// data lies.
struct ProbeMemory {
  std::vector<std::byte> arena = std::vector<std::byte>(size_t{4} << 20);
  std::vector<double> keys = std::vector<double>(20000);
  std::vector<uint64_t> counters = std::vector<uint64_t>(4096);
};

// Hash-map inserts and lookups (node allocation, dependent loads) and a sort:
// latency-bound, cache-missing, branchy work. Fixed inputs, so the work is the same
// on every run.
double HashMapRun(ProbeMemory* memory) {
  const Clock::time_point start = Clock::now();
  std::pmr::monotonic_buffer_resource resource(memory->arena.data(), memory->arena.size(),
                                               std::pmr::null_memory_resource());
  std::pmr::unordered_map<uint64_t, uint64_t> map(&resource);
  uint64_t x = 0x9e3779b97f4a7c15ull, found = 0;
  for (int i = 0; i < 20000; ++i) {
    x = XorShift(x);
    map[x % 50000] += static_cast<uint64_t>(i);
  }
  for (double& key : memory->keys) {
    x = XorShift(x);
    key = static_cast<double>(x % 1000003);
    found += map.count(x % 50000);
  }
  std::sort(memory->keys.begin(), memory->keys.end());
  g_probe_sink += found + static_cast<uint64_t>(memory->keys[memory->keys.size() / 2]);
  return SecondsSince(start);
}

// Eight independent random streams updating a 32 KiB table: throughput-bound work
// that keeps the core's execution units busy.
double StreamsRun(ProbeMemory* memory) {
  const Clock::time_point start = Clock::now();
  uint64_t streams[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 150000; ++i) {
    for (uint64_t& x : streams) {
      x = XorShift(x);
      memory->counters[(x >> 3) & (memory->counters.size() - 1)] += x;
    }
  }
  g_probe_sink += memory->counters[streams[0] & (memory->counters.size() - 1)];
  return SecondsSince(start);
}

}  // namespace

// Over 120 back-to-back identical selections spanning the host's slow and fast phases,
// the log of a selection's time moved 1.2-1.4 times as far as that of the
// latency-bound part and 0.5-0.7 times as far as that of the throughput-bound part.
// The two parts take similar time, so their sum moves about as far as a selection.
double ProbeHostSeconds() {
  static ProbeMemory* memory = new ProbeMemory();  // lives for the run
  return HashMapRun(memory) + StreamsRun(memory);
}

void Report::EndToEnd(const std::string& name, double value, const std::string& unit,
                      size_t samples) {
  end_to_end_[name] = Metric{value, unit, samples};
}

void Report::Layer(const std::string& name, double value, const std::string& unit,
                   size_t samples) {
  layers_[name] = Metric{value, unit, samples};
}

void Report::Operation(bool ok, const std::string& failure) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    LogFailure(failure);
  }
}

void Report::Check(bool ok, const std::string& failure) {
  if (!ok) {
    correct_ = false;
    LogFailure(failure);
  }
}

void Report::Note(const std::string& line) { std::cout << line << "\n"; }

void Report::LogFailure(const std::string& failure) {
  // The first few failures are enough to diagnose; a systematic fault would
  // otherwise flood the log with one line per operation.
  if (failures_logged_++ < 20) {
    std::cerr << "perfbench: FAILED: " << failure << "\n";
  }
}

void PrintMetric(const std::string& name, const Metric& metric) {
  char line[256];
  if (metric.samples > 0) {
    std::snprintf(line, sizeof(line), "  %-44s %14.6g %-8s (n=%zu)", name.c_str(),
                  metric.value, metric.unit.c_str(), metric.samples);
  } else {
    std::snprintf(line, sizeof(line), "  %-44s %14.6g %s", name.c_str(), metric.value,
                  metric.unit.c_str());
  }
  std::cout << line << "\n";
}

obs::TraceCollector& Tracer() {
  static obs::TraceCollector* collector = new obs::TraceCollector();  // lives for the run
  return *collector;
}

void SetTracing(bool enabled) { Tracer().set_enabled(enabled); }

Span::Span(const char* name) {
  if (Tracer().enabled()) {
    span_.emplace(name, "perfbench", obs::Histogram{}, /*metrics=*/nullptr, &Tracer());
  }
}

std::map<std::string, SpanTotals> SpanSelfTimes(const obs::TraceCollector& trace) {
  std::map<std::string, SpanTotals> totals;
  std::map<uint32_t, std::vector<obs::TraceCollector::SpanEvent>> by_thread;
  for (obs::TraceCollector::SpanEvent& event : trace.spans()) {
    by_thread[event.thread].push_back(std::move(event));
  }
  for (auto& [thread, events] : by_thread) {
    // Parents start no later and end no earlier than their children; order parents
    // first so a stack of open spans recovers the nesting.
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
      return a.start_s != b.start_s ? a.start_s < b.start_s : a.end_s > b.end_s;
    });
    std::vector<size_t> open;
    std::vector<double> child_time(events.size(), 0.0);
    for (size_t i = 0; i < events.size(); ++i) {
      while (!open.empty() && events[open.back()].end_s <= events[i].start_s) {
        open.pop_back();
      }
      if (!open.empty()) {
        child_time[open.back()] += events[i].end_s - events[i].start_s;
      }
      open.push_back(i);
    }
    for (size_t i = 0; i < events.size(); ++i) {
      SpanTotals& t = totals[events[i].name];
      const double duration = events[i].end_s - events[i].start_s;
      ++t.count;
      t.total_s += duration;
      t.self_s += std::max(0.0, duration - child_time[i]);
    }
  }
  return totals;
}

uint64_t RegistryCounter(const char* name) {
  const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().Scrape();
  const obs::MetricValue* value = snapshot.Find(name);
  return value != nullptr ? value->count : 0;
}

}  // namespace perfbench
