// espresso_perfbench: the repository benchmark binary (perfbench/run.py builds and
// runs it; see perfbench/README.md).
//
//   espresso_perfbench --workload <select-cold|serve-mixed|train-dataplane|all>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      --reference <select-cold reference file> [--trace-out <file>]
//   espresso_perfbench --write-reference <file>
//
// Prints a human-readable report and, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics. Exits 1 when any output check failed
// and 3 when the build is not the configuration users get.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "src/compress/kernels/kernels.h"
#include "src/obs/trace_writer.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up is timed kMinSetups times before the measurement, more (up to kMaxSetups)
// while those took under half a second, and as many times again after it; the median
// is reported, so the figure samples more than one moment of a run.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 48;

// The end-to-end metrics BENCHMARK.json lists, reported by every workload.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "latency_ms_p50",
                                 "latency_ms_p90", "throughput_per_s"};

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<Workload> (*make)(const Options&, Report*);
  void (*prepare)();  // untimed work before the first set-up, or null
  // What the generic latency and throughput metrics measure on this workload.
  const char* latency;
  const char* throughput;
};

const WorkloadSpec kWorkloads[] = {
    {"select-cold", MakeSelectCold, nullptr, "select_ms", "select_per_s"},
    {"serve-mixed", MakeServeMixed, PrepareServeMixed, "serve_ms", "serve_rps"},
    {"train-dataplane", MakeTrainDataplane, nullptr, "exec_step_ms", "train_samples_per_s"},
};

// The name a metric goes by in the workload's own terms, e.g. latency_ms_p50 on
// serve-mixed is serve_ms_p50.
std::string WorkloadName(const WorkloadSpec& spec, const std::string& metric) {
  if (metric == "latency_ms_p50") {
    return std::string(spec.latency) + "_p50";
  }
  if (metric == "latency_ms_p90") {
    return std::string(spec.latency) + "_p90";
  }
  if (metric == "throughput_per_s") {
    return spec.throughput;
  }
  return metric;
}

// Refuses builds whose timings would describe a different program from the one the
// repository builds by default.
std::string DifferentProgram() {
#ifndef NDEBUG
  return "built without NDEBUG (assertions enabled)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (std::strlen(PERFBENCH_SANITIZE) > 0) {
    return std::string("built with ESPRESSO_SANITIZE=") + PERFBENCH_SANITIZE;
  }
  if (PERFBENCH_VERIFY_SCHEDULES) {
    return "built with ESPRESSO_VERIFY_SCHEDULES";
  }
  if (const char* kernels = std::getenv("ESPRESSO_KERNELS")) {
    return std::string("ESPRESSO_KERNELS=") + kernels + " overrides kernel dispatch";
  }
  return "";
}

void PrintHost() {
  std::string features;
  for (const char* feature : espresso::kernels::HostIsaFeatures()) {
    features += features.empty() ? feature : std::string(",") + feature;
  }
  std::cout << "host: nproc=" << std::thread::hardware_concurrency() << " isa_features="
            << (features.empty() ? "none" : features)
            << " kernel_isa=" << espresso::kernels::Active().isa
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " simd=" << (PERFBENCH_SIMD ? "on" : "off") << " compiler=" << __VERSION__
            << "\n";
}

void PrintOverhead(const std::map<std::string, Metric>& untraced,
                   const std::map<std::string, Metric>& traced) {
  std::cout << "tracing overhead (traced - untraced, half window each):\n";
  for (const auto& [name, metric] : traced) {
    const auto it = untraced.find(name);
    if (it == untraced.end() || name == "setup_s") {
      continue;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "  %-30s %12.6g - %12.6g = %+.6g %s", name.c_str(),
                  metric.value, it->second.value, metric.value - it->second.value,
                  metric.unit.c_str());
    std::cout << line << "\n";
  }
}

void PrintSelfTimes(double window_s) {
  std::cout << "span self time over the traced window (" << window_s << " s):\n";
  for (const auto& [name, totals] : SpanSelfTimes(Tracer())) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-30s n=%-7zu total %10.3f ms  self %10.3f ms",
                  name.c_str(), totals.count, totals.total_s * 1e3, totals.self_s * 1e3);
    std::cout << line << "\n";
  }
}

// Sets a served request's median against the named layers that make it up.
void PrintServeAttribution(const Report& report) {
  const auto p50 = report.end_to_end().find("latency_ms_p50");
  const auto rtt = report.layers().find("server.frame.rtt_ms");
  const auto warm = report.layers().find("server.service.handle_warm_ms");
  if (p50 == report.end_to_end().end() || rtt == report.layers().end() ||
      warm == report.layers().end()) {
    return;
  }
  const double named = rtt->second.value + warm->second.value;
  char line[256];
  std::snprintf(line, sizeof(line),
                "attribution: serve_ms_p50 %.3f ms; server.frame.rtt_ms %.3f ms + "
                "server.service.handle_warm_ms %.3f ms = %.3f ms (%.0f%%)",
                p50->second.value, rtt->second.value, warm->second.value, named,
                100.0 * named / p50->second.value);
  std::cout << line << "\n";
}

// Replaces `workload` with a freshly set-up one; returns the set-up time.
double SetUp(const WorkloadSpec& spec, const Options& options, Report* report,
             std::unique_ptr<Workload>* workload) {
  workload->reset();
  const Clock::time_point start = Clock::now();
  *workload = spec.make(options, report);
  return SecondsSince(start);
}

Report RunWorkload(const WorkloadSpec& spec, const Options& options) {
  Report report;
  std::cout << "== " << spec.name << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";
  if (spec.prepare != nullptr) {
    spec.prepare();
  }
  Timing setup;
  std::unique_ptr<Workload> workload;
  while (setup.count() < kMinSetups || (setup.Sum() < 0.5 && setup.count() < kMaxSetups)) {
    setup.Add(SetUp(spec, options, &report, &workload));
  }
  const size_t setups_before = setup.count();
  if (!options.trace) {
    workload->Measure(options.seconds, /*full_run=*/true, &report);
  } else {
    workload->Measure(options.seconds / 2, /*full_run=*/false, &report);
    const std::map<std::string, Metric> untraced = report.end_to_end();
    SetTracing(true);
    const Clock::time_point start = Clock::now();
    workload->Measure(options.seconds / 2, /*full_run=*/false, &report);
    const double window = SecondsSince(start);
    SetTracing(false);
    PrintOverhead(untraced, report.end_to_end());
    PrintSelfTimes(window);
    workload->ReportLayers(&report);
    FillUntouchedLayers(&report);
  }
  for (size_t i = 0; i < setups_before; ++i) {
    setup.Add(SetUp(spec, options, &report, &workload));
  }
  workload.reset();
  report.EndToEnd("setup_s", setup.Median(), "s", setup.count());
  if (options.trace && std::string(spec.name) == "serve-mixed") {
    PrintServeAttribution(report);
  }
  report.EndToEnd("failed_ratio",
                  report.attempted() == 0 ? 1.0
                                          : static_cast<double>(report.failed()) /
                                                static_cast<double>(report.attempted()),
                  "ratio", report.attempted());

  std::cout << "end-to-end metrics:\n";
  for (const auto& [name, metric] : report.end_to_end()) {
    PrintMetric(WorkloadName(spec, name), metric);
  }
  if (options.trace) {
    std::cout << "per-layer metrics:\n";
    for (const auto& [name, metric] : report.layers()) {
      PrintMetric(name, metric);
    }
  }
  std::cout << "operations: attempted=" << report.attempted() << " failed=" << report.failed()
            << " correct=" << (report.correct() ? "true" : "false") << "\n";
  return report;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

int Main(int argc, char** argv) {
  Options options;
  std::string write_reference;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::cerr << "perfbench: " << arg << " needs a value\n";
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--reference") {
      options.reference = value;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--write-reference") {
      write_reference = value;
    } else {
      std::cerr << "perfbench: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (const std::string refusal = DifferentProgram(); !refusal.empty()) {
    std::cerr << "perfbench: refusing to measure: " << refusal << "\n";
    return 3;
  }
  if (!write_reference.empty()) {
    return WriteSelectReference(write_reference) ? 0 : 1;
  }
  if (!(options.seconds > 0.0)) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return 2;
  }
  PrintHost();

  if (options.workload == "all") {
    // Every workload in turn, reported under the workloads' own metric names.
    bool correct = true;
    uint64_t attempted = 0, failed = 0;
    double setup_s = 0.0;
    std::map<std::string, Metric> metrics;
    for (const WorkloadSpec& spec : kWorkloads) {
      const Report report = RunWorkload(spec, options);
      correct = correct && report.correct();
      attempted += report.attempted();
      failed += report.failed();
      for (const auto& [name, metric] : report.end_to_end()) {
        if (name == "setup_s") {
          setup_s += metric.value;
        } else if (name.rfind("latency_ms_", 0) == 0 || name == "throughput_per_s" ||
                   name == "predicted_speedup" || name == "train_loss") {
          metrics[WorkloadName(spec, name)] = metric;
        }
      }
    }
    metrics["setup_s"] = Metric{setup_s, "s", 0};
    metrics["peak_rss_mb"] = Metric{PeakRssMb(), "MB", 0};
    metrics["failed_ratio"] =
        Metric{attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted, "ratio",
               attempted};
    std::cout << "all workloads:\n";
    for (const auto& [name, metric] : metrics) {
      PrintMetric(name, metric);
    }
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  for (const WorkloadSpec& spec : kWorkloads) {
    if (options.workload != spec.name) {
      continue;
    }
    const Report report = RunWorkload(spec, options);
    std::map<std::string, Metric> metrics;
    if (options.trace) {
      metrics = report.layers();
      if (!options.trace_out.empty()) {
        std::ofstream out(options.trace_out);
        obs::WriteSpanTrace(out, Tracer());
        std::cout << "chrome trace: " << options.trace_out << "\n";
      }
    } else {
      for (const char* name : kEndToEnd) {
        const auto it = report.end_to_end().find(name);
        if (it != report.end_to_end().end()) {
          metrics[name] = it->second;
        }
      }
    }
    PrintResult(report.correct(), report.attempted(), report.failed(), metrics);
    return report.correct() ? 0 : 1;
  }
  std::cerr << "perfbench: unknown workload '" << options.workload
            << "' (select-cold, serve-mixed, train-dataplane or all)\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
