// select-cold: the Table-5 path. One cold EspressoSelector::Select() at a time on one
// thread, each with a fresh selector and F(S) cache, exactly as espresso_cli runs it.
// The inputs are the 24-triple selection mix, each pass in a seeded order. Every
// measured window starts with a reference pass, which uses the zoo profiles as
// committed and is checked against the recorded strategy fingerprints; later passes
// jitter every tensor's backward time by a seeded +-5%.
//
// Selection is CPU-bound on one thread, so its wall time follows the host's speed,
// which on a shared host drifts by up to ~1.8x within a run. Each selection is
// bracketed by host-speed probes and its latency is rescaled to the reference speed
// (bench.h); the latency and throughput metrics are of the rescaled times, and the
// report also prints the measured ones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>

#include "src/analysis/ir_validator.h"
#include "src/core/baselines.h"
#include "src/core/eval_cache.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace espresso;

struct MixEntry {
  ConfigTriple triple;
  JobConfig job;
  std::unique_ptr<Compressor> compressor;
  SelectorOptions options;
};

// Loads the mix; adds the time spent loading job configurations to `*load_s`.
std::vector<MixEntry> LoadMix(double* load_s = nullptr) {
  std::vector<MixEntry> mix;
  for (ConfigTriple& triple : SelectionMix()) {
    MixEntry entry;
    const Clock::time_point start = Clock::now();
    entry.job = LoadTriple(triple);
    if (load_s != nullptr) {
      *load_s += SecondsSince(start);
    }
    entry.compressor = entry.job.MakeCompressor();
    entry.options = CliSelectorOptions(entry.job, *entry.compressor);
    entry.triple = std::move(triple);
    mix.push_back(std::move(entry));
  }
  return mix;
}

// Reference lines: "<triple> <fingerprint hex> <F(S) seconds>".
std::map<std::string, std::string> ReadReference(const std::string& path) {
  std::map<std::string, std::string> fingerprints;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, fingerprint;
    if (line.empty() || line[0] == '#' || !(fields >> name >> fingerprint)) {
      continue;
    }
    fingerprints[name] = fingerprint;
  }
  return fingerprints;
}

// What one measured window's selections add up to.
struct Window {
  uint64_t selections = 0;
  double ctor_s = 0.0, algorithm1_s = 0.0, refine_s = 0.0, trajectory_s = 0.0,
         offload_s = 0.0;
  uint64_t cache_hits = 0, cache_misses = 0;
  // The window's reference pass, which selects the same strategies in every window.
  uint64_t evaluations = 0, simulations = 0, evictions = 0, sim_runs = 0, sim_tasks = 0;
  std::vector<double> speedups;        // F(FP32) / F(selected), per triple
  std::vector<Strategy> strategies;    // per mix entry
};

class SelectCold final : public Workload {
 public:
  SelectCold(const Options& options, Report* report)
      : seed_(options.seed),
        mix_(LoadMix(&load_s_)),
        reference_(ReadReference(options.reference)) {
    report->Check(reference_.size() == mix_.size(),
                  "select-cold reference " + options.reference + " lists " +
                      std::to_string(reference_.size()) + " of " +
                      std::to_string(mix_.size()) + " triples");
  }

  void Measure(double seconds, bool full_run, Report* report) override {
    previous_ = std::move(window_);
    window_ = Window{};
    window_.strategies.resize(mix_.size());
    Timing latency, measured, probes;
    const uint64_t passes_before = passes_;
    const Clock::time_point start = Clock::now();
    // Whole passes only, so every run samples the mix in the same proportions.
    Samples samples{&latency, &measured, &probes};
    RunPass(/*reference=*/true, samples, report);
    while (SecondsSince(start) < seconds ||
           (full_run && latency.count() < kMinSamplesForP90)) {
      RunPass(/*reference=*/false, samples, report);
    }
    report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
    report->EndToEnd("latency_ms_p50", latency.Median() * 1e3, "ms", latency.count());
    report->EndToEnd("latency_ms_p90", latency.Percentile(0.9) * 1e3, "ms",
                     latency.count());
    report->EndToEnd("throughput_per_s",
                     static_cast<double>(latency.count()) / latency.Sum(), "1/s",
                     latency.count());
    double log_sum = 0.0;
    for (double s : window_.speedups) {
      log_sum += std::log(s);
    }
    report->EndToEnd("predicted_speedup",
                     std::exp(log_sum / static_cast<double>(window_.speedups.size())), "x",
                     window_.speedups.size());
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  measured (not rescaled): select_ms_p50 %.3f ms, select_ms_p90 %.3f ms, "
                  "select_per_s %.4f 1/s; host-speed probe median %.4f ms (reference %.4f ms)",
                  measured.Median() * 1e3, measured.Percentile(0.9) * 1e3,
                  static_cast<double>(measured.count()) / measured.Sum(),
                  probes.Median() * 1e3, kReferenceProbeSeconds * 1e3);
    report->Note(line);
    report->Note("  " + std::to_string(passes_ - passes_before) + " passes; reference pass: " +
                 std::to_string(window_.evaluations) + " evaluations, " +
                 std::to_string(window_.simulations) + " simulations over " +
                 std::to_string(mix_.size()) + " triples");
    for (const auto& [name, t] : per_triple_) {
      std::snprintf(line, sizeof(line), "  %-34s median %9.3f ms rescaled (n=%zu)",
                    name.c_str(), t.Median() * 1e3, t.count());
      report->Note(line);
    }
  }

  void ReportLayers(Report* report) override {
    const Window& w = window_;
    const double selections = static_cast<double>(std::max<uint64_t>(1, w.selections));
    // The workload's own job-config loads happen in set-up.
    report->Layer("ddl.job_config.load_ms",
                  load_s_ / static_cast<double>(mix_.size()) * 1e3, "ms", mix_.size());
    report->Layer("core.selector.ctor_ms", w.ctor_s / selections * 1e3, "ms", w.selections);
    report->Layer("core.selector.algorithm1_ms", w.algorithm1_s / selections * 1e3, "ms",
                  w.selections);
    report->Layer("core.selector.refine_ms", w.refine_s / selections * 1e3, "ms",
                  w.selections);
    report->Layer("core.selector.trajectory_ms", w.trajectory_s / selections * 1e3, "ms",
                  w.selections);
    report->Layer("core.selector.offload_ms", w.offload_s / selections * 1e3, "ms",
                  w.selections);
    report->Layer("core.eval_cache.hit_ratio",
                  static_cast<double>(w.cache_hits) /
                      static_cast<double>(std::max<uint64_t>(1, w.cache_hits + w.cache_misses)),
                  "ratio", w.selections);
    // Counters of the reference pass, which the previous window ran as well.
    Deterministic(report, "core.selector.evaluations", static_cast<double>(w.evaluations),
                  static_cast<double>(previous_.evaluations), "count");
    Deterministic(report, "core.selector.simulations", static_cast<double>(w.simulations),
                  static_cast<double>(previous_.simulations), "count");
    report->Layer("core.eval_cache.evictions", static_cast<double>(w.evictions), "count");
    Deterministic(report, "sim.tasks_per_sim", TasksPerSim(w), TasksPerSim(previous_),
                  "count");
    std::vector<SelectedStrategy> selected;
    for (size_t i = 0; i < mix_.size(); ++i) {
      selected.push_back(SelectedStrategy{&mix_[i].job.model, &mix_[i].job.cluster,
                                          mix_[i].compressor.get(), &w.strategies[i]});
    }
    ProbeSimulation(selected, report);
  }

 private:
  static double TasksPerSim(const Window& w) {
    return static_cast<double>(w.sim_tasks) /
           static_cast<double>(std::max<uint64_t>(1, w.sim_runs));
  }

  // Where a window's selections record their timings.
  struct Samples {
    Timing* latency;   // rescaled to the reference host speed
    Timing* measured;  // as measured
    Timing* probes;    // host-speed probe times
  };

  void RunPass(bool reference, const Samples& samples, Report* report) {
    const uint64_t pass = passes_++;
    std::vector<size_t> order(mix_.size());
    std::iota(order.begin(), order.end(), size_t{0});
    Rng order_rng(DeriveSeed(seed_, 1000 + pass));
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(order_rng.UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    for (size_t index : order) {
      const MixEntry& entry = mix_[index];
      ModelProfile model = entry.job.model;
      if (!reference) {
        Rng jitter(DeriveSeed(seed_, pass * 64 + index));
        JitterBackwardTimes(jitter, &model);
      }
      SelectOnce(index, model, reference, samples, report);
    }
  }

  void SelectOnce(size_t index, const ModelProfile& model, bool reference,
                  const Samples& samples, Report* report) {
    const MixEntry& entry = mix_[index];
    const ClusterSpec& cluster = entry.job.cluster;
    std::optional<EspressoSelector> selector;
    SelectionResult result;
    const uint64_t runs_before = reference ? RegistryCounter("espresso_sim_runs_total") : 0;
    const uint64_t tasks_before = reference ? RegistryCounter("espresso_sim_tasks_total") : 0;
    const double probe_before = ProbeHostSeconds();
    const Clock::time_point start = Clock::now();
    Clock::time_point constructed;
    {
      Span op("select-cold.selection");
      {
        Span ctor("core.selector.ctor");
        selector.emplace(model, cluster, *entry.compressor, entry.options);
      }
      constructed = Clock::now();
      Span select("core.selector.select");
      result = selector->Select();
    }
    const double seconds = SecondsSince(start);
    const double probe = 0.5 * (probe_before + ProbeHostSeconds());
    const double scaled = seconds * kReferenceProbeSeconds / probe;
    samples.latency->Add(scaled);
    samples.measured->Add(seconds);
    samples.probes->Add(probe);
    per_triple_[entry.triple.name].Add(scaled);

    const SelectorTelemetry& t = result.telemetry;
    ++window_.selections;
    window_.ctor_s += std::chrono::duration<double>(constructed - start).count();
    window_.algorithm1_s += t.algorithm1_seconds;
    window_.refine_s += t.refine_seconds;
    window_.trajectory_s += t.trajectory_seconds;
    window_.offload_s += t.offload_seconds;
    window_.cache_hits += t.cache_hits;
    window_.cache_misses += t.cache_misses;
    if (reference) {
      window_.sim_runs += RegistryCounter("espresso_sim_runs_total") - runs_before;
      window_.sim_tasks += RegistryCounter("espresso_sim_tasks_total") - tasks_before;
      window_.evaluations += t.evaluations;
      window_.simulations += t.simulations;
      window_.evictions += t.cache_evictions;
      window_.strategies[index] = result.strategy;
    }

    // Output checks, outside the timed region.
    Span check("select-cold.check");
    const std::string& name = entry.triple.name;
    const double fp32 = selector->evaluator().IterationTime(Fp32Strategy(model, cluster));
    bool ok = result.iteration_time <= fp32 * (1.0 + 1e-12);
    if (!ok) {
      report->Check(false, name + ": F(selected) " + std::to_string(result.iteration_time) +
                               " s exceeds F(FP32) " + std::to_string(fp32) + " s");
    }
    const StrategyIR ir = CompileStrategyIR(result.strategy, result.iteration_time, model,
                                            cluster, entry.job.compressor, CliProvenance());
    IRValidationOptions validate;
    validate.max_compress_ops = entry.job.max_compress_ops;
    if (!ValidateStrategyIR(ir, model, cluster, *entry.compressor, entry.job.compressor,
                            validate)
             .ok) {
      ok = false;
      report->Check(false, name + ": selected IR fails ValidateStrategyIR");
    }
    if (reference) {
      const std::string fingerprint = DigestHex(StrategyFingerprint(result.strategy));
      const auto it = reference_.find(name);
      if (it == reference_.end() || it->second != fingerprint) {
        ok = false;
        report->Check(false, name + ": strategy fingerprint " + fingerprint +
                                 " differs from the reference " +
                                 (it == reference_.end() ? "(none)" : it->second));
      }
      window_.speedups.push_back(fp32 / result.iteration_time);
    }
    report->Operation(ok, name + ": selection output check failed");
  }

  const uint64_t seed_;
  double load_s_ = 0.0;
  const std::vector<MixEntry> mix_;
  const std::map<std::string, std::string> reference_;
  uint64_t passes_ = 0;
  std::map<std::string, Timing> per_triple_;
  Window window_, previous_;
};

}  // namespace

std::unique_ptr<Workload> MakeSelectCold(const Options& options, Report* report) {
  return std::make_unique<SelectCold>(options, report);
}

bool WriteSelectReference(const std::string& path) {
  std::ofstream out(path);
  out << "# select-cold reference: the unjittered selection mix as espresso_cli selects\n"
         "# it. <triple> <strategy fingerprint> <F(S) seconds>\n";
  for (const MixEntry& entry : LoadMix()) {
    EspressoSelector selector(entry.job.model, entry.job.cluster, *entry.compressor,
                              entry.options);
    const SelectionResult result = selector.Select();
    char fs[32];
    std::snprintf(fs, sizeof(fs), "%.17g", result.iteration_time);
    out << entry.triple.name << " " << DigestHex(StrategyFingerprint(result.strategy))
        << " " << fs << "\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
