// serve-mixed: an in-process ServeServer on loopback with its default options, driven
// by ServeClient over two closed-loop connections. Four in five requests repeat one of
// three committed config triples (warm: an F(S)-cache read, then job-config load, IR
// compile, validation and framing); every fifth carries a novel model as [tensors]
// INI text (cold: a selection that writes the F(S) cache and evicts from the
// service's config pool). Every served IR must be byte-identical to what espresso_cli
// would write for the same configuration.
#include <algorithm>
#include <atomic>
#include <thread>

#include "src/analysis/ir_validator.h"
#include "src/analysis/schedule_verifier.h"
#include "src/analysis/strategy_linter.h"
#include "src/core/eval_cache.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/util/config.h"
#include "src/util/json_reader.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace espresso;

constexpr size_t kConnections = 2;
// Every kColdEvery-th request of a connection is cold, from a seeded phase; a fixed
// share keeps the p90 at the same place in the cold mass on every run.
constexpr uint64_t kColdEvery = 5;
// Requests of the traced window that the per-layer probes replay in-process.
constexpr size_t kWarmReplays = 15;
constexpr size_t kColdReplays = 6;  // one per zoo model the cold requests derive from

// What espresso_cli selects for one hot triple, and the service-sized F(S) cache one
// selection of it has warmed.
struct HotReference {
  ConfigTriple triple;
  JobConfig job;
  std::unique_ptr<Compressor> compressor;
  SelectorOptions options;
  std::shared_ptr<EvaluationCache> cache;
  std::string ir;
};

const std::vector<HotReference>& HotReferences() {
  static const std::vector<HotReference> references = [] {
    std::vector<HotReference> hot;
    for (ConfigTriple& triple : ServeHotSet()) {
      HotReference reference;
      reference.job = LoadTriple(triple);
      reference.compressor = reference.job.MakeCompressor();
      reference.options = CliSelectorOptions(reference.job, *reference.compressor);
      reference.options.cache_capacity = server::ServiceConfig{}.cache_capacity;
      reference.cache = std::make_shared<EvaluationCache>(reference.options.cache_capacity);
      EspressoSelector(reference.job.model, reference.job.cluster, *reference.compressor,
                       reference.options, reference.cache)
          .Select();
      reference.ir = CliIrText(reference.job);
      reference.triple = std::move(triple);
      hot.push_back(std::move(reference));
    }
    return hot;
  }();
  return references;
}

struct RequestResult {
  double latency_s = 0.0;
  bool ok = false;
  bool cold = false;
  std::string failure;
  uint64_t evaluations = 0;
  uint64_t simulations = 0;
};

struct ColdResponse {
  ConfigTriple triple;
  std::string ir;
  uint64_t evaluations = 0;
  uint64_t simulations = 0;
};

// Parses a select response; returns false (with `failure`) unless it carries an IR.
bool ParseSelectResponse(const std::string& name, const std::string& response,
                         std::string* ir, RequestResult* result) {
  const JsonParseResult parsed = ParseJson(response);
  const JsonValue* ok = parsed.ok ? parsed.value.Find("ok") : nullptr;
  if (ok == nullptr || !ok->IsBool() || !ok->bool_value) {
    result->failure = name + ": error response: " + response.substr(0, 300);
    return false;
  }
  const JsonValue* ir_value = parsed.value.Find("ir");
  if (ir_value == nullptr || !ir_value->IsString()) {
    result->failure = name + ": response carries no IR";
    return false;
  }
  *ir = ir_value->text;
  if (const JsonValue* telemetry = parsed.value.Find("telemetry"); telemetry != nullptr) {
    if (const JsonValue* value = telemetry->Find("evaluations"); value != nullptr) {
      value->AsUint64(&result->evaluations);
    }
    if (const JsonValue* value = telemetry->Find("simulations"); value != nullptr) {
      value->AsUint64(&result->simulations);
    }
  }
  return true;
}

double TimeOnce(const std::function<void()>& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

std::string SelectRequest(const ConfigTriple& triple, const std::string& id) {
  return server::BuildSelectRequest(id, "perfbench", triple.model_ini, triple.gc_ini,
                                    triple.system_ini);
}

// Sends one select request and checks the response envelope; returns the IR text.
RequestResult Call(server::ServeClient& client, const ConfigTriple& triple,
                   const std::string& id, std::string* ir) {
  const std::string request = SelectRequest(triple, id);
  RequestResult result;
  std::string response;
  std::string error;
  const Clock::time_point start = Clock::now();
  bool sent = false;
  {
    Span span("server.client.call");
    sent = client.Call(request, &response, &error);
  }
  result.latency_s = SecondsSince(start);
  if (!sent) {
    result.failure = triple.name + ": transport error: " + error;
    return result;
  }
  result.ok = ParseSelectResponse(triple.name, response, ir, &result);
  return result;
}

// The process-wide registry readings a window's layer figures are differences of.
struct RegistryReading {
  SelectorTelemetry selector;
  uint64_t selections = 0;
  uint64_t cache_hits = 0, cache_misses = 0;  // of served selections
  uint64_t evaluate_calls = 0;                // TimelineEvaluator::Evaluate
  double evaluate_s = 0.0;

  static RegistryReading Now() {
    const obs::MetricsSnapshot snapshot = obs::GlobalMetrics().Scrape();
    const auto find = [&snapshot](const char* name) {
      const obs::MetricValue* value = snapshot.Find(name);
      return value != nullptr ? *value : obs::MetricValue{};
    };
    RegistryReading reading;
    reading.selector = SelectorTelemetry::FromMetricsSnapshot(snapshot);
    reading.selections = find("espresso_selector_selections_total").count;
    reading.cache_hits = find("espresso_serve_cache_hits_total").count;
    reading.cache_misses = find("espresso_serve_cache_misses_total").count;
    reading.evaluate_calls = find("espresso_timeline_evaluate_seconds").count;
    reading.evaluate_s = find("espresso_timeline_evaluate_seconds").value;
    return reading;
  }
};

// What one measured window served, in each connection's order.
struct Window {
  uint64_t round = 0;
  std::vector<std::vector<size_t>> warm;  // hot-set index of each warm request
  std::vector<std::vector<ColdResponse>> cold;
  RegistryReading before, after;
};

class ServeMixed final : public Workload {
 public:
  ServeMixed(const Options& options, Report* report)
      : seed_(options.seed),
        hot_(HotReferences()),
        service_(server::ServiceConfig{}, /*audit=*/nullptr),
        server_(&service_, server::ServerOptions{}) {
    std::string error;
    started_ = server_.Start(&error);
    report->Check(started_, "serve-mixed: server did not start: " + error);
    for (size_t c = 0; started_ && c < kConnections; ++c) {
      started_ = clients_[c].Connect(server_.port(), &error);
      report->Check(started_, "serve-mixed: client did not connect: " + error);
    }
    for (const HotReference& hot : hot_) {
      // The first request of each hot triple is its cold selection; after it the
      // triple is served from the shared F(S) cache.
      std::string ir;
      const RequestResult warmup =
          started_ ? Call(clients_[0], hot.triple, "warmup", &ir) : RequestResult{};
      report->Check(warmup.ok && ir == hot.ir,
                    "serve-mixed: warm-up of " + hot.triple.name + " failed: " +
                        warmup.failure);
    }
  }

  ~ServeMixed() override {
    for (server::ServeClient& client : clients_) {
      client.Close();
    }
    server_.Stop();
  }

  void Measure(double seconds, bool full_run, Report* report) override {
    if (!started_) {
      report->Operation(false, "serve-mixed: no server");
      return;
    }
    window_ = Window{};
    window_.round = rounds_++;
    window_.warm.resize(kConnections);
    window_.cold.resize(kConnections);
    std::vector<std::vector<RequestResult>> results(kConnections);
    std::vector<double> finished(kConnections, 0.0);
    std::atomic<size_t> completed{0};
    window_.before = RegistryReading::Now();
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        const uint64_t stream = window_.round * kConnections + c;
        Rng rng(DeriveSeed(seed_, 7000 + stream));
        const auto phase = static_cast<uint64_t>(rng.UniformInt(0, kColdEvery - 1));
        uint64_t n = 0;
        while (SecondsSince(start) < seconds ||
               (full_run && completed.load() < kMinSamplesForP90)) {
          const bool is_cold = (n + phase) % kColdEvery == 0;
          const size_t hot = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(hot_.size()) - 1));
          // Consecutive cold requests of a stream derive from consecutive zoo models.
          const ConfigTriple triple =
              is_cold ? NovelTriple(seed_, (stream << 20) + window_.cold[c].size())
                      : hot_[hot].triple;
          std::string ir;
          RequestResult result = Call(clients_[c], triple,
                                      "c" + std::to_string(c) + "-" + std::to_string(n++),
                                      &ir);
          result.cold = is_cold;
          if (is_cold) {
            window_.cold[c].push_back(
                ColdResponse{triple, std::move(ir), result.evaluations, result.simulations});
          } else {
            window_.warm[c].push_back(hot);
            if (result.ok && ir != hot_[hot].ir) {
              result.ok = false;
              result.failure = triple.name + ": served IR differs from espresso_cli's";
            }
          }
          results[c].push_back(std::move(result));
          completed.fetch_add(1);
        }
        finished[c] = SecondsSince(start);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    window_.after = RegistryReading::Now();
    const double wall = *std::max_element(finished.begin(), finished.end());
    // Before the cold responses are recomputed, which is checking, not serving.
    report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

    Timing latency, warm, cold_latency;
    for (size_t c = 0; c < kConnections; ++c) {
      for (const RequestResult& result : results[c]) {
        report->Operation(result.ok, result.failure);
        latency.Add(result.latency_s);
        (result.cold ? cold_latency : warm).Add(result.latency_s);
      }
    }
    VerifyCold(report);

    const RegistryReading& a = window_.after;
    const RegistryReading& b = window_.before;
    const uint64_t hits = a.cache_hits - b.cache_hits;
    const uint64_t misses = a.cache_misses - b.cache_misses;
    report->EndToEnd("latency_ms_p50", latency.Median() * 1e3, "ms", latency.count());
    report->EndToEnd("latency_ms_p90", latency.Percentile(0.9) * 1e3, "ms",
                     latency.count());
    report->EndToEnd("throughput_per_s", static_cast<double>(latency.count()) / wall,
                     "1/s", latency.count());
    report->EndToEnd("warm_ms_p50", warm.Median() * 1e3, "ms", warm.count());
    report->EndToEnd("cold_ms_p50", cold_latency.Median() * 1e3, "ms",
                     cold_latency.count());
    report->EndToEnd("response_cache_hit_ratio",
                     hits + misses == 0 ? 0.0
                                        : static_cast<double>(hits) /
                                              static_cast<double>(hits + misses),
                     "ratio", latency.count());
  }

  void ReportLayers(Report* report) override {
    if (!started_) {
      return;
    }
    MeasureRoundTrip(report);
    ReportRegistryLayers(report);
    ReplayWarm(report);
    ReplayCold(report);
  }

 private:
  // Recomputes each cold response of the window in-process and compares bytes. Runs
  // after the measured window, on a pool of the host's cores.
  void VerifyCold(Report* report) {
    Span span("serve-mixed.verify_cold");
    std::vector<const ColdResponse*> all;
    for (const auto& connection : window_.cold) {
      for (const ColdResponse& response : connection) {
        all.push_back(&response);
      }
    }
    std::vector<char> matches(all.size(), 0);
    {
      ThreadPool pool(std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency())));
      TaskGroup group;
      for (size_t i = 0; i < all.size(); ++i) {
        pool.Submit(group, [&, i] {
          matches[i] = CliIrText(LoadTriple(all[i]->triple)) == all[i]->ir;
        });
      }
      group.Wait();
    }
    for (size_t i = 0; i < all.size(); ++i) {
      report->Check(matches[i] != 0, all[i]->triple.name +
                                         ": served IR differs from espresso_cli's for " +
                                         all[i]->triple.model_ini.substr(8, 32));
    }
  }

  // The frame layer's share of a request: health round trips, which do no work, on
  // the workload's own connection.
  void MeasureRoundTrip(Report* report) {
    Timing rtt;
    bool ok = true;
    std::string response, error;
    for (int i = 0; i < 20 && ok; ++i) {
      const Clock::time_point start = Clock::now();
      ok = clients_[0].Call(server::BuildHealthRequest("rtt"), &response, &error);
      rtt.Add(SecondsSince(start));
    }
    report->Check(ok, "serve-mixed: health round trip failed: " + error);
    report->Layer("server.frame.rtt_ms", rtt.Median() * 1e3, "ms", rtt.count());
  }

  // Selector stages, F(S)-cache traffic and recording simulations of every selection
  // the window served, from the process-wide metrics registry.
  void ReportRegistryLayers(Report* report) {
    const RegistryReading& a = window_.after;
    const RegistryReading& b = window_.before;
    const uint64_t selections = a.selections - b.selections;
    const double per = 1e3 / static_cast<double>(std::max<uint64_t>(1, selections));
    report->Layer("core.selector.algorithm1_ms",
                  (a.selector.algorithm1_seconds - b.selector.algorithm1_seconds) * per, "ms",
                  selections);
    report->Layer("core.selector.refine_ms",
                  (a.selector.refine_seconds - b.selector.refine_seconds) * per, "ms",
                  selections);
    report->Layer("core.selector.trajectory_ms",
                  (a.selector.trajectory_seconds - b.selector.trajectory_seconds) * per, "ms",
                  selections);
    report->Layer("core.selector.offload_ms",
                  (a.selector.offload_seconds - b.selector.offload_seconds) * per, "ms",
                  selections);
    const uint64_t hits = a.cache_hits - b.cache_hits;
    const uint64_t misses = a.cache_misses - b.cache_misses;
    report->Layer("core.eval_cache.hit_ratio",
                  static_cast<double>(hits) /
                      static_cast<double>(std::max<uint64_t>(1, hits + misses)),
                  "ratio", selections);
    report->Layer("core.eval_cache.evictions",
                  static_cast<double>(a.selector.cache_evictions - b.selector.cache_evictions),
                  "count", selections);
    const uint64_t evaluates = a.evaluate_calls - b.evaluate_calls;
    report->Layer("core.timeline.record_sim_ms",
                  (a.evaluate_s - b.evaluate_s) * 1e3 /
                      static_cast<double>(std::max<uint64_t>(1, evaluates)),
                  "ms", evaluates);
  }

  // The window's first warm requests of connection 0, replayed in-process: whole
  // through the workload's service (still warm), and stage by stage as the service
  // runs them, on a cache the same selection has warmed.
  void ReplayWarm(Report* report) {
    const std::vector<size_t>& warm = window_.warm[0];
    const size_t n = std::min(kWarmReplays, warm.size());
    Timing handle, load, ctor, compile, validate, write, parse, lint, verify;
    double replayed_bytes = 0.0, served_bytes = 0.0;
    bool ok = true;
    for (size_t i = 0; i < n; ++i) {
      const HotReference& hot = hot_[warm[i]];
      const std::string request = SelectRequest(hot.triple, "replay");
      Clock::time_point start = Clock::now();
      const std::string response = service_.HandleRequest(request);
      handle.Add(SecondsSince(start));
      std::string served;
      RequestResult parsed;
      ok = ok && ParseSelectResponse(hot.triple.name, response, &served, &parsed);

      start = Clock::now();
      const JobConfigResult loaded = LoadJobConfig(ConfigFile::ParseString(hot.triple.model_ini),
                                                   ConfigFile::ParseString(hot.triple.gc_ini),
                                                   ConfigFile::ParseString(hot.triple.system_ini));
      load.Add(SecondsSince(start));
      const JobConfig& job = loaded.job;
      start = Clock::now();
      EspressoSelector selector(job.model, job.cluster, *hot.compressor, hot.options,
                                hot.cache);
      ctor.Add(SecondsSince(start));
      const SelectionResult result = selector.Select();
      StrategyIR ir;
      compile.Add(TimeOnce([&] {
        ir = CompileStrategyIR(result.strategy, result.iteration_time, job.model, job.cluster,
                               job.compressor, CliProvenance());
      }));
      IRValidationOptions options;
      options.max_compress_ops = job.max_compress_ops;
      validate.Add(TimeOnce([&] {
        ok = ok && ValidateStrategyIR(ir, job.model, job.cluster, *hot.compressor,
                                      job.compressor, options)
                       .ok;
      }));
      std::string text;
      write.Add(TimeOnce([&] { text = StrategyIRToString(ir); }));
      parse.Add(TimeOnce([&] { ok = ok && ParseStrategyIR(text).ok; }));
      ok = ok && text == hot.ir;
      replayed_bytes += static_cast<double>(text.size());
      served_bytes += static_cast<double>(served.size());
      // The linter and schedule verifier as ValidateStrategyIR runs them.
      const TreeConfig tree{job.cluster.machines, job.cluster.gpus_per_machine,
                            hot.compressor->SupportsCompressedAggregation(),
                            job.max_compress_ops};
      LintOptions lint_options;
      lint_options.expected_tensors = job.model.tensors.size();
      lint.Add(TimeOnce([&] { LintStrategy(tree, result.strategy, lint_options); }));
      const TimelineResult recorded =
          selector.evaluator().Evaluate(result.strategy, /*record_entries=*/true);
      VerifierConfig verifier;
      verifier.cpu_workers = job.cluster.cpu_workers_per_gpu;
      verify.Add(TimeOnce(
          [&] { VerifySimulatedTimeline(result.strategy, recorded.entries, verifier); }));
    }
    report->Check(ok, "serve-mixed: a replayed warm request failed or differs");
    const auto mean_ms = [&](const char* name, const Timing& timing) {
      report->Layer(name, timing.Sum() / static_cast<double>(std::max<size_t>(1, n)) * 1e3,
                    "ms", timing.count());
    };
    mean_ms("server.service.handle_warm_ms", handle);
    mean_ms("ddl.job_config.load_ms", load);
    mean_ms("core.selector.ctor_ms", ctor);
    mean_ms("core.strategy_ir.compile_ms", compile);
    mean_ms("core.strategy_ir.write_ms", write);
    mean_ms("core.strategy_ir.parse_ms", parse);
    mean_ms("analysis.validate_ms", validate);
    mean_ms("analysis.lint_ms", lint);
    mean_ms("analysis.verify_ms", verify);
    const double count = static_cast<double>(std::max<size_t>(1, n));
    Deterministic(report, "core.strategy_ir.bytes", replayed_bytes / count,
                  served_bytes / count, "bytes");
  }

  // The window's first cold requests of connection 0, replayed in-process, each on a
  // fresh service, so each is cold again. The first one (the same model on every run
  // of a seed) is replayed twice for the deterministic counters.
  void ReplayCold(Report* report) {
    const std::vector<ColdResponse>& cold = window_.cold[0];
    const size_t n = std::min(kColdReplays, cold.size());
    if (n == 0) {
      report->Check(false, "serve-mixed: the traced window served no cold request");
      return;
    }
    struct Replay {
      double seconds = 0.0;
      uint64_t sim_runs = 0, sim_tasks = 0;
      RequestResult result;
      std::string ir;
    };
    const auto replay = [&](const ColdResponse& response) {
      server::SelectionService fresh(server::ServiceConfig{}, /*audit=*/nullptr);
      Replay r;
      const uint64_t runs = RegistryCounter("espresso_sim_runs_total");
      const uint64_t tasks = RegistryCounter("espresso_sim_tasks_total");
      const Clock::time_point start = Clock::now();
      const std::string answer = fresh.HandleRequest(SelectRequest(response.triple, "replay"));
      r.seconds = SecondsSince(start);
      r.sim_runs = RegistryCounter("espresso_sim_runs_total") - runs;
      r.sim_tasks = RegistryCounter("espresso_sim_tasks_total") - tasks;
      r.result.ok = ParseSelectResponse(response.triple.name, answer, &r.ir, &r.result);
      report->Check(r.result.ok && r.ir == response.ir,
                    "serve-mixed: replayed cold request of " + response.triple.name +
                        " failed or differs: " + r.result.failure);
      return r;
    };

    Timing handle;
    const Replay first = replay(cold[0]);
    const Replay again = replay(cold[0]);
    handle.Add(first.seconds);
    for (size_t i = 1; i < n; ++i) {
      handle.Add(replay(cold[i]).seconds);
    }
    report->Layer("server.service.handle_cold_ms", handle.Median() * 1e3, "ms",
                  handle.count());
    // Served in the window, then replayed: the same selection work both times.
    Deterministic(report, "core.selector.evaluations",
                  static_cast<double>(cold[0].evaluations),
                  static_cast<double>(first.result.evaluations), "count");
    Deterministic(report, "core.selector.simulations",
                  static_cast<double>(cold[0].simulations),
                  static_cast<double>(first.result.simulations), "count");
    const auto tasks_per_sim = [](const Replay& r) {
      return static_cast<double>(r.sim_tasks) /
             static_cast<double>(std::max<uint64_t>(1, r.sim_runs));
    };
    Deterministic(report, "sim.tasks_per_sim", tasks_per_sim(first), tasks_per_sim(again),
                  "count");

    // Simulations of the strategies the window's cold requests were served.
    std::vector<JobConfig> jobs;
    std::vector<std::unique_ptr<Compressor>> compressors;
    std::vector<Strategy> strategies;
    jobs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      jobs.push_back(LoadTriple(cold[i].triple));
      compressors.push_back(jobs.back().MakeCompressor());
      strategies.push_back(ParseStrategyIR(cold[i].ir).ir.strategy);
    }
    std::vector<SelectedStrategy> selected;
    for (size_t i = 0; i < n; ++i) {
      selected.push_back(SelectedStrategy{&jobs[i].model, &jobs[i].cluster,
                                          compressors[i].get(), &strategies[i]});
    }
    ProbeSimulation(selected, report);
  }

  const uint64_t seed_;
  const std::vector<HotReference>& hot_;
  server::SelectionService service_;
  server::ServeServer server_;
  server::ServeClient clients_[kConnections];
  bool started_ = false;
  uint64_t rounds_ = 0;
  Window window_;
};

}  // namespace

void PrepareServeMixed() { HotReferences(); }

std::unique_ptr<Workload> MakeServeMixed(const Options& options, Report* report) {
  return std::make_unique<ServeMixed>(options, report);
}

}  // namespace perfbench
