// The per-layer metric list and the probes the workloads share. A probe times calls
// into one layer's public functions from outside, on inputs the calling workload
// hands it, where the workload's own operations give no hook into that layer.
#include <algorithm>

#include "src/collectives/primitives.h"
#include "src/core/timeline.h"
#include "src/ddl/strategy_executor.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace espresso;

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"core.timeline.sim_us", "us"},
      {"sim.tasks_per_sim", "count"},
      {"sim.ns_per_task", "ns"},
      {"core.timeline.record_sim_ms", "ms"},
      {"core.selector.ctor_ms", "ms"},
      {"core.selector.algorithm1_ms", "ms"},
      {"core.selector.refine_ms", "ms"},
      {"core.selector.trajectory_ms", "ms"},
      {"core.selector.offload_ms", "ms"},
      {"core.selector.evaluations", "count"},
      {"core.selector.simulations", "count"},
      {"core.eval_cache.hit_ratio", "ratio"},
      {"core.eval_cache.evictions", "count"},
      {"ddl.job_config.load_ms", "ms"},
      {"core.strategy_ir.compile_ms", "ms"},
      {"core.strategy_ir.write_ms", "ms"},
      {"core.strategy_ir.parse_ms", "ms"},
      {"core.strategy_ir.bytes", "bytes"},
      {"analysis.validate_ms", "ms"},
      {"analysis.lint_ms", "ms"},
      {"analysis.verify_ms", "ms"},
      {"server.service.handle_warm_ms", "ms"},
      {"server.service.handle_cold_ms", "ms"},
      {"server.frame.rtt_ms", "ms"},
      {"compress.dgc.compress_melem_s.small", "Melem/s"},
      {"compress.dgc.compress_melem_s.large", "Melem/s"},
      {"compress.dgc.decompress_melem_s.small", "Melem/s"},
      {"compress.dgc.decompress_melem_s.large", "Melem/s"},
      {"compress.efsignsgd.compress_melem_s.small", "Melem/s"},
      {"compress.efsignsgd.compress_melem_s.large", "Melem/s"},
      {"compress.efsignsgd.decompress_melem_s.small", "Melem/s"},
      {"compress.efsignsgd.decompress_melem_s.large", "Melem/s"},
      {"compress.fp16.compress_melem_s.small", "Melem/s"},
      {"compress.fp16.compress_melem_s.large", "Melem/s"},
      {"compress.fp16.decompress_melem_s.small", "Melem/s"},
      {"compress.fp16.decompress_melem_s.large", "Melem/s"},
      {"collectives.allreduce_ms", "ms"},
      {"collectives.bytes_per_step", "bytes"},
      {"ddl.executor.small_tensors_ms", "ms"},
      {"ddl.executor.large_tensors_ms", "ms"},
      {"ddl.executor.cold_step_ms", "ms"},
      {"mem.allocs_per_step", "count"},
      {"mem.cold_allocs_per_step", "count"},
      {"nn.trainer.compute_s", "s"},
      {"nn.trainer.sync_s", "s"},
  };
  return metrics;
}

void FillUntouchedLayers(Report* report) {
  for (const LayerMetric& metric : LayerMetrics()) {
    if (report->layers().count(metric.name) == 0) {
      report->Layer(metric.name, 0.0, metric.unit);
    }
  }
}

double MedianSeconds(int reps, const std::function<void()>& fn) {
  Timing timing;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    timing.Add(SecondsSince(start));
  }
  return timing.Median();
}

void Deterministic(Report* report, const std::string& name, double first, double second,
                   const std::string& unit) {
  report->Layer(name, first, unit);
  report->Check(first == second, "deterministic counter " + name + " differs: " +
                                     std::to_string(first) + " vs " +
                                     std::to_string(second));
}

void ProbeSimulation(const std::vector<SelectedStrategy>& strategies, Report* report) {
  constexpr int kSims = 20;
  double seconds = 0.0;
  uint64_t tasks = 0, runs = 0;
  for (const SelectedStrategy& selected : strategies) {
    const TimelineEvaluator evaluator(*selected.model, *selected.cluster,
                                      *selected.compressor);
    TimelineEvaluator::EvalContext context;
    evaluator.IterationTime(*selected.strategy, &context);  // warm-up
    const uint64_t runs_before = RegistryCounter("espresso_sim_runs_total");
    const uint64_t tasks_before = RegistryCounter("espresso_sim_tasks_total");
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSims; ++i) {
      evaluator.IterationTime(*selected.strategy, &context);
    }
    seconds += SecondsSince(start);
    runs += RegistryCounter("espresso_sim_runs_total") - runs_before;
    tasks += RegistryCounter("espresso_sim_tasks_total") - tasks_before;
  }
  const size_t sims = strategies.size() * kSims;
  report->Layer("core.timeline.sim_us", sims == 0 ? 0.0 : seconds * 1e6 / sims, "us", sims);
  report->Check(runs == sims, "probe: " + std::to_string(sims) + " IterationTime calls ran " +
                                  std::to_string(runs) + " simulations");
  report->Layer("sim.ns_per_task", tasks == 0 ? 0.0 : seconds * 1e9 / tasks, "ns", sims);
}

void ProbeCompressors(uint64_t seed, Report* report) {
  struct Size {
    const char* name;
    size_t elements;
  };
  // Below and above the executor's 4096-element batching cutoff.
  const Size sizes[] = {{"small", 1024}, {"large", size_t{1} << 20}};
  for (const CompressorConfig& config : DataplaneCompressors()) {
    const auto compressor = CreateCompressor(config);
    const std::string prefix = "compress." + config.algorithm + ".";
    for (const Size& size : sizes) {
      std::vector<float> input(size.elements);
      Rng rng(DeriveSeed(seed, size.elements));
      rng.FillNormal(input, 0.0, 1.0);
      std::vector<float> output(size.elements, 0.0f);
      CompressedTensor payload;
      // About 4M elements per timed batch, so small tensors are timed in bulk.
      const size_t reps = std::max<size_t>(1, (size_t{4} << 20) / size.elements);
      const double elements = static_cast<double>(reps * size.elements);
      const double compress = MedianSeconds(5, [&] {
        for (size_t r = 0; r < reps; ++r) {
          compressor->Compress(input, r, &payload);
        }
      });
      const double decompress = MedianSeconds(5, [&] {
        for (size_t r = 0; r < reps; ++r) {
          compressor->DecompressAdd(payload, output);
        }
      });
      report->Layer(prefix + "compress_melem_s." + size.name, elements / compress / 1e6,
                    "Melem/s", 5);
      report->Layer(prefix + "decompress_melem_s." + size.name,
                    elements / decompress / 1e6, "Melem/s", 5);
    }
  }
}

namespace {

void Reload(const std::vector<RankBuffers>& base, const std::vector<size_t>& tensors,
            std::vector<RankBuffers>* into) {
  for (size_t i = 0; i < tensors.size(); ++i) {
    for (size_t r = 0; r < base[tensors[i]].size(); ++r) {
      (*into)[i][r].assign(base[tensors[i]][r].begin(), base[tensors[i]][r].end());
    }
  }
}

}  // namespace

void ProbeAllReduce(const std::vector<RankBuffers>& gradients, Report* report) {
  mem::CollectiveWorkspace workspace;
  std::vector<size_t> all(gradients.size());
  for (size_t t = 0; t < all.size(); ++t) {
    all[t] = t;
  }
  std::vector<RankBuffers> buffers = gradients;
  std::vector<double> bytes_per_step;
  const double seconds = MedianSeconds(5, [&] {
    Reload(gradients, all, &buffers);
    size_t bytes = 0;
    for (RankBuffers& tensor : buffers) {
      bytes += AllReduce(tensor, &workspace).bytes_sent_per_rank;
    }
    bytes_per_step.push_back(static_cast<double>(bytes));
  });
  report->Layer("collectives.allreduce_ms", seconds * 1e3, "ms", 5);
  Deterministic(report, "collectives.bytes_per_step", bytes_per_step[0], bytes_per_step[1],
                "bytes");
}

void ProbeExecutorSplit(const std::vector<SelectedStrategy>& strategies,
                        const std::vector<RankBuffers>& gradients, Report* report) {
  constexpr int kReps = 7;
  const size_t ranks = gradients.empty() ? 0 : gradients[0].size();
  for (const bool small : {true, false}) {
    double total = 0.0;
    for (const SelectedStrategy& selected : strategies) {
      std::vector<size_t> tensors;
      Strategy part;
      for (size_t t = 0; t < gradients.size(); ++t) {
        if ((selected.model->tensors[t].elements <= 4096) == small) {
          tensors.push_back(t);
          part.options.push_back(selected.strategy->options[t]);
        }
      }
      std::vector<RankBuffers> buffers;
      for (size_t t : tensors) {
        buffers.push_back(gradients[t]);
      }
      std::vector<ErrorFeedback> feedback(ranks);
      const ExecutorConfig config{.machines = selected.cluster->machines,
                                  .gpus_per_machine = selected.cluster->gpus_per_machine,
                                  .compressor = selected.compressor,
                                  .feedback = &feedback};
      ExecutorWorkspace workspace;
      ExecuteStrategy(part, config, buffers, &workspace);  // warm-up
      total += MedianSeconds(kReps, [&] {
        Reload(gradients, tensors, &buffers);
        ExecuteStrategy(part, config, buffers, &workspace);
      });
    }
    report->Layer(small ? "ddl.executor.small_tensors_ms" : "ddl.executor.large_tensors_ms",
                  total / static_cast<double>(strategies.size()) * 1e3, "ms",
                  kReps * strategies.size());
  }
}

}  // namespace perfbench
