// train-dataplane: the gradient dataplane. Set-up selects, untimed, one strategy per
// compressor (dgc, efsignsgd, fp16) for a scaled-down VGG16 profile on a 2x2 cluster
// with scaled-down links; the timed part runs ExecuteStrategy steps on seeded
// gradients with error feedback through one persistent workspace, round-robin over
// the three strategies, interleaved with TrainDataParallel runs (library-default
// TrainConfig) on seeded Gaussian blobs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/collectives/primitives.h"
#include "src/ddl/strategy_executor.h"
#include "src/nn/dataset.h"
#include "src/nn/parallel_trainer.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace espresso;

constexpr size_t kMachines = 2;
constexpr size_t kGpusPerMachine = 2;
constexpr size_t kRanks = kMachines * kGpusPerMachine;
// Every kCheckEvery-th step is re-run on a fresh workspace and compared bit for bit.
constexpr uint64_t kCheckEvery = 4;

struct Plan {
  std::unique_ptr<Compressor> compressor;
  Strategy strategy;
  std::vector<ErrorFeedback> feedback = std::vector<ErrorFeedback>(kRanks);
};

// The middle order statistic (the upper one of an even count).
double MedianCount(std::vector<double> counts) {
  if (counts.empty()) {
    return 0.0;
  }
  const auto middle = counts.begin() + static_cast<std::ptrdiff_t>(counts.size() / 2);
  std::nth_element(counts.begin(), middle, counts.end());
  return *middle;
}

bool SameBits(const std::vector<RankBuffers>& a, const std::vector<RankBuffers>& b) {
  for (size_t t = 0; t < a.size(); ++t) {
    for (size_t r = 0; r < kRanks; ++r) {
      if (std::memcmp(a[t][r].data(), b[t][r].data(), a[t][r].size() * sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// What one measured window's steps and training runs add up to.
struct Window {
  std::vector<double> warm_allocs;  // per ExecuteStrategy step
  Timing fresh_step;                // the fresh-workspace re-runs of the check
  std::vector<double> fresh_allocs;
  Timing compute, sync;             // per TrainDataParallel run, from its EpochStats
};

class TrainDataplane final : public Workload {
 public:
  TrainDataplane(const Options& options, Report* report)
      : seed_(options.seed), profile_(DataplaneProfile()), cluster_(DataplaneCluster()) {
    size_t compressed = 0, flat = 0;
    for (const CompressorConfig& config : DataplaneCompressors()) {
      Plan plan;
      plan.compressor = CreateCompressor(config);
      EspressoSelector selector(profile_, cluster_, *plan.compressor);
      plan.strategy = selector.Select().strategy;
      for (const CompressionOption& option : plan.strategy.options) {
        compressed += option.Compressed() ? 1 : 0;
        flat += option.flat ? 1 : 0;
      }
      plans_.push_back(std::move(plan));
    }
    const size_t options_total = plans_.size() * profile_.tensors.size();
    mix_note_ = std::to_string(compressed) + " of " + std::to_string(options_total) +
                " options compressed, " + std::to_string(flat) + " flat";

    base_ = DataplaneGradients(seed_);
    for (const RankBuffers& tensor : base_) {
      sums_.push_back(NaiveSum(tensor));
    }
    grads_ = base_;
    DataplaneDataset(seed_, &train_, &test_);
    report->Check(compressed > 0 && compressed < options_total && flat > 0 &&
                      flat < options_total,
                  "train-dataplane: selected strategies do not mix options (" + mix_note_ +
                      ")");
  }

  void Measure(double seconds, bool full_run, Report* report) override {
    previous_ = std::move(window_);
    window_ = Window{};
    // Everything runs on this thread and is CPU-bound, so each round (one step per
    // strategy, then one training run) is rescaled to the reference host speed by
    // the host-speed probes around it (bench.h).
    Timing step, measured_step, probes;
    double train_seconds = 0.0, measured_train_seconds = 0.0;
    size_t train_samples = 0;
    double probe_before = ProbeHostSeconds();
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds ||
           (full_run && step.count() < kMinSamplesForP90)) {
      std::vector<double> round;
      for (size_t p = 0; p < plans_.size(); ++p) {
        round.push_back(Step(p, report));
      }
      const double train_s = Train(&train_samples, report);
      const double probe_after = ProbeHostSeconds();
      const double probe = 0.5 * (probe_before + probe_after);
      const double scale = kReferenceProbeSeconds / probe;
      probe_before = probe_after;
      probes.Add(probe);
      for (double s : round) {
        step.Add(s * scale);
        measured_step.Add(s);
      }
      train_seconds += train_s * scale;
      measured_train_seconds += train_s;
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  measured (not rescaled): exec_step_ms_p50 %.3f ms, exec_step_ms_p90 "
                  "%.3f ms, train_samples_per_s %.1f 1/s; host-speed probe median %.4f ms "
                  "(reference %.4f ms)",
                  measured_step.Median() * 1e3, measured_step.Percentile(0.9) * 1e3,
                  static_cast<double>(train_samples) / measured_train_seconds,
                  probes.Median() * 1e3, kReferenceProbeSeconds * 1e3);
    report->Note(line);
    report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
    report->EndToEnd("latency_ms_p50", step.Median() * 1e3, "ms", step.count());
    report->EndToEnd("latency_ms_p90", step.Percentile(0.9) * 1e3, "ms", step.count());
    report->EndToEnd("throughput_per_s", static_cast<double>(train_samples) / train_seconds,
                     "1/s", train_samples);
    report->EndToEnd("train_loss", loss_, "nats");
    report->Note("  strategies: " + mix_note_);
  }

  void ReportLayers(Report* report) override {
    const Window& w = window_;
    report->Layer("ddl.executor.cold_step_ms", w.fresh_step.Median() * 1e3, "ms",
                  w.fresh_step.count());
    report->Layer("mem.cold_allocs_per_step", MedianCount(w.fresh_allocs), "count",
                  w.fresh_allocs.size());
    // Most warm steps allocate nothing; one allocates when the data pushes a buffer
    // past its high-water mark, so the median is what repeats from window to window.
    Deterministic(report, "mem.allocs_per_step", MedianCount(w.warm_allocs),
                  MedianCount(previous_.warm_allocs), "count");
    report->Layer("nn.trainer.compute_s", w.compute.Median(), "s", w.compute.count());
    report->Layer("nn.trainer.sync_s", w.sync.Median(), "s", w.sync.count());

    // The layers a step gives no hook into, probed on the workload's own inputs.
    ProbeCompressors(seed_, report);
    ProbeAllReduce(base_, report);
    std::vector<SelectedStrategy> selected;
    for (const Plan& plan : plans_) {
      selected.push_back(
          SelectedStrategy{&profile_, &cluster_, plan.compressor.get(), &plan.strategy});
    }
    ProbeExecutorSplit(selected, base_, report);
  }

 private:
  // One ExecuteStrategy step of plan `p` and its checks; returns the step's wall time.
  double Step(size_t p, Report* report) {
    Plan& plan = plans_[p];
    for (size_t t = 0; t < base_.size(); ++t) {
      for (size_t r = 0; r < kRanks; ++r) {
        grads_[t][r].assign(base_[t][r].begin(), base_[t][r].end());
      }
    }
    const uint64_t index = steps_++;
    ExecutorConfig config{.machines = kMachines,
                          .gpus_per_machine = kGpusPerMachine,
                          .compressor = plan.compressor.get(),
                          .feedback = &plan.feedback,
                          .seed = DeriveSeed(seed_, 0x737465 + index)};
    const bool check_fresh = index % kCheckEvery == 0;
    std::vector<ErrorFeedback> feedback_before;
    if (check_fresh) {
      feedback_before = plan.feedback;
    }

    uint64_t allocs = 0;
    const Clock::time_point start = Clock::now();
    {
      Span span("ddl.executor.step");
      const uint64_t allocs_before = AllocationCount();
      ExecuteStrategy(plan.strategy, config, grads_, &workspace_);
      allocs = AllocationCount() - allocs_before;
    }
    const double seconds = SecondsSince(start);
    window_.warm_allocs.push_back(static_cast<double>(allocs));

    Span check("train-dataplane.check");
    bool ok = true;
    std::string failure;
    for (size_t t = 0; t < base_.size() && ok; ++t) {
      if (plan.strategy.options[t].Compressed()) {
        continue;
      }
      for (size_t r = 0; r < kRanks && ok; ++r) {
        for (size_t i = 0; i < sums_[t].size(); ++i) {
          if (!(std::fabs(grads_[t][r][i] - sums_[t][i]) <= 1e-4f)) {
            ok = false;
            failure = "FP32 tensor " + std::to_string(t) + " differs from NaiveSum";
            break;
          }
        }
      }
    }
    if (ok && check_fresh) {
      std::vector<RankBuffers> fresh = base_;
      config.feedback = &feedback_before;
      const uint64_t fresh_before = AllocationCount();
      const Clock::time_point fresh_start = Clock::now();
      {
        ExecutorWorkspace fresh_workspace;
        ExecuteStrategy(plan.strategy, config, fresh, &fresh_workspace);
      }
      window_.fresh_step.Add(SecondsSince(fresh_start));
      window_.fresh_allocs.push_back(static_cast<double>(AllocationCount() - fresh_before));
      if (!SameBits(grads_, fresh)) {
        ok = false;
        failure = "warm-workspace aggregates differ from a fresh-workspace run";
      }
    }
    report->Operation(ok, "train-dataplane step " + std::to_string(index) + " (" +
                              std::string(plan.compressor->name()) + "): " + failure);
    return seconds;
  }

  // One TrainDataParallel run; returns its wall time and adds the samples it trained.
  double Train(size_t* samples, Report* report) {
    const TrainConfig config;
    std::vector<EpochStats> stats;
    const Clock::time_point start = Clock::now();
    {
      Span span("nn.trainer.train");
      stats = TrainDataParallel(train_, test_, config);
    }
    const double seconds = SecondsSince(start);
    double compute_s = 0.0, sync_s = 0.0;
    for (const EpochStats& epoch : stats) {
      compute_s += epoch.compute_seconds;
      sync_s += epoch.sync_seconds;
    }
    window_.compute.Add(compute_s);
    window_.sync.Add(sync_s);
    *samples += config.epochs * train_.size();
    const double loss = stats.empty() ? NAN : stats.back().train_loss;
    bool ok = std::isfinite(loss) && loss < stats.front().train_loss;
    if (ok && !std::isnan(loss_)) {
      ok = loss == loss_;  // the trainer is deterministic for a fixed seed
    }
    if (std::isnan(loss_)) {
      loss_ = loss;
    }
    report->Operation(ok, "train-dataplane: trainer loss " + std::to_string(loss) +
                              " (first run " + std::to_string(loss_) + ")");
    return seconds;
  }

  const uint64_t seed_;
  const ModelProfile profile_;
  const ClusterSpec cluster_;
  std::vector<Plan> plans_;
  std::string mix_note_;
  std::vector<RankBuffers> base_;
  std::vector<std::vector<float>> sums_;
  std::vector<RankBuffers> grads_;
  ExecutorWorkspace workspace_;
  Dataset train_, test_;
  uint64_t steps_ = 0;
  double loss_ = NAN;
  Window window_, previous_;
};

}  // namespace

std::unique_ptr<Workload> MakeTrainDataplane(const Options& options, Report* report) {
  return std::make_unique<TrainDataplane>(options, report);
}

}  // namespace perfbench
