// The benchmark workloads and the per-layer probes they share.
//
// A workload is constructed once per set-up (the constructor is the set-up the
// `setup_s` metric times) and then measured: Measure() runs its closed loop for a
// window, checks every output, and records its end-to-end metrics under the names
// listed in BENCHMARK.json (latency_ms_p50, latency_ms_p90, throughput_per_s) plus
// the workload's own extras. After the traced window of a traced run, ReportLayers()
// records the per-layer metrics of the layers that window went through.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "inputs.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  // Measures for at least `seconds`; a workload may run longer to finish a pass of its
  // input mix or to collect enough samples for its p90.
  virtual void Measure(double seconds, bool full_run, Report* report) = 0;
  // Records the per-layer metrics of the last Measure() window: figures the window's
  // own operations produced, and probes on its own inputs where a layer gives the
  // workload no hook. A layer the workload does not enter is left out.
  virtual void ReportLayers(Report* report) = 0;
};

std::unique_ptr<Workload> MakeSelectCold(const Options& options, Report* report);
std::unique_ptr<Workload> MakeServeMixed(const Options& options, Report* report);
std::unique_ptr<Workload> MakeTrainDataplane(const Options& options, Report* report);

// Work serve-mixed needs before its first set-up and that is not part of it: the
// reference IRs of the hot set.
void PrepareServeMixed();

// Writes the select-cold reference (one line per triple: name, strategy fingerprint,
// F(S)) for the unjittered selection mix.
bool WriteSelectReference(const std::string& path);

// Samples a p90 needs beyond it.
inline constexpr size_t kMinSamplesForP90 = 100;

// --- Per-layer metrics -------------------------------------------------------------

// Every per-layer metric BENCHMARK.json lists, with its unit.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& LayerMetrics();

// Records 0 for every listed per-layer metric the workload did not report: the
// workload spends no time in, and moves nothing through, that layer.
void FillUntouchedLayers(Report* report);

// Median wall time of `reps` calls of `fn`, in seconds.
double MedianSeconds(int reps, const std::function<void()>& fn);

// Records a counter that must read the same on both of its measurements.
void Deterministic(Report* report, const std::string& name, double first, double second,
                   const std::string& unit);

// One strategy with the configuration it was selected for.
struct SelectedStrategy {
  const espresso::ModelProfile* model;
  const espresso::ClusterSpec* cluster;
  const espresso::Compressor* compressor;
  const espresso::Strategy* strategy;
};

// Times IterationTime on each strategy and records core.timeline.sim_us (per
// simulation, every strategy weighted alike) and sim.ns_per_task.
void ProbeSimulation(const std::vector<SelectedStrategy>& strategies, Report* report);

// The dataplane probes of train-dataplane's inputs: compressor throughput below and
// above the batching cutoff, a ring allreduce of every gradient, and ExecuteStrategy
// on the small and the large tensors of each strategy separately.
void ProbeCompressors(uint64_t seed, Report* report);
void ProbeAllReduce(const std::vector<espresso::RankBuffers>& gradients, Report* report);
void ProbeExecutorSplit(const std::vector<SelectedStrategy>& strategies,
                        const std::vector<espresso::RankBuffers>& gradients,
                        Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
