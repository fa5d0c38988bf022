// Generated inputs of the benchmark workloads. Everything here is a pure function of
// its arguments (the run seed among them), so a seed fixes a run's inputs.
#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/collectives/rank_group.h"
#include "src/compress/compressor.h"
#include "src/core/espresso.h"
#include "src/core/strategy_ir.h"
#include "src/ddl/job_config.h"
#include "src/nn/dataset.h"
#include "src/util/rng.h"

namespace perfbench {

// One (model, GC, system) configuration as the three INI texts espresso_cli and the
// selection service take. `name` is "model/gc/system".
struct ConfigTriple {
  std::string name;
  std::string model_ini;
  std::string gc_ini;
  std::string system_ini;
};

// The committed GC and system configurations the workloads draw from (copies of
// configs/gc_dgc.ini, configs/gc_efsignsgd_limited.ini, configs/system_*.ini).
std::string GcIni(const std::string& gc);          // "dgc" | "efsignsgd_limited"
std::string SystemIni(const std::string& system);  // "nvlink" | "pcie"
ConfigTriple ZooTriple(const std::string& model, const std::string& gc,
                       const std::string& system);

// The Table-5 selection mix: the six zoo models x {dgc, efsignsgd_limited} x
// {nvlink, pcie}, in a fixed order.
std::vector<ConfigTriple> SelectionMix();

// The committed triples serve-mixed's warm requests repeat.
std::vector<ConfigTriple> ServeHotSet();

// Scales every tensor's backward time by a draw from U(0.95, 1.05).
void JitterBackwardTimes(espresso::Rng& rng, espresso::ModelProfile* model);

// A model no earlier request has used, under dgc on nvlink: a zoo model with jittered
// backward times (JitterBackwardTimes, seeded by `seed` and `index`) and a fresh
// label, written out as [tensors] INI text. Consecutive indices walk the six zoo
// models in the selection mix's order from a seeded start, so any six consecutive
// indices derive from each zoo model once.
ConfigTriple NovelTriple(uint64_t seed, uint64_t index);

// Loads a triple through the same path espresso_cli and the service use; aborts the
// run on a load error (the inputs are generated, so that is a benchmark bug).
espresso::JobConfig LoadTriple(const ConfigTriple& triple);

// espresso_cli's selector options for a job: library defaults, plus candidate pruning
// under a max_compress_ops constraint.
espresso::SelectorOptions CliSelectorOptions(const espresso::JobConfig& job,
                                             const espresso::Compressor& compressor);

// The provenance espresso_cli (and the selection service) stamp on a selected IR.
espresso::StrategyProvenance CliProvenance();

// The IR document espresso_cli --ir-out writes for `job`: a fresh selection, compiled
// with the CLI's provenance and serialized canonically.
std::string CliIrText(const espresso::JobConfig& job);

// --- Gradient dataplane ------------------------------------------------------------

// VGG16's zoo profile scaled down 256x in elements (floored at 64), so its tensors sit
// on both sides of the executor's 4096-element batching cutoff.
espresso::ModelProfile DataplaneProfile();

// A 2x2 PCIe cluster whose links are scaled down to the profile's tensor sizes, as in
// examples/end_to_end_training.cpp, so selection mixes compressed and uncompressed,
// flat and hierarchical options.
espresso::ClusterSpec DataplaneCluster();

// The three compressors the dataplane workload runs: dgc, efsignsgd, fp16.
std::vector<espresso::CompressorConfig> DataplaneCompressors();

// Seeded N(0, 1) gradients for DataplaneProfile(): [tensor][rank] on a 2x2 cluster.
std::vector<espresso::RankBuffers> DataplaneGradients(uint64_t seed);

// Seeded Gaussian blobs (32 features, 4 classes): 1536 training and 512 test samples.
void DataplaneDataset(uint64_t seed, espresso::Dataset* train, espresso::Dataset* test);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
