#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <iterator>

#include "src/core/decision_tree.h"
#include "src/models/model_zoo.h"
#include "src/util/config.h"

namespace perfbench {

using namespace espresso;

std::string GcIni(const std::string& gc) {
  if (gc == "dgc") {
    return "[compression]\nalgorithm = dgc\nratio = 0.01\n";
  }
  if (gc == "efsignsgd_limited") {
    return "[compression]\nalgorithm = efsignsgd\nmax_compress_ops = 1\n";
  }
  std::cerr << "perfbench: unknown gc configuration " << gc << "\n";
  std::abort();
}

std::string SystemIni(const std::string& system) {
  return "[cluster]\ntestbed = " + system + "\nmachines = 8\ngpus_per_machine = 8\n";
}

ConfigTriple ZooTriple(const std::string& model, const std::string& gc,
                       const std::string& system) {
  return ConfigTriple{model + "/" + gc + "/" + system, "[model]\nname = " + model + "\n",
                      GcIni(gc), SystemIni(system)};
}

namespace {

// The zoo models of the selection mix, in its order.
constexpr const char* kZooModels[] = {"vgg16", "resnet101", "ugatit",
                                      "bert-base", "gpt2", "lstm"};
constexpr uint64_t kZooCount = std::size(kZooModels);

}  // namespace

std::vector<ConfigTriple> SelectionMix() {
  std::vector<ConfigTriple> mix;
  for (const char* model : kZooModels) {
    for (const char* gc : {"dgc", "efsignsgd_limited"}) {
      for (const char* system : {"nvlink", "pcie"}) {
        mix.push_back(ZooTriple(model, gc, system));
      }
    }
  }
  return mix;
}

std::vector<ConfigTriple> ServeHotSet() {
  return {ZooTriple("gpt2", "dgc", "nvlink"), ZooTriple("lstm", "efsignsgd_limited", "pcie"),
          ZooTriple("vgg16", "dgc", "pcie")};
}

void JitterBackwardTimes(Rng& rng, ModelProfile* model) {
  for (TensorSpec& tensor : model->tensors) {
    tensor.backward_time_s *= rng.Uniform(0.95, 1.05);
  }
}

ConfigTriple NovelTriple(uint64_t seed, uint64_t index) {
  Rng start(DeriveSeed(seed, 0x7a6f6fULL));
  const char* zoo = kZooModels[(static_cast<uint64_t>(start.UniformInt(0, kZooCount - 1)) +
                                index) %
                               kZooCount];
  ModelProfile model = GetModel(zoo);
  Rng jitter(DeriveSeed(seed, 0x6e6f76656cULL + index));
  JitterBackwardTimes(jitter, &model);
  char line[256];
  std::snprintf(line, sizeof(line),
                "[model]\nlabel = novel-%s-%llu-%llu\nforward_ms = %.17g\n"
                "optimizer_ms = %.17g\nbatch_size = %zu\nunit = %s\n[tensors]\n",
                zoo, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(index), model.forward_time_s * 1e3,
                model.optimizer_time_s * 1e3, model.batch_size,
                model.throughput_unit.c_str());
  std::string text = line;
  for (size_t t = 0; t < model.tensors.size(); ++t) {
    std::snprintf(line, sizeof(line), "t%zu = %zu, %.17g\n", t, model.tensors[t].elements,
                  model.tensors[t].backward_time_s * 1e3);
    text += line;
  }
  return ConfigTriple{std::string("novel-") + zoo + "/dgc/nvlink", text, GcIni("dgc"),
                      SystemIni("nvlink")};
}

JobConfig LoadTriple(const ConfigTriple& triple) {
  JobConfigResult loaded = LoadJobConfig(ConfigFile::ParseString(triple.model_ini),
                                         ConfigFile::ParseString(triple.gc_ini),
                                         ConfigFile::ParseString(triple.system_ini));
  if (!loaded.ok) {
    std::cerr << "perfbench: generated configuration " << triple.name
              << " does not load: " << loaded.error << "\n";
    std::abort();
  }
  return std::move(loaded.job);
}

SelectorOptions CliSelectorOptions(const JobConfig& job, const Compressor& compressor) {
  SelectorOptions options;
  if (job.max_compress_ops > 0) {
    TreeConfig tree{job.cluster.machines, job.cluster.gpus_per_machine,
                    compressor.SupportsCompressedAggregation(), job.max_compress_ops};
    options.candidates = CandidateOptions(tree);
  }
  return options;
}

StrategyProvenance CliProvenance() {
  StrategyProvenance provenance;
  provenance.origin = "selector";
  provenance.selector = "espresso";
  return provenance;
}

std::string CliIrText(const JobConfig& job) {
  const auto compressor = job.MakeCompressor();
  EspressoSelector selector(job.model, job.cluster, *compressor,
                            CliSelectorOptions(job, *compressor));
  const SelectionResult result = selector.Select();
  return StrategyIRToString(CompileStrategyIR(result.strategy, result.iteration_time,
                                              job.model, job.cluster, job.compressor,
                                              CliProvenance()));
}

ModelProfile DataplaneProfile() {
  ModelProfile profile = Vgg16();
  profile.name = "vgg16-div256";
  for (TensorSpec& tensor : profile.tensors) {
    tensor.elements = std::max<size_t>(64, tensor.elements / 256);
  }
  return profile;
}

ClusterSpec DataplaneCluster() {
  ClusterSpec cluster = PcieCluster(2, 2);
  cluster.inter.bytes_per_second = 2e6;
  cluster.inter.latency_s = 2e-6;
  cluster.intra.bytes_per_second = 2e7;
  cluster.intra.latency_s = 1e-6;
  return cluster;
}

std::vector<CompressorConfig> DataplaneCompressors() {
  return {CompressorConfig{.algorithm = "dgc", .ratio = 0.01},
          CompressorConfig{.algorithm = "efsignsgd"},
          CompressorConfig{.algorithm = "fp16"}};
}

std::vector<RankBuffers> DataplaneGradients(uint64_t seed) {
  const ModelProfile profile = DataplaneProfile();
  constexpr size_t kRanks = 4;
  std::vector<RankBuffers> gradients(profile.tensors.size());
  for (size_t t = 0; t < gradients.size(); ++t) {
    gradients[t].assign(kRanks, std::vector<float>(profile.tensors[t].elements));
    for (size_t r = 0; r < kRanks; ++r) {
      Rng rng(DeriveSeed(seed, t * kRanks + r));
      rng.FillNormal(gradients[t][r], 0.0, 1.0);
    }
  }
  return gradients;
}

void DataplaneDataset(uint64_t seed, Dataset* train, Dataset* test) {
  const Dataset all = MakeGaussianBlobs(2048, 32, 4, 1.6, DeriveSeed(seed, 0x6e6e));
  *train = Slice(all, 0, 1536);
  *test = Slice(all, 1536, 512);
}

}  // namespace perfbench
