#include "src/models/model_zoo.h"

#include <gtest/gtest.h>

#include <ostream>

namespace espresso {
namespace {

struct ZooExpectation {
  const char* name;
  size_t tensor_count;  // Table 5 of the paper
  double size_mb_low;   // Table 4, with synthesis tolerance
  double size_mb_high;
};

// Without this, gtest prints the raw bytes of the struct, which include the
// load-address-dependent `name` pointer, so the test IDs would change on every run.
void PrintTo(const ZooExpectation& e, std::ostream* os) { *os << e.name; }

class ZooParam : public ::testing::TestWithParam<ZooExpectation> {};

TEST_P(ZooParam, MatchesPaperTables) {
  const ZooExpectation& e = GetParam();
  const ModelProfile model = GetModel(e.name);
  EXPECT_EQ(model.TensorCount(), e.tensor_count);
  const double mb = static_cast<double>(model.TotalBytes()) / (1024.0 * 1024.0);
  EXPECT_GE(mb, e.size_mb_low) << mb;
  EXPECT_LE(mb, e.size_mb_high) << mb;
}

TEST_P(ZooParam, TimesAreSane) {
  const ModelProfile model = GetModel(GetParam().name);
  EXPECT_GT(model.forward_time_s, 0.0);
  EXPECT_GT(model.optimizer_time_s, 0.0);
  EXPECT_GT(model.BackwardTime(), model.forward_time_s);  // backward costs ~2x forward
  for (const auto& t : model.tensors) {
    EXPECT_GT(t.elements, 0u) << t.name;
    EXPECT_GT(t.backward_time_s, 0.0) << t.name;
  }
  // Single-GPU iteration in a V100-plausible band.
  EXPECT_GT(model.SingleGpuIterationTime(), 0.02);
  EXPECT_LT(model.SingleGpuIterationTime(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperModels, ZooParam,
    ::testing::Values(ZooExpectation{"vgg16", 32, 480, 580},
                      ZooExpectation{"resnet101", 314, 150, 190},
                      ZooExpectation{"ugatit", 148, 2300, 2800},
                      ZooExpectation{"bert-base", 207, 390, 450},
                      ZooExpectation{"gpt2", 148, 440, 510},
                      ZooExpectation{"lstm", 10, 290, 370}),
    [](const auto& info) { return std::string(info.param.name).substr(0, 4) +
                                  std::to_string(info.param.tensor_count); });

TEST(ModelZoo, AllModelsReturnsSix) {
  EXPECT_EQ(AllModels().size(), 6u);
}

TEST(ModelZoo, BackwardOrderPutsOutputLayerLast) {
  // Backward propagation reaches the input-side layers last; "distance to the output
  // layer" (paper terminology) is 0 for the final backward tensor.
  const ModelProfile vgg = Vgg16();
  EXPECT_EQ(vgg.tensors.front().name, "fc8.bias");  // loss side computes first
  EXPECT_EQ(vgg.tensors.back().name, "conv0.weight");
  EXPECT_EQ(vgg.DistanceToOutput(vgg.tensors.size() - 1), 0u);
  EXPECT_EQ(vgg.DistanceToOutput(0), vgg.tensors.size() - 1);
}

TEST(ModelZoo, Vgg16DominatedByFc6) {
  const ModelProfile vgg = Vgg16();
  size_t max_elements = 0;
  std::string biggest;
  for (const auto& t : vgg.tensors) {
    if (t.elements > max_elements) {
      max_elements = t.elements;
      biggest = t.name;
    }
  }
  EXPECT_EQ(biggest, "fc6.weight");
  EXPECT_GT(max_elements, vgg.TotalElements() / 2);  // fc6 is >50% of VGG16
}

TEST(ModelZoo, LstmHasFewHugeTensors) {
  const ModelProfile lstm = Lstm();
  size_t huge = 0;
  for (const auto& t : lstm.tensors) {
    if (t.bytes() > 10 * 1024 * 1024) {
      ++huge;
    }
  }
  EXPECT_GE(huge, 6u);  // the paper's bubble-heavy workload: a handful of huge tensors
}

TEST(ModelZoo, GetModelAliases) {
  EXPECT_EQ(GetModel("bert").name, "bert-base");
}

TEST(ModelZooDeathTest, UnknownModelDies) {
  EXPECT_DEATH(GetModel("alexnet"), "unknown model");
}

TEST(ModelZoo, BackwardTimesSumToTotal) {
  for (const auto& model : AllModels()) {
    double sum = 0.0;
    for (const auto& t : model.tensors) {
      sum += t.backward_time_s;
    }
    EXPECT_NEAR(sum, model.BackwardTime(), 1e-9) << model.name;
  }
}

}  // namespace
}  // namespace espresso
