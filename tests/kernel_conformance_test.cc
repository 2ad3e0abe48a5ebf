// Differential conformance suite for the inference kernel
// (spe/kernels/flat_forest.h). Every ensemble scored here runs through
// the reference member loop and through the flat f64 kernel, and the two
// must agree byte-for-byte (memcmp). The kernel has two walks — the
// complete relayout for trees up to kCompleteMaxDepth and the pooled
// walk for deeper ones — so the matrix covers both, alone and mixed in
// one forest, across tree counts, depths, NaN patterns, prefix lengths,
// thread counts and the block-boundary row counts 0/1/63/64/65/10k.
// Registered under both the `kernel` and `sanitize` ctest labels.

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/classifiers/logistic_regression.h"
#include "spe/classifiers/random_forest.h"
#include "spe/common/parallel.h"
#include "spe/common/rng.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/io/model_io.h"
#include "spe/kernels/flat_forest.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Every test leaves the process-wide knobs where it found them.
class KernelConformanceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    kernels::SetFlatKernelEnabled(true);
    SetNumThreads(0);
  }
};

enum class NanPattern { kNone, kSparse, kAllNanRows, kNanColumn };

// Randomized scoring batch in `features` dimensions (wider than the
// 2-D training blobs exercise only the first two feature columns, but
// widen the row stride), with the chosen hostile-NaN shape.
Dataset RandomBatch(std::size_t rows, std::size_t features,
                    std::uint64_t seed, NanPattern pattern) {
  Rng rng(seed);
  Dataset data(features);
  std::vector<double> row(features);
  for (std::size_t i = 0; i < rows; ++i) {
    const int label = rng.Uniform() < 0.25 ? 1 : 0;
    const double shift = label == 1 ? 1.5 : 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      row[f] = rng.Gaussian(shift, 1.0);
    }
    data.AddRow(row, label);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (pattern) {
    case NanPattern::kNone:
      break;
    case NanPattern::kSparse:
      for (std::size_t i = 0; i < rows; i += 7) data.Set(i, 0, nan);
      for (std::size_t i = 3; i < rows; i += 11) data.Set(i, 1 % features, nan);
      break;
    case NanPattern::kAllNanRows:
      for (std::size_t i = 0; i < rows; i += 5) {
        for (std::size_t f = 0; f < features; ++f) data.Set(i, f, nan);
      }
      break;
    case NanPattern::kNanColumn:
      for (std::size_t i = 0; i < rows; ++i) data.Set(i, 0, nan);
      break;
  }
  return data;
}

// A fitted SPE forest of `trees` depth-`depth` trees — the randomized
// ensemble under test. Seeds flow into training so every (trees, depth)
// cell scores a genuinely different forest.
SelfPacedEnsemble RandomForestModel(int trees, int depth,
                                    std::uint64_t seed) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = trees;
  DecisionTreeConfig tree;
  tree.max_depth = depth;
  SelfPacedEnsemble model(config, std::make_unique<DecisionTree>(tree));
  const Dataset train = OverlappingBlobs(700, 120, seed);
  model.Fit(train);
  return model;
}

// The conformance contract over one model × batch: the flat kernel
// reproduces the reference scoring loop byte-for-byte.
void ExpectConformance(const Classifier& model, const Dataset& batch,
                       const std::string& what) {
  kernels::SetFlatKernelEnabled(false);
  const std::vector<double> reference = model.PredictProba(batch);
  kernels::SetFlatKernelEnabled(true);
  const std::vector<double> flat = model.PredictProba(batch);
  EXPECT_TRUE(SameBytes(reference, flat)) << what;
}

// Same contract at one worker and at several: blocks write disjoint
// output ranges from identical per-row arithmetic, so the thread count
// must not change a byte.
void ExpectConformanceAtThreadCounts(const Classifier& model,
                                     const Dataset& batch,
                                     const std::string& what) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SetNumThreads(threads);
    ExpectConformance(model, batch,
                      what + " threads=" + std::to_string(threads));
  }
  SetNumThreads(0);
}

// Block-boundary row counts: 0 rows, 1 row, one row short of a block,
// exactly one block, one row into the second block, and a large batch
// that spans many parallel grains.
TEST_F(KernelConformanceTest, RowCountMatrix) {
  const SelfPacedEnsemble model = RandomForestModel(5, 6, 101);
  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{10000}}) {
    const Dataset batch = RandomBatch(rows, 2, 200 + rows, NanPattern::kSparse);
    ExpectConformance(model, batch, "rows=" + std::to_string(rows));
  }
}

// Randomized ensembles across tree counts and depths.
TEST_F(KernelConformanceTest, TreeDepthMatrix) {
  std::uint64_t seed = 300;
  for (const int trees : {1, 4, 10}) {
    for (const int depth : {1, 4, 10}) {
      const SelfPacedEnsemble model = RandomForestModel(trees, depth, ++seed);
      const Dataset batch = RandomBatch(400, 2, seed * 7, NanPattern::kSparse);
      ExpectConformance(model, batch,
                        "trees=" + std::to_string(trees) +
                            " depth=" + std::to_string(depth));
    }
  }
}

TEST_F(KernelConformanceTest, NanPatternMatrix) {
  const SelfPacedEnsemble model = RandomForestModel(6, 5, 400);
  int i = 0;
  for (const NanPattern pattern :
       {NanPattern::kNone, NanPattern::kSparse, NanPattern::kAllNanRows,
        NanPattern::kNanColumn}) {
    const Dataset batch = RandomBatch(500, 2, 500 + i, pattern);
    ExpectConformance(model, batch, "nan pattern " + std::to_string(i));
    ++i;
  }
}

// GBDT members lower to kBoostLogit ops: per-tree base + lr·leaf, then
// the sigmoid.
TEST_F(KernelConformanceTest, GbdtEnsembleConforms) {
  const Dataset train = OverlappingBlobs(800, 110, 600);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  GbdtConfig gbdt;
  gbdt.boost_rounds = 10;
  SelfPacedEnsemble model(config, std::make_unique<Gbdt>(gbdt));
  model.Fit(train);
  ASSERT_NE(model.members().flat_kernel(), nullptr);
  EXPECT_STREQ("flat", kernels::ActiveKernel(model));
  ExpectConformance(model, RandomBatch(700, 2, 601, NanPattern::kSparse),
                    "spe over gbdt");
}

// A tree fitted with max_depth 30 on a large sample: deeper than
// kCompleteMaxDepth, so it does not relayout and runs the pooled walk.
std::unique_ptr<DecisionTree> DeepTree(std::uint64_t seed) {
  DecisionTreeConfig config;
  config.max_depth = 30;
  auto tree = std::make_unique<DecisionTree>(config);
  tree->Fit(OverlappingBlobs(2500, 2500, seed));
  EXPECT_GT(tree->Depth(), kernels::kCompleteMaxDepth);
  return tree;
}

// The pooled walk alone: one depth-30 tree.
TEST_F(KernelConformanceTest, DeepTreeTakesPooledWalk) {
  VotingEnsemble members;
  members.Add(DeepTree(700));
  const VotingEnsembleModel model(std::move(members));
  EXPECT_STREQ("flat", kernels::ActiveKernel(model));
  ExpectConformanceAtThreadCounts(
      model, RandomBatch(3000, 2, 701, NanPattern::kSparse), "depth-30 tree");
}

// Both walks in one forest: shallow members relayout and accumulate
// straight into the vote sum, deep members take the pooled walk, and a
// nested random forest of deep trees runs the pooled walk inside a
// group op. Sums must still accumulate in member index order.
TEST_F(KernelConformanceTest, MixedForestConforms) {
  VotingEnsemble members;
  for (int i = 0; i < 3; ++i) {
    DecisionTreeConfig config;
    config.max_depth = 4 + 3 * i;
    auto shallow = std::make_unique<DecisionTree>(config);
    shallow->Fit(OverlappingBlobs(700, 120, 710 + static_cast<std::uint64_t>(i)));
    EXPECT_LE(shallow->Depth(), kernels::kCompleteMaxDepth);
    members.Add(std::move(shallow));
    members.Add(DeepTree(720 + static_cast<std::uint64_t>(i)));
  }
  RandomForestConfig forest_config;
  forest_config.n_estimators = 4;
  forest_config.max_depth = 30;
  auto forest = std::make_unique<RandomForest>(forest_config);
  forest->Fit(OverlappingBlobs(2500, 2500, 730));
  members.Add(std::move(forest));
  const VotingEnsembleModel model(std::move(members));
  EXPECT_STREQ("flat", kernels::ActiveKernel(model));
  ExpectConformanceAtThreadCounts(
      model, RandomBatch(3000, 2, 731, NanPattern::kSparse), "mixed forest");
}

// Prefix scoring (the serve layer's degradation knob) conforms at
// k = 1, mid, all.
TEST_F(KernelConformanceTest, PrefixConformance) {
  const SelfPacedEnsemble model = RandomForestModel(8, 5, 800);
  const Dataset batch = RandomBatch(300, 2, 801, NanPattern::kSparse);
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    kernels::SetFlatKernelEnabled(false);
    const std::vector<double> reference = model.PredictProbaPrefix(batch, k);
    kernels::SetFlatKernelEnabled(true);
    EXPECT_TRUE(SameBytes(reference, model.PredictProbaPrefix(batch, k)))
        << "k=" << k;
  }
}

// Thread-count invariance: 1 vs 8 threads must agree to the byte.
TEST_F(KernelConformanceTest, ThreadCountInvariance) {
  const SelfPacedEnsemble model = RandomForestModel(6, 6, 900);
  const Dataset batch = RandomBatch(2000, 2, 901, NanPattern::kSparse);
  SetNumThreads(1);
  const std::vector<double> one = model.PredictProba(batch);
  SetNumThreads(8);
  const std::vector<double> eight = model.PredictProba(batch);
  EXPECT_TRUE(SameBytes(one, eight));
}

// One-member programs, the way SelfPacedEnsemble::Fit scores each new
// member over the majority set: an index view over columnar rows with
// NaN features must give the member's own PredictProba bits. A member with no flat lowering compiles to nullptr
// (Fit then falls back to PredictProba).
TEST_F(KernelConformanceTest, CompileMemberMatchesMemberPredictProba) {
  const Dataset train = OverlappingBlobs(700, 120, 61);
  std::vector<std::unique_ptr<Classifier>> members;
  members.push_back(std::make_unique<DecisionTree>());
  members.push_back(std::make_unique<Gbdt>());
  RandomForestConfig forest_config;
  forest_config.n_estimators = 6;
  members.push_back(std::make_unique<RandomForest>(forest_config));

  const Dataset batch = RandomBatch(3000, 2, 62, NanPattern::kSparse);
  std::vector<std::size_t> picked;  // strided, descending: a real gather
  for (std::size_t r = batch.num_rows(); r-- > 0;) {
    if (r % 3 != 1) picked.push_back(r);
  }
  const DatasetView view = DatasetView(batch).WithIndices(picked);
  ASSERT_FALSE(view.row_major());

  for (const auto& member : members) {
    member->Fit(train);
    const auto forest = kernels::FlatForest::CompileMember(*member);
    ASSERT_NE(forest, nullptr) << member->Name();
    EXPECT_EQ(forest->num_members(), 1u);
    const std::vector<double> reference = member->PredictProba(view);
    std::vector<double> got(view.num_rows());
    forest->PredictPrefixInto(view, 1, got);
    EXPECT_TRUE(SameBytes(reference, got)) << member->Name();
  }

  LogisticRegression linear;
  linear.Fit(train);
  EXPECT_EQ(kernels::FlatForest::CompileMember(linear), nullptr);
}

}  // namespace
}  // namespace spe
