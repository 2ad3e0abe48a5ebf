// Differential conformance suite for the v2 inference kernels
// (spe/kernels/flat_forest.h). Every ensemble scored here runs through
// four paths — reference loop, flat f64 scalar, flat f64 with the
// vectorized descent, and the uint8 binned lowering — plus the opt-in
// f32 mode, and the paths are compared against each other:
//
//   flat scalar  == reference   byte-for-byte (memcmp)
//   flat SIMD    == reference   byte-for-byte (the vectorized walk
//                               computes the scalar walk's exact leaf
//                               indices; accumulation is shared)
//   flat binned  == reference   byte-for-byte (bin-rank descent is the
//                               same comparison in the feature's order;
//                               leaves accumulate in double)
//   f32 SIMD     == f32 scalar  byte-for-byte
//   f32          ~~ reference   AUC-parity + bounded probability error
//                               (float thresholds may route a value
//                               that falls between t and float(t) the
//                               other way, so no bit claim)
//
// The matrix covers randomized ensembles across tree counts, depths,
// NaN patterns and the block-boundary row counts 0/1/63/64/65/10k. On
// hosts whose build carries a SIMD backend, the scalar fallback is
// exercised explicitly via SetSimdEnabled(false); on scalar builds the
// "SIMD" runs exercise the same dispatch with the fallback walk, so all
// four paths are covered on every build. Registered under both the
// `kernel` and `sanitize` ctest labels: the intrinsic and binning code
// must stay ASan/UBSan/TSan-clean.

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
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
#include "spe/metrics/metrics.h"
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
    kernels::SetScoreMode(kernels::ScoreMode::kF64);
    kernels::SetSimdEnabled(true);
    SetNumThreads(0);
  }
};

enum class NanPattern { kNone, kSparse, kAllNanRows, kNanColumn };

// Randomized scoring batch in `features` dimensions (wider than the
// 2-D training blobs exercise only the first two feature columns, but
// widen the gather strides), with labels for AUC parity and the chosen
// hostile-NaN shape.
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

// One scoring pass per kernel path, all collected with the same model
// and batch.
struct PathScores {
  std::vector<double> reference;
  std::vector<double> scalar;      // f64, vectorized descent off
  std::vector<double> simd;        // f64, vectorized descent on
  std::vector<double> binned;      // uint8 descent (f64 when unavailable)
  std::vector<double> f32_scalar;  // f32, vectorized descent off
  std::vector<double> f32_simd;    // f32, vectorized descent on
};

PathScores ScoreAllPaths(const Classifier& model, const Dataset& batch) {
  PathScores out;
  kernels::SetFlatKernelEnabled(false);
  out.reference = model.PredictProba(batch);
  kernels::SetFlatKernelEnabled(true);

  kernels::SetScoreMode(kernels::ScoreMode::kF64);
  kernels::SetSimdEnabled(false);
  out.scalar = model.PredictProba(batch);
  kernels::SetSimdEnabled(true);
  out.simd = model.PredictProba(batch);

  kernels::SetScoreMode(kernels::ScoreMode::kBinned);
  out.binned = model.PredictProba(batch);

  kernels::SetScoreMode(kernels::ScoreMode::kF32);
  kernels::SetSimdEnabled(false);
  out.f32_scalar = model.PredictProba(batch);
  kernels::SetSimdEnabled(true);
  out.f32_simd = model.PredictProba(batch);

  kernels::SetScoreMode(kernels::ScoreMode::kF64);
  return out;
}

// The conformance contract over one model × batch. The f32 bound is
// loose by design: a row whose feature falls between a double threshold
// and its float image can legitimately take the other branch, but with
// these fixed seeds none does, and the probability error is pure
// accumulation rounding.
void ExpectConformance(const Classifier& model, const Dataset& batch,
                       const char* what) {
  const PathScores p = ScoreAllPaths(model, batch);
  EXPECT_TRUE(SameBytes(p.reference, p.scalar)) << what << ": scalar";
  EXPECT_TRUE(SameBytes(p.reference, p.simd)) << what << ": simd";
  EXPECT_TRUE(SameBytes(p.reference, p.binned)) << what << ": binned";
  EXPECT_TRUE(SameBytes(p.f32_scalar, p.f32_simd)) << what << ": f32 simd";
  ASSERT_EQ(p.f32_scalar.size(), p.reference.size()) << what;
  for (std::size_t i = 0; i < p.reference.size(); ++i) {
    EXPECT_NEAR(p.f32_scalar[i], p.reference[i], 5e-5)
        << what << ": f32 row " << i;
    EXPECT_GE(p.f32_scalar[i], 0.0);
    EXPECT_LE(p.f32_scalar[i], 1.0);
  }
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
    ExpectConformance(model, batch,
                      ("rows=" + std::to_string(rows)).c_str());
  }
}

// Randomized ensembles across tree counts and depths. Depth 10 over
// 2-D data exceeds the binned capacity (more than kBinnedMaxCuts
// distinct thresholds per feature) — those cells exercise the silent
// binned→f64 fallback, shallower cells the real uint8 descent.
TEST_F(KernelConformanceTest, TreeDepthMatrix) {
  std::uint64_t seed = 300;
  for (const int trees : {1, 4, 10}) {
    for (const int depth : {1, 4, 10}) {
      const SelfPacedEnsemble model = RandomForestModel(trees, depth, ++seed);
      const Dataset batch = RandomBatch(400, 2, seed * 7, NanPattern::kSparse);
      ExpectConformance(
          model, batch,
          ("trees=" + std::to_string(trees) + " depth=" + std::to_string(depth))
              .c_str());
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
    ExpectConformance(model, batch, ("nan pattern " + std::to_string(i)).c_str());
    ++i;
  }
}

// GBDT members bin their training features, so their recorded
// thresholds are quantile boundaries — few per feature. This is the
// workload the binned lowering is really for: assert it actually
// engages (no fallback) and conforms.
TEST_F(KernelConformanceTest, GbdtEnsembleConformsAndLowersBinned) {
  const Dataset train = OverlappingBlobs(800, 110, 600);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  GbdtConfig gbdt;
  gbdt.boost_rounds = 10;
  SelfPacedEnsemble model(config, std::make_unique<Gbdt>(gbdt));
  model.Fit(train);

  const kernels::FlatForest* forest = model.members().flat_kernel();
  ASSERT_NE(forest, nullptr);
  EXPECT_TRUE(forest->BinnedAvailable());
  kernels::SetScoreMode(kernels::ScoreMode::kBinned);
  EXPECT_STREQ("flat_binned", kernels::ActiveKernel(model));
  kernels::SetScoreMode(kernels::ScoreMode::kF64);

  ExpectConformance(model, RandomBatch(700, 2, 601, NanPattern::kSparse),
                    "spe over gbdt");
}

// Capacity fallback is observable, not just silent: one unbounded tree
// over a large sample records far more than kBinnedMaxCuts distinct
// midpoint thresholds per feature, so the program cannot lower — binned
// mode reports the f64 path and still scores identically. (An SPE
// forest of depth-10 members does NOT overflow: undersampled members
// are small and their midpoints dedupe, which TreeDepthMatrix covers
// on the lowering side.)
TEST_F(KernelConformanceTest, BinnedCapacityFallback) {
  const Dataset train = OverlappingBlobs(2500, 2500, 700);
  DecisionTreeConfig config;
  config.max_depth = 30;
  auto tree = std::make_unique<DecisionTree>(config);
  tree->Fit(train);
  VotingEnsemble members;
  members.Add(std::move(tree));
  const VotingEnsembleModel model(std::move(members));
  const auto* scorable = dynamic_cast<const kernels::FlatScorable*>(&model);
  ASSERT_NE(scorable, nullptr);
  const kernels::FlatForest* forest = scorable->flat_kernel();
  ASSERT_NE(forest, nullptr);
  ASSERT_FALSE(forest->BinnedAvailable());
  kernels::SetScoreMode(kernels::ScoreMode::kBinned);
  EXPECT_STREQ("flat", kernels::ActiveKernel(model));

  const Dataset batch = RandomBatch(300, 2, 701, NanPattern::kSparse);
  const std::vector<double> binned = model.PredictProba(batch);
  kernels::SetFlatKernelEnabled(false);
  const std::vector<double> reference = model.PredictProba(batch);
  EXPECT_TRUE(SameBytes(reference, binned));
}

// Prefix scoring (the serve layer's degradation knob) conforms in every
// mode at k = 1, mid, all.
TEST_F(KernelConformanceTest, PrefixConformance) {
  const SelfPacedEnsemble model = RandomForestModel(8, 5, 800);
  const Dataset batch = RandomBatch(300, 2, 801, NanPattern::kSparse);
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    kernels::SetFlatKernelEnabled(false);
    const std::vector<double> reference = model.PredictProbaPrefix(batch, k);
    kernels::SetFlatKernelEnabled(true);
    for (const kernels::ScoreMode mode :
         {kernels::ScoreMode::kF64, kernels::ScoreMode::kBinned}) {
      kernels::SetScoreMode(mode);
      EXPECT_TRUE(SameBytes(reference, model.PredictProbaPrefix(batch, k)))
          << "mode=" << kernels::ScoreModeName(mode) << " k=" << k;
    }
    kernels::SetScoreMode(kernels::ScoreMode::kF32);
    const std::vector<double> f32 = model.PredictProbaPrefix(batch, k);
    ASSERT_EQ(f32.size(), reference.size());
    for (std::size_t i = 0; i < f32.size(); ++i) {
      EXPECT_NEAR(f32[i], reference[i], 5e-5) << "f32 prefix k=" << k;
    }
    kernels::SetScoreMode(kernels::ScoreMode::kF64);
  }
}

// Thread-count invariance per mode: blocks write disjoint ranges with
// identical arithmetic, so 1 vs 8 threads must agree to the byte even
// in f32.
TEST_F(KernelConformanceTest, ThreadCountInvariance) {
  const SelfPacedEnsemble model = RandomForestModel(6, 6, 900);
  const Dataset batch = RandomBatch(2000, 2, 901, NanPattern::kSparse);
  for (const kernels::ScoreMode mode :
       {kernels::ScoreMode::kF64, kernels::ScoreMode::kF32,
        kernels::ScoreMode::kBinned}) {
    kernels::SetScoreMode(mode);
    SetNumThreads(1);
    const std::vector<double> one = model.PredictProba(batch);
    SetNumThreads(8);
    const std::vector<double> eight = model.PredictProba(batch);
    EXPECT_TRUE(SameBytes(one, eight))
        << "mode=" << kernels::ScoreModeName(mode);
    SetNumThreads(0);
  }
}

// AUC parity for the f32 mode on a batch large enough for the metric to
// be meaningful. Float narrowing can reorder genuinely near-tied
// probabilities, so AUCPRC on 10k random rows agrees to ~1e-5, not to
// the 1e-6 the golden checkerboard suite pins (where the score
// distribution is far from tied). Threshold metrics (F1/G-mean/MCC)
// only move if a probability crosses 0.5, which none does here.
TEST_F(KernelConformanceTest, F32AucParity) {
  const SelfPacedEnsemble model = RandomForestModel(10, 6, 1000);
  const Dataset batch = RandomBatch(10000, 2, 1001, NanPattern::kNone);

  kernels::SetFlatKernelEnabled(false);
  const ScoreSummary f64 = Evaluate(batch.labels(), model.PredictProba(batch));
  kernels::SetFlatKernelEnabled(true);
  kernels::SetScoreMode(kernels::ScoreMode::kF32);
  const ScoreSummary f32 = Evaluate(batch.labels(), model.PredictProba(batch));

  EXPECT_NEAR(f64.aucprc, f32.aucprc, 1e-5);
  EXPECT_NEAR(f64.f1, f32.f1, 1e-6);
  EXPECT_NEAR(f64.gmean, f32.gmean, 1e-6);
  EXPECT_NEAR(f64.mcc, f32.mcc, 1e-6);
}

// The runtime SIMD switch: on a SIMD build both settings must produce
// identical bytes (the fallback walk is the specification); on a scalar
// build the switch is inert and SimdEnabled() stays false. Either way
// the scalar walk ran under this binary's dispatch.
TEST_F(KernelConformanceTest, ScalarFallbackMatchesSimd) {
  const SelfPacedEnsemble model = RandomForestModel(6, 6, 1100);
  const Dataset batch = RandomBatch(500, 2, 1101, NanPattern::kSparse);

  kernels::SetSimdEnabled(true);
  const bool simd_build = kernels::SimdEnabled();
  const std::vector<double> with_simd = model.PredictProba(batch);
  kernels::SetSimdEnabled(false);
  EXPECT_FALSE(kernels::SimdEnabled());
  const std::vector<double> without = model.PredictProba(batch);
  EXPECT_TRUE(SameBytes(with_simd, without));

  if (!simd_build) {
    EXPECT_STREQ("scalar", kernels::SimdIsa());
  } else {
    EXPECT_STRNE("scalar", kernels::SimdIsa());
  }
}

// One-member programs, the way SelfPacedEnsemble::Fit scores each new
// member over the majority set: an index view over columnar rows with
// NaN features, scored through the f64 representation even while the
// process-wide mode says otherwise, must give the member's own
// PredictProba bits. A member with no flat lowering compiles to nullptr
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
    for (const kernels::ScoreMode mode :
         {kernels::ScoreMode::kF64, kernels::ScoreMode::kF32,
          kernels::ScoreMode::kBinned}) {
      kernels::SetScoreMode(mode);
      std::vector<double> got(view.num_rows());
      forest->PredictPrefixInto(view, 1, got, kernels::ScoreMode::kF64);
      EXPECT_TRUE(SameBytes(reference, got))
          << member->Name() << " under " << kernels::ScoreModeName(mode);
    }
    kernels::SetScoreMode(kernels::ScoreMode::kF64);
  }

  LogisticRegression linear;
  linear.Fit(train);
  EXPECT_EQ(kernels::FlatForest::CompileMember(linear), nullptr);
}

// Mode knob plumbing: name round-trips and rejection of unknown names.
TEST_F(KernelConformanceTest, ScoreModeParsing) {
  kernels::ScoreMode mode = kernels::ScoreMode::kF64;
  EXPECT_TRUE(kernels::ParseScoreMode("f32", &mode));
  EXPECT_EQ(mode, kernels::ScoreMode::kF32);
  EXPECT_TRUE(kernels::ParseScoreMode("binned", &mode));
  EXPECT_EQ(mode, kernels::ScoreMode::kBinned);
  EXPECT_TRUE(kernels::ParseScoreMode("f64", &mode));
  EXPECT_EQ(mode, kernels::ScoreMode::kF64);
  EXPECT_FALSE(kernels::ParseScoreMode("f16", &mode));
  EXPECT_EQ(mode, kernels::ScoreMode::kF64);
  for (const kernels::ScoreMode m :
       {kernels::ScoreMode::kF64, kernels::ScoreMode::kF32,
        kernels::ScoreMode::kBinned}) {
    kernels::ScoreMode parsed = kernels::ScoreMode::kF64;
    EXPECT_TRUE(kernels::ParseScoreMode(kernels::ScoreModeName(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
}

}  // namespace
}  // namespace spe
