// End-to-end integration tests: the full production pipeline — generate
// or load data, split, train an imbalance-aware ensemble, evaluate,
// persist, reload, predict — plus cross-module consistency checks that
// no unit test covers.

#include <cstdio>
#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/data/csv.h"
#include "spe/data/simulated.h"
#include "spe/data/split.h"
#include "spe/data/synthetic.h"
#include "spe/eval/cross_validation.h"
#include "spe/io/model_io.h"
#include "spe/metrics/metrics.h"
#include "spe/sampling/sampler_factory.h"
#include "tests/test_util.h"

namespace spe {
namespace {

TEST(IntegrationTest, FullPipelineCsvToServedModel) {
  // 1. Generate an imbalanced dataset and persist it as CSV (simulating
  //    ingestion from an external source).
  Rng rng(1);
  CheckerboardConfig data_config;
  data_config.num_minority = 300;
  data_config.num_majority = 3000;
  const Dataset generated = MakeCheckerboard(data_config, rng);
  const std::string csv_path =
      (std::filesystem::temp_directory_path() / "spe_integration.csv").string();
  SaveCsv(generated, csv_path);

  // 2. Load, split, train SPE over GBDT.
  const Dataset data = LoadCsv(csv_path, /*label_column=*/2);
  ASSERT_EQ(data.num_rows(), generated.num_rows());
  const TrainTest split = StratifiedSplit2(data, 0.7, rng);
  GbdtConfig gbdt_config;
  gbdt_config.boost_rounds = 8;
  SelfPacedEnsembleConfig config;
  config.n_estimators = 8;
  config.seed = 2;
  SelfPacedEnsemble model(config, std::make_unique<Gbdt>(gbdt_config));
  model.Fit(split.train);

  // 3. Evaluate: must clearly beat the prevalence baseline.
  const std::vector<double> probs = model.PredictProba(split.test);
  const double auc = AucPrc(split.test.labels(), probs);
  EXPECT_GT(auc, 0.4);

  // 4. Deployment: tune the threshold, persist the model, reload, and
  //    verify the served artifact reproduces the training-side outputs.
  const ThresholdSearchResult threshold =
      BestF1Threshold(split.test.labels(), probs);
  EXPECT_GT(threshold.value,
            F1Score(ConfusionAt(split.test.labels(), probs, 0.5)) - 1e-12);

  const std::string model_path =
      (std::filesystem::temp_directory_path() / "spe_integration.model").string();
  SaveModelBundleToFile(model, split.test.num_features(), model_path);
  const ModelBundle served = LoadModelBundleFromFile(model_path);
  EXPECT_EQ(served.num_features, split.test.num_features());
  const std::vector<double> served_probs =
      served.model->PredictProba(split.test);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_DOUBLE_EQ(probs[i], served_probs[i]);
  }

  std::remove(csv_path.c_str());
  std::remove(model_path.c_str());
}

TEST(IntegrationTest, ResampleThenTrainMatchesDirectTrainOnBalancedData) {
  // RandomUnder + classifier must behave exactly like training on the
  // balanced subset it produces — guards against hidden state leaking
  // between the sampling and training layers.
  const Dataset data = testing::OverlappingBlobs(500, 50, 3);
  Rng rng_a(4);
  Rng rng_b(4);
  const Dataset balanced_a = MakeSampler("RandUnder")->Resample(data, rng_a);
  const Dataset balanced_b = MakeSampler("RandUnder")->Resample(data, rng_b);
  Gbdt model_a;
  Gbdt model_b;
  model_a.Fit(balanced_a);
  model_b.Fit(balanced_b);
  const Dataset probe = testing::OverlappingBlobs(50, 10, 5);
  EXPECT_EQ(model_a.PredictProba(probe), model_b.PredictProba(probe));
}

TEST(IntegrationTest, CrossValidationOnSimulatedFraud) {
  Rng rng(6);
  const Dataset data = MakeCreditFraudSim(rng, /*scale=*/0.15);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  const SelfPacedEnsemble prototype(config);
  Rng cv_rng(7);
  const CrossValidationResult result = CrossValidate(prototype, data, 3, cv_rng);
  EXPECT_EQ(result.folds.size(), 3u);
  const double prevalence = 1.0 / (1.0 + data.ImbalanceRatio());
  EXPECT_GT(result.aggregate().aucprc.mean, 2.0 * prevalence);
}

TEST(IntegrationTest, MissingValueInjectionDegradesButDoesNotBreakSpe) {
  // Table VII's qualitative claim as an invariant: SPE must survive 75%
  // missing values and still emit valid probabilities.
  Rng rng(8);
  Dataset data = MakeCreditFraudSim(rng, 0.15);
  InjectMissingValues(data, 0.75, rng);
  const TrainTest split = StratifiedSplit2(data, 0.7, rng);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  SelfPacedEnsemble model(config);
  model.Fit(split.train);
  for (double p : model.PredictProba(split.test)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(IntegrationTest, CategoricalDataEndToEnd) {
  // The full applicability story: payment-style categorical data flows
  // through split -> SPE(GBDT) -> metrics without any distance metric.
  Rng rng(9);
  const Dataset data = MakePaymentSim(rng, 0.1);
  ASSERT_TRUE(data.HasCategoricalFeatures());
  const TrainTest split = StratifiedSplit2(data, 0.7, rng);
  GbdtConfig gbdt_config;
  gbdt_config.boost_rounds = 5;
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  SelfPacedEnsemble model(config, std::make_unique<Gbdt>(gbdt_config));
  model.Fit(split.train);
  const double auc =
      AucPrc(split.test.labels(), model.PredictProba(split.test));
  const double prevalence = 1.0 / (1.0 + split.test.ImbalanceRatio());
  EXPECT_GT(auc, 2.0 * prevalence);
}

}  // namespace
}  // namespace spe
