// Production pipeline: everything a deployment needs from this library
// in one flow —
//   ingest CSV -> stratified split -> cross-validate the candidate ->
//   train on the full training split -> tune the decision threshold on
//   validation data -> persist the model -> reload and serve.
//
//   $ ./build/examples/model_pipeline [input.csv]
//
// Without an argument the example writes (and then ingests) a CSV of
// simulated credit-fraud data, so it is runnable out of the box.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/data/csv.h"
#include "spe/data/simulated.h"
#include "spe/data/split.h"
#include "spe/eval/cross_validation.h"
#include "spe/io/model_io.h"
#include "spe/metrics/metrics.h"

int main(int argc, char** argv) {
  // ---- 1. Ingest ---------------------------------------------------
  std::string csv_path;
  if (argc > 1) {
    csv_path = argv[1];
  } else {
    csv_path = (std::filesystem::temp_directory_path() / "spe_pipeline_demo.csv")
                   .string();
    spe::Rng rng(1);
    spe::SaveCsv(spe::MakeCreditFraudSim(rng, /*scale=*/0.4), csv_path);
    std::printf("wrote demo data to %s\n", csv_path.c_str());
  }
  const spe::Dataset data = spe::LoadCsv(csv_path, /*label_column=*/30);
  std::printf("loaded: %s\n\n", data.Summary().c_str());

  spe::Rng rng(2);
  const spe::TrainValTest parts = spe::StratifiedSplit(data, 0.6, 0.2, 0.2, rng);

  // ---- 2. Model selection via stratified cross-validation ----------
  spe::GbdtConfig gbdt_config;
  gbdt_config.boost_rounds = 10;
  spe::SelfPacedEnsembleConfig config;
  config.n_estimators = 10;
  config.seed = 3;
  const spe::SelfPacedEnsemble candidate(
      config, std::make_unique<spe::Gbdt>(gbdt_config));

  spe::Rng cv_rng(4);
  const spe::CrossValidationResult cv =
      spe::CrossValidate(candidate, parts.train, /*k=*/3, cv_rng);
  const spe::AggregateScores cv_scores = cv.aggregate();
  std::printf("3-fold CV on the training split: AUCPRC %.3f±%.3f, "
              "F1@0.5 %.3f±%.3f\n",
              cv_scores.aucprc.mean, cv_scores.aucprc.std, cv_scores.f1.mean,
              cv_scores.f1.std);

  // ---- 3. Fit on the full training split ---------------------------
  spe::SelfPacedEnsemble model(config, std::make_unique<spe::Gbdt>(gbdt_config));
  model.Fit(parts.train);

  // ---- 4. Threshold tuning on the validation split -----------------
  const std::vector<double> validation_probs =
      model.PredictProba(parts.validation);
  const spe::ThresholdSearchResult tuned =
      spe::BestF1Threshold(parts.validation.labels(), validation_probs);
  std::printf("tuned threshold %.3f (validation F1 %.3f)\n", tuned.threshold,
              tuned.value);

  // ---- 5. Persist & serve ------------------------------------------
  const std::string model_path =
      (std::filesystem::temp_directory_path() / "spe_pipeline_demo.model")
          .string();
  spe::SaveModelBundleToFile(model, parts.train.num_features(), model_path);
  const spe::ModelBundle served = spe::LoadModelBundleFromFile(model_path);
  std::printf("model persisted to %s and reloaded as %s (%zu features)\n",
              model_path.c_str(), served.model->Name().c_str(),
              served.num_features);

  const std::vector<double> test_probs =
      served.model->PredictProba(parts.test);
  const spe::ConfusionMatrix at_tuned =
      spe::ConfusionAt(parts.test.labels(), test_probs, tuned.threshold);
  std::printf("\nheld-out test: AUCPRC %.3f | @tuned-threshold  "
              "precision %.3f recall %.3f F1 %.3f MCC %.3f\n",
              spe::AucPrc(parts.test.labels(), test_probs),
              spe::Precision(at_tuned), spe::Recall(at_tuned),
              spe::F1Score(at_tuned), spe::Mcc(at_tuned));
  return 0;
}
