#ifndef SPE_CLASSIFIERS_LOGISTIC_REGRESSION_H_
#define SPE_CLASSIFIERS_LOGISTIC_REGRESSION_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "spe/classifiers/classifier.h"
#include "spe/data/dataset.h"

namespace spe {

struct LogisticRegressionConfig {
  double learning_rate = 0.1;
  double l2 = 1e-4;
  std::size_t epochs = 60;
  std::size_t batch_size = 64;
  std::uint64_t seed = 0;
};

/// L2-regularized logistic regression trained with mini-batch SGD on
/// internally standardized features. Supports per-example weights (the
/// weight multiplies the example's gradient contribution), so it can act
/// as a boosting base learner.
class LogisticRegression final : public Classifier {
 public:
  explicit LogisticRegression(const LogisticRegressionConfig& config = {});

  void Fit(const DatasetView& train) override;
  void FitWeighted(const DatasetView& train,
                   const std::vector<double>& weights) override;
  bool SupportsSampleWeights() const override { return true; }
  double PredictRow(std::span<const double> x) const override;
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override { return "LR"; }

  const std::vector<double>& weights() const { return w_; }
  double bias() const { return bias_; }

  /// Text serialization of the fitted model (weights + scaler).
  void SaveModel(std::ostream& os) const;
  static LogisticRegression LoadModel(std::istream& is,
                                      std::size_t num_features);

 private:
  LogisticRegressionConfig config_;
  FeatureScaler scaler_;
  std::vector<double> w_;
  double bias_ = 0.0;
};

}  // namespace spe

#endif  // SPE_CLASSIFIERS_LOGISTIC_REGRESSION_H_
