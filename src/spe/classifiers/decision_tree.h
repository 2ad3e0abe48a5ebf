#ifndef SPE_CLASSIFIERS_DECISION_TREE_H_
#define SPE_CLASSIFIERS_DECISION_TREE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "spe/classifiers/classifier.h"
#include "spe/common/rng.h"
#include "spe/kernels/program.h"

namespace spe {

/// Configuration for a CART-style binary decision tree.
struct DecisionTreeConfig {
  /// Split quality criterion. kEntropy (information gain) is the
  /// C4.5-style mode the paper's Table VI base model corresponds to;
  /// kGini matches scikit-learn's default DT.
  enum class Criterion { kGini, kEntropy };

  Criterion criterion = Criterion::kGini;
  int max_depth = 10;               // paper's Table II uses max_depth=10
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of features examined per node; 0 means all. Random forest
  /// sets this to sqrt(d).
  std::size_t max_features = 0;
  std::uint64_t seed = 0;  // used only when max_features subsamples
};

/// Axis-aligned binary decision tree with weighted-impurity split
/// finding. Leaves store the weighted positive-class fraction, so
/// PredictRow returns a genuine probability estimate.
///
/// Categorical features are stored as integer codes and split with the
/// same `<= threshold` rule as numerical ones (ordinal treatment) — the
/// standard single-machine simplification, also what LightGBM does when
/// categorical support is off.
class DecisionTree final : public Classifier, public kernels::FlatCompilable {
 public:
  explicit DecisionTree(const DecisionTreeConfig& config = {});

  void Fit(const DatasetView& train) override;
  void FitWeighted(const DatasetView& train,
                   const std::vector<double>& weights) override;
  bool SupportsSampleWeights() const override { return true; }
  double PredictRow(std::span<const double> x) const override;
  /// Columnar-aware descent: reads only the features the walk touches
  /// (no row gather). Same comparisons as PredictRow, so bit-identical.
  double PredictViewRow(const DatasetView& data, std::size_t row) const override;
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override { return "DT"; }

  /// Number of nodes in the fitted tree (diagnostics / tests).
  std::size_t NumNodes() const { return nodes_.size(); }
  /// Depth of the fitted tree (root = depth 0).
  int Depth() const;

  /// Text serialization of the fitted tree (see spe/io/model_io.h for
  /// the polymorphic entry points). Save requires a fitted model. Load
  /// throws ModelFormatError on malformed input, including split
  /// features at or past `num_features` (0 = width unknown).
  void SaveModel(std::ostream& os) const;
  static DecisionTree LoadModel(std::istream& is, std::size_t num_features);

  /// Per-feature importance: total weighted impurity decrease collected
  /// by this feature's splits, normalized to sum to 1 (all-zero when the
  /// tree is a single leaf). Requires a fitted model.
  std::vector<double> FeatureImportances() const;

  /// Lowers the fitted tree into a flat-inference program (false when
  /// unfitted). The node layout maps 1:1, so the kernel's walk is the
  /// same comparison sequence as PredictRow.
  bool LowerToFlat(kernels::FlatProgram& program,
                   kernels::MemberOp& op) const override;

 private:
  struct Node {
    // Internal node when feature >= 0, leaf otherwise.
    int feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;  // positive-class probability at a leaf
  };

  // Per-Fit reusable split-finding buffers (defined in the .cc); Build
  // used to allocate these per node, which dominated deep-tree fits.
  struct BuildScratch;

  std::int32_t Build(const DatasetView& train,
                     const std::vector<double>& weights,
                     std::vector<std::size_t>& indices, std::size_t begin,
                     std::size_t end, int depth, BuildScratch& scratch,
                     Rng& rng);

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
  // Unnormalized impurity decrease per feature, filled during Fit
  // (empty for models restored via LoadModel).
  std::vector<double> importances_;
};

}  // namespace spe

#endif  // SPE_CLASSIFIERS_DECISION_TREE_H_
