#ifndef SPE_CLASSIFIERS_GBDT_TREE_H_
#define SPE_CLASSIFIERS_GBDT_TREE_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "spe/classifiers/gbdt/binning.h"

namespace spe {

namespace kernels {
struct FlatProgram;
}

namespace gbdt {

/// Regularization / growth limits for one boosted tree.
struct TreeParams {
  int max_leaves = 31;
  int max_depth = 6;
  std::size_t min_data_in_leaf = 5;
  double min_child_hess = 1e-3;
  double lambda = 1.0;     // L2 on leaf values
  double min_gain = 1e-6;  // required split gain
};

/// One regression tree grown leaf-wise (best-gain-first, LightGBM style)
/// on second-order gradient statistics. Fitting works on the binned
/// matrix; scoring works on raw feature rows via the thresholds recorded
/// from the binner, so a fitted tree is self-contained.
class RegressionTree {
 public:
  /// Grows the tree over `rows` and writes each training row's leaf
  /// output into `out_train_scores[row]` (additive update convenience
  /// for the booster). grads/hess are indexed by absolute row id.
  void Fit(const BinnedMatrix& binned, const FeatureBinner& binner,
           std::span<const double> grads, std::span<const double> hess,
           std::vector<std::size_t>& rows, const TreeParams& params,
           std::vector<double>& out_train_scores);

  /// Leaf output for a raw (unbinned) feature row.
  double Predict(std::span<const double> x) const;

  std::size_t NumLeaves() const;
  std::size_t NumNodes() const { return nodes_.size(); }

  /// Text serialization (used by Gbdt::SaveModel). Load throws
  /// ModelFormatError on malformed input (see DecisionTree::LoadModel).
  void Save(std::ostream& os) const;
  static RegressionTree Load(std::istream& is, std::size_t num_features);

  /// Total split gain collected per feature during Fit (empty for
  /// loaded trees). Feeds Gbdt::FeatureImportances.
  const std::vector<double>& split_gains() const { return split_gains_; }

  /// Appends the fitted tree to a flat-inference program (see
  /// spe/kernels/program.h) and returns its tree index. The node layout
  /// maps 1:1, so the kernel walk is the same comparison sequence as
  /// Predict. Requires a fitted tree.
  std::int32_t LowerToFlat(kernels::FlatProgram& program) const;

 private:
  struct Node {
    int feature = -1;          // -1 => leaf
    double threshold = 0.0;    // raw-value split: x <= threshold -> left
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;        // leaf output
  };

  std::vector<Node> nodes_;
  std::vector<double> split_gains_;
};

}  // namespace gbdt
}  // namespace spe

#endif  // SPE_CLASSIFIERS_GBDT_TREE_H_
