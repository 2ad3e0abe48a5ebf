#include "spe/classifiers/gbdt/tree.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <queue>
#include <string>

#include "spe/classifiers/gbdt/histogram.h"
#include "spe/common/check.h"
#include "spe/common/model_format.h"
#include "spe/kernels/program.h"

namespace spe {
namespace gbdt {
namespace {

struct SplitInfo {
  double gain = 0.0;
  int feature = -1;
  int bin = -1;  // left child takes bins <= bin
  double left_grad = 0.0;
  double left_hess = 0.0;
  std::size_t left_count = 0;
};

// A grown-but-not-yet-split leaf: a contiguous slice of the row buffer
// plus its aggregate statistics and the best split found for it.
struct LeafCandidate {
  std::int32_t node = -1;
  std::size_t begin = 0;
  std::size_t end = 0;
  int depth = 0;
  double grad = 0.0;
  double hess = 0.0;
  SplitInfo split;
};

struct GainLess {
  bool operator()(const LeafCandidate& a, const LeafCandidate& b) const {
    return a.split.gain < b.split.gain;
  }
};

double LeafObjective(double grad, double hess, double lambda) {
  return grad * grad / (hess + lambda);
}

// Best split over all features for the rows in [c.begin, c.end).
SplitInfo FindBestSplit(const BinnedMatrix& binned,
                        const std::vector<int>& bins_per_feature,
                        std::span<const std::size_t> rows,
                        std::span<const double> grads,
                        std::span<const double> hess, double total_grad,
                        double total_hess, const TreeParams& params) {
  Histograms histograms(bins_per_feature);
  histograms.Build(binned, rows, grads, hess);

  SplitInfo best;
  const double parent_objective =
      LeafObjective(total_grad, total_hess, params.lambda);
  for (std::size_t f = 0; f < bins_per_feature.size(); ++f) {
    const int nb = bins_per_feature[f];
    double left_grad = 0.0;
    double left_hess = 0.0;
    std::size_t left_count = 0;
    for (int b = 0; b + 1 < nb; ++b) {
      const BinStats& cell = histograms.At(f, b);
      left_grad += cell.grad;
      left_hess += cell.hess;
      left_count += cell.count;
      const std::size_t right_count = rows.size() - left_count;
      if (left_count < params.min_data_in_leaf ||
          right_count < params.min_data_in_leaf) {
        continue;
      }
      const double right_grad = total_grad - left_grad;
      const double right_hess = total_hess - left_hess;
      if (left_hess < params.min_child_hess || right_hess < params.min_child_hess) {
        continue;
      }
      const double gain = LeafObjective(left_grad, left_hess, params.lambda) +
                          LeafObjective(right_grad, right_hess, params.lambda) -
                          parent_objective;
      if (gain > best.gain) {
        best = SplitInfo{gain, static_cast<int>(f), b, left_grad, left_hess,
                         left_count};
      }
    }
  }
  return best;
}

}  // namespace

void RegressionTree::Fit(const BinnedMatrix& binned, const FeatureBinner& binner,
                         std::span<const double> grads,
                         std::span<const double> hess,
                         std::vector<std::size_t>& rows, const TreeParams& params,
                         std::vector<double>& out_train_scores) {
  SPE_CHECK(!rows.empty());
  nodes_.clear();
  split_gains_.assign(binned.num_features, 0.0);
  nodes_.emplace_back();  // root, starts as a leaf

  std::vector<int> bins_per_feature(binned.num_features);
  for (std::size_t f = 0; f < binned.num_features; ++f) {
    bins_per_feature[f] = binner.NumBins(f);
  }

  double root_grad = 0.0;
  double root_hess = 0.0;
  for (std::size_t row : rows) {
    root_grad += grads[row];
    root_hess += hess[row];
  }

  auto evaluate = [&](LeafCandidate& c) {
    if (c.depth >= params.max_depth ||
        c.end - c.begin < 2 * params.min_data_in_leaf) {
      c.split = SplitInfo{};  // cannot split further
      return;
    }
    c.split = FindBestSplit(
        binned, bins_per_feature,
        std::span<const std::size_t>(rows.data() + c.begin, c.end - c.begin),
        grads, hess, c.grad, c.hess, params);
  };

  LeafCandidate root{0, 0, rows.size(), 0, root_grad, root_hess, {}};
  evaluate(root);

  std::priority_queue<LeafCandidate, std::vector<LeafCandidate>, GainLess> queue;
  queue.push(root);
  std::vector<LeafCandidate> final_leaves;
  int num_leaves = 1;

  while (!queue.empty() && num_leaves < params.max_leaves) {
    LeafCandidate c = queue.top();
    queue.pop();
    if (c.split.feature < 0 || c.split.gain <= params.min_gain) {
      final_leaves.push_back(c);
      continue;
    }

    // Materialize the split: partition this leaf's slice of the row
    // buffer by bin, then push both children.
    const auto feature = static_cast<std::size_t>(c.split.feature);
    const auto split_bin = static_cast<std::uint8_t>(c.split.bin);
    auto middle = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(c.begin),
        rows.begin() + static_cast<std::ptrdiff_t>(c.end),
        [&](std::size_t row) { return binned.At(row, feature) <= split_bin; });
    const auto mid = static_cast<std::size_t>(middle - rows.begin());
    SPE_CHECK_EQ(mid - c.begin, c.split.left_count);
    split_gains_[feature] += c.split.gain;

    // emplace_back may reallocate nodes_, so write through the index and
    // only after both children exist.
    nodes_.emplace_back();
    nodes_.emplace_back();
    const auto parent_idx = static_cast<std::size_t>(c.node);
    nodes_[parent_idx].feature = c.split.feature;
    nodes_[parent_idx].threshold = binner.UpperEdge(feature, c.split.bin);
    nodes_[parent_idx].left = static_cast<std::int32_t>(nodes_.size() - 2);
    nodes_[parent_idx].right = static_cast<std::int32_t>(nodes_.size() - 1);

    LeafCandidate left{nodes_[parent_idx].left,
                       c.begin,
                       mid,
                       c.depth + 1,
                       c.split.left_grad,
                       c.split.left_hess,
                       {}};
    LeafCandidate right{nodes_[parent_idx].right,
                        mid,
                        c.end,
                        c.depth + 1,
                        c.grad - c.split.left_grad,
                        c.hess - c.split.left_hess,
                        {}};
    evaluate(left);
    evaluate(right);
    queue.push(left);
    queue.push(right);
    ++num_leaves;
  }
  while (!queue.empty()) {
    final_leaves.push_back(queue.top());
    queue.pop();
  }

  // Newton leaf values; also emit per-row outputs for the booster.
  for (const LeafCandidate& leaf : final_leaves) {
    const double value = -leaf.grad / (leaf.hess + params.lambda);
    nodes_[static_cast<std::size_t>(leaf.node)].value = value;
    for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
      out_train_scores[rows[i]] = value;
    }
  }
}

double RegressionTree::Predict(std::span<const double> x) const {
  SPE_CHECK(!nodes_.empty());
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    node = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

std::int32_t RegressionTree::LowerToFlat(kernels::FlatProgram& program) const {
  SPE_CHECK(!nodes_.empty()) << "cannot lower an unfitted tree";
  kernels::FlatTreeBuilder builder(program);
  for (const Node& n : nodes_) {
    builder.AddNode(n.feature, n.threshold, n.left, n.right, n.value);
  }
  return builder.Finish();
}

std::size_t RegressionTree::NumLeaves() const {
  std::size_t leaves = 0;
  for (const Node& n : nodes_) leaves += static_cast<std::size_t>(n.feature < 0);
  return leaves;
}

void RegressionTree::Save(std::ostream& os) const {
  SPE_CHECK(!nodes_.empty()) << "cannot save an unfitted tree";
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "nodes " << nodes_.size() << "\n";
  for (const Node& n : nodes_) {
    os << n.feature << " " << n.threshold << " " << n.left << " " << n.right
       << " " << n.value << "\n";
  }
}

RegressionTree RegressionTree::Load(std::istream& is,
                                    std::size_t num_features) {
  RegressionTree tree;
  tree.nodes_ = model_format::ReadTreeNodes<Node>(is, num_features);
  return tree;
}

}  // namespace gbdt
}  // namespace spe
