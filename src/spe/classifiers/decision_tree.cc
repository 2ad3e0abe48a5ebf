#include "spe/classifiers/decision_tree.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "spe/common/check.h"
#include "spe/common/model_format.h"

namespace spe {
namespace {

// Impurity of a (weight_total, weight_positive) node.
double Impurity(DecisionTreeConfig::Criterion criterion, double total,
                double positive) {
  if (total <= 0.0) return 0.0;
  const double p = positive / total;
  if (criterion == DecisionTreeConfig::Criterion::kGini) {
    return 2.0 * p * (1.0 - p);
  }
  double h = 0.0;
  if (p > 0.0) h -= p * std::log2(p);
  if (p < 1.0) h -= (1.0 - p) * std::log2(1.0 - p);
  return h;
}

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // weighted child impurity
};

}  // namespace

// Split-finding scratch, allocated once per Fit and reused by every
// node (only the first `count` entries are live at a node; the sort
// runs on exactly that prefix, so reuse cannot change which split
// wins). Hoisting this out of Build removes an allocation plus a full
// re-reserve per node, which dominated deep-tree fits.
struct DecisionTree::BuildScratch {
  // (value, weight, label) triples sorted per candidate feature.
  struct Entry {
    double value;
    double weight;
    int label;
  };
  std::vector<Entry> entries;
  std::vector<int> features;  // candidate features for the current node
};

DecisionTree::DecisionTree(const DecisionTreeConfig& config) : config_(config) {}

void DecisionTree::Fit(const DatasetView& train) { FitWeighted(train, {}); }

void DecisionTree::FitWeighted(const DatasetView& train,
                               const std::vector<double>& weights) {
  train.CheckAlive();
  SPE_CHECK_GT(train.num_rows(), 0u);
  std::vector<double> w = weights;
  if (w.empty()) {
    w.assign(train.num_rows(), 1.0);
  } else {
    SPE_CHECK_EQ(w.size(), train.num_rows());
  }

  nodes_.clear();
  importances_.assign(train.num_features(), 0.0);
  std::vector<std::size_t> indices(train.num_rows());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  Rng rng(config_.seed);
  BuildScratch scratch;
  scratch.entries.resize(train.num_rows());
  Build(train, w, indices, 0, indices.size(), /*depth=*/0, scratch, rng);
}

std::int32_t DecisionTree::Build(const DatasetView& train,
                                 const std::vector<double>& weights,
                                 std::vector<std::size_t>& indices,
                                 std::size_t begin, std::size_t end, int depth,
                                 BuildScratch& scratch, Rng& rng) {
  double total = 0.0;
  double positive = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    total += weights[indices[i]];
    positive += weights[indices[i]] * static_cast<double>(train.Label(indices[i]));
  }

  auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.value = total > 0.0 ? positive / total : 0.0;
    nodes_.push_back(leaf);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const std::size_t count = end - begin;
  const double node_impurity = Impurity(config_.criterion, total, positive);
  if (count < config_.min_samples_split || depth >= config_.max_depth ||
      node_impurity == 0.0 || total <= 0.0) {
    return make_leaf();
  }

  // Choose which features to evaluate at this node.
  std::vector<int>& features = scratch.features;
  features.clear();
  const int d = static_cast<int>(train.num_features());
  if (config_.max_features == 0 ||
      config_.max_features >= static_cast<std::size_t>(d)) {
    features.resize(static_cast<std::size_t>(d));
    std::iota(features.begin(), features.end(), 0);
  } else {
    for (std::size_t idx :
         rng.SampleWithoutReplacement(static_cast<std::size_t>(d),
                                      config_.max_features)) {
      features.push_back(static_cast<int>(idx));
    }
  }

  // Only the first `count` scratch entries are live at this node.
  using Entry = BuildScratch::Entry;
  std::vector<Entry>& entries = scratch.entries;

  SplitCandidate best;
  for (int feature : features) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t row = indices[begin + i];
      entries[i] = Entry{train.At(row, static_cast<std::size_t>(feature)),
                         weights[row], train.Label(row)};
    }
    std::sort(entries.begin(),
              entries.begin() + static_cast<std::ptrdiff_t>(count),
              [](const Entry& a, const Entry& b) { return a.value < b.value; });

    double left_total = 0.0;
    double left_positive = 0.0;
    std::size_t left_count = 0;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      left_total += entries[i].weight;
      left_positive += entries[i].weight * static_cast<double>(entries[i].label);
      ++left_count;
      // Can only split between distinct feature values.
      if (entries[i].value == entries[i + 1].value) continue;
      if (left_count < config_.min_samples_leaf ||
          count - left_count < config_.min_samples_leaf) {
        continue;
      }
      const double right_total = total - left_total;
      const double right_positive = positive - left_positive;
      const double score =
          left_total * Impurity(config_.criterion, left_total, left_positive) +
          right_total * Impurity(config_.criterion, right_total, right_positive);
      if (score < best.score) {
        best.score = score;
        best.feature = feature;
        best.threshold = (entries[i].value + entries[i + 1].value) / 2.0;
      }
    }
  }

  // No usable split (all candidate features constant) or no impurity
  // reduction: stop here.
  if (best.feature < 0 || best.score >= total * node_impurity - 1e-12) {
    return make_leaf();
  }

  // Partition indices in place around the chosen split.
  const auto split_feature = static_cast<std::size_t>(best.feature);
  auto middle = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t row) { return train.At(row, split_feature) <= best.threshold; });
  const auto mid =
      static_cast<std::size_t>(middle - indices.begin());
  // The threshold is a midpoint between two distinct sorted values, so
  // both sides are guaranteed non-empty; defensive check regardless.
  if (mid == begin || mid == end) return make_leaf();

  importances_[split_feature] += total * node_impurity - best.score;

  // Reserve our slot before recursing (children get later indices).
  nodes_.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left =
      Build(train, weights, indices, begin, mid, depth + 1, scratch, rng);
  const std::int32_t right =
      Build(train, weights, indices, mid, end, depth + 1, scratch, rng);
  nodes_[self].feature = best.feature;
  nodes_[self].threshold = best.threshold;
  nodes_[self].left = left;
  nodes_[self].right = right;
  nodes_[self].value = positive / total;
  return self;
}

double DecisionTree::PredictRow(std::span<const double> x) const {
  SPE_CHECK(!nodes_.empty()) << "predict before fit";
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    node = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

double DecisionTree::PredictViewRow(const DatasetView& data,
                                    std::size_t row) const {
  SPE_CHECK(!nodes_.empty()) << "predict before fit";
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    node = data.At(row, static_cast<std::size_t>(n.feature)) <= n.threshold
               ? n.left
               : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

int DecisionTree::Depth() const {
  SPE_CHECK(!nodes_.empty());
  // Iterative depth computation over the node array.
  std::vector<std::pair<std::int32_t, int>> stack = {{0, 0}};
  int depth = 0;
  while (!stack.empty()) {
    auto [node, d] = stack.back();
    stack.pop_back();
    depth = std::max(depth, d);
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    if (n.feature >= 0) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return depth;
}

std::unique_ptr<Classifier> DecisionTree::Clone() const {
  return std::make_unique<DecisionTree>(config_);
}

bool DecisionTree::LowerToFlat(kernels::FlatProgram& program,
                               kernels::MemberOp& op) const {
  if (nodes_.empty()) return false;
  kernels::FlatTreeBuilder builder(program);
  for (const Node& n : nodes_) {
    builder.AddNode(n.feature, n.threshold, n.left, n.right, n.value);
  }
  const std::int32_t tree = builder.Finish();
  op.kind = kernels::MemberOp::Kind::kTree;
  op.tree_begin = tree;
  op.tree_end = tree + 1;
  return true;
}

std::vector<double> DecisionTree::FeatureImportances() const {
  SPE_CHECK(!nodes_.empty()) << "importances before fit";
  std::vector<double> normalized = importances_;
  double sum = 0.0;
  for (double v : normalized) sum += v;
  if (sum > 0.0) {
    for (double& v : normalized) v /= sum;
  }
  return normalized;
}

void DecisionTree::SaveModel(std::ostream& os) const {
  SPE_CHECK(!nodes_.empty()) << "cannot save an unfitted tree";
  // std::to_chars(general, 17) is specified to format exactly as printf
  // %.17g, which is byte-identical to the old `os << double` at
  // max_digits10 precision — but ~4x faster, and batching into one
  // string skips the per-field stream machinery. This path matters:
  // trees are serialized once per member on every checkpointed training
  // run, where formatting was the dominant cost (docs/robustness.md).
  std::string out;
  out.reserve(64 + nodes_.size() * 64);
  char line[160];
  std::snprintf(line, sizeof(line), "nodes %zu\n", nodes_.size());
  out += line;
  for (const Node& n : nodes_) {
    char* p = line;
    const auto put_int = [&p](std::int64_t v) {
      p = std::to_chars(p, p + 24, v).ptr;
      *p++ = ' ';
    };
    const auto put_double = [&p](double v) {
      p = std::to_chars(p, p + 32, v, std::chars_format::general, 17).ptr;
      *p++ = ' ';
    };
    put_int(n.feature);
    put_double(n.threshold);
    put_int(n.left);
    put_int(n.right);
    put_double(n.value);
    p[-1] = '\n';  // the line's last separator becomes its newline
    out.append(line, static_cast<std::size_t>(p - line));
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

DecisionTree DecisionTree::LoadModel(std::istream& is,
                                     std::size_t num_features) {
  DecisionTree tree;
  tree.nodes_ = model_format::ReadTreeNodes<Node>(is, num_features);
  return tree;
}

}  // namespace spe
