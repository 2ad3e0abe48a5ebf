#ifndef SPE_COMMON_MODEL_FORMAT_H_
#define SPE_COMMON_MODEL_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <stdexcept>
#include <string>
#include <vector>

namespace spe {

/// Malformed persisted-model content: a wrong keyword, an unparsable or
/// out-of-range field, a count the remaining bytes cannot hold, or tree
/// links that do not form a tree. Every per-class loader
/// (DecisionTree::LoadModel, Gbdt::LoadModel, LogisticRegression::
/// LoadModel, ...) reports malformed input by throwing it, and the
/// artifact decoder (spe/io/model_io.h) catches it at its boundary, so a
/// bad artifact is a refused load rather than an abort — the model-file
/// counterpart of DataFormatError.
class ModelFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace model_format {

/// Throws ModelFormatError("malformed <what>") unless `ok`.
inline void Require(bool ok, const char* what) {
  if (!ok) throw ModelFormatError(std::string("malformed ") + what);
}

/// Bytes left unread in `is`; 0 when the stream cannot tell (failed or
/// unseekable), which makes every count check refuse.
inline std::size_t RemainingBytes(std::istream& is) {
  const std::streampos here = is.tellg();
  if (here < 0) return 0;
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(here);
  return end > here ? static_cast<std::size_t>(end - here) : 0;
}

/// Reads "KEYWORD COUNT" and returns COUNT. Refuses a wrong keyword, a
/// zero count, and a count the remaining bytes could not hold at
/// `min_item_bytes` per item — checked before the caller allocates, so a
/// corrupt count can never turn into a huge resize.
inline std::size_t ReadCount(std::istream& is, const char* keyword,
                             std::size_t min_item_bytes) {
  std::string token;
  std::size_t count = 0;
  is >> token >> count;
  Require(!is.fail() && token == keyword, keyword);
  if (count == 0 || count > RemainingBytes(is) / min_item_bytes) {
    throw ModelFormatError(std::string(keyword) + " count " +
                           std::to_string(count) +
                           " is zero or exceeds what the remaining bytes hold");
  }
  return count;
}

/// Reads the "nodes N" block shared by DecisionTree and
/// gbdt::RegressionTree (one "feature threshold left right value" line
/// per node) and checks that it is a tree every descent can walk: a
/// leaf has feature -1 and no children; a split's feature is below
/// `num_features` (0 = width unknown, not checked) and its two children
/// lie after it and have no other parent. So every walk ends on a leaf
/// within N steps and reads only features inside the row.
template <typename Node>
std::vector<Node> ReadTreeNodes(std::istream& is, std::size_t num_features) {
  // The shortest node line is five one-character fields, each followed
  // by a separator.
  const std::size_t count = ReadCount(is, "nodes", 10);
  std::vector<Node> nodes(count);
  for (Node& n : nodes) {
    is >> n.feature >> n.threshold >> n.left >> n.right >> n.value;
  }
  Require(!is.fail(), "tree nodes");
  const auto error = [](std::size_t i, const std::string& reason) {
    return ModelFormatError("tree node " + std::to_string(i) + ": " + reason);
  };
  std::vector<bool> has_parent(count, false);
  for (std::size_t i = 0; i < count; ++i) {
    const Node& n = nodes[i];
    if (n.feature < 0) {
      if (n.feature != -1 || n.left != -1 || n.right != -1) {
        throw error(i, "malformed leaf");
      }
      continue;
    }
    if (num_features > 0 &&
        static_cast<std::size_t>(n.feature) >= num_features) {
      throw error(i, "split feature " + std::to_string(n.feature) +
                         " outside the " + std::to_string(num_features) +
                         "-feature schema");
    }
    for (const std::int32_t child : {n.left, n.right}) {
      if (child <= static_cast<std::int64_t>(i) ||
          static_cast<std::size_t>(child) >= count ||
          has_parent[static_cast<std::size_t>(child)]) {
        throw error(i, "bad child link " + std::to_string(child));
      }
      has_parent[static_cast<std::size_t>(child)] = true;
    }
  }
  return nodes;
}

}  // namespace model_format
}  // namespace spe

#endif  // SPE_COMMON_MODEL_FORMAT_H_
