#ifndef SPE_DATA_MATRIX_H_
#define SPE_DATA_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "spe/common/check.h"

namespace spe {

/// How a feature column should be interpreted by distance computations
/// and split finding. Categorical features are stored as small integer
/// codes; the library never assumes an ordering carries meaning for them
/// (distance-based re-samplers refuse categorical data, mirroring the
/// paper's point that k-NN methods are inapplicable there).
enum class FeatureKind { kNumerical, kCategorical };

/// Copy-traffic accounting for the data layer (docs/performance.md,
/// "Data layout"). Two deliberately separate meters:
///
///  - materialize: dataset-scale copies — rows landing in owned storage
///    (AddRow/Append, Subset/Materialize, whole-matrix copies, scaled
///    materializations). This is the number the columnar refactor
///    drives down and bench/data_pipeline guards.
///  - scratch: transient gathers into reused fixed-size buffers
///    (CopyRowTo, kernel block staging). Bounded by O(block), reused
///    across calls, and therefore not "copy blow-up" — but still worth
///    seeing, so it is metered apart instead of hidden.
///
/// Counters are process-global relaxed atomics: cheap enough to stay on
/// in release builds, precise enough for before/after bench deltas.
struct DataCopyStats {
  std::uint64_t materialize_bytes = 0;
  std::uint64_t materialize_ops = 0;
  std::uint64_t scratch_bytes = 0;
};
DataCopyStats GetDataCopyStats();
void AddMaterializeBytes(std::size_t bytes);
void AddScratchBytes(std::size_t bytes);

namespace internal {
/// Owner of an mmap'ed sidecar region; columns of a mapped DataMatrix
/// are spans into this block, which stays alive (shared_ptr) as long as
/// any matrix references it.
class MappedBlock {
 public:
  MappedBlock(void* addr, std::size_t length) : addr_(addr), length_(length) {}
  MappedBlock(const MappedBlock&) = delete;
  MappedBlock& operator=(const MappedBlock&) = delete;
  ~MappedBlock();
  const void* data() const { return addr_; }
  std::size_t length() const { return length_; }

 private:
  void* addr_;
  std::size_t length_;
};
}  // namespace internal

/// Column-major (structure-of-arrays) storage for a labelled feature
/// matrix: one contiguous buffer per feature, plus labels and feature
/// kinds. This is the owning backbone of spe::Dataset and the parent
/// type every zero-copy view refers to.
///
/// Why columns: every whole-dataset pass in this library is per-feature
/// (binner quantiles, scaler moments, split finding sorts one feature at
/// a time), so a feature slice should be one contiguous read — and the
/// resamplers, per the paper's own premise that SPE needs only
/// index-based undersampling, need row *indices*, not row copies.
///
/// Storage is either owned (growable per-column vectors) or mapped
/// (read-only spans into an mmap'ed sidecar; see data/mmap_cache.h).
/// Mutating a mapped matrix first detaches it into owned storage — a
/// counted materialization — so value semantics are preserved either
/// way. Labels are always owned: they are 4 bytes/row against 8·d for
/// features, and keeping labels() a plain vector spares every metric
/// signature from churn.
///
/// Structural mutations (AddRow/Append/TruncateRows) bump a version
/// counter; views snapshot it at construction and refuse to be read
/// after the parent moved on (see IndexedView::CheckAlive).
class DataMatrix {
 public:
  DataMatrix() = default;
  explicit DataMatrix(std::size_t num_features)
      : num_features_(num_features),
        cols_(num_features),
        kinds_(num_features, FeatureKind::kNumerical) {}

  DataMatrix(const DataMatrix& other);
  DataMatrix& operator=(const DataMatrix& other);
  DataMatrix(DataMatrix&&) = default;
  DataMatrix& operator=(DataMatrix&&) = default;

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_features() const { return num_features_; }
  bool mapped() const { return mapping_ != nullptr; }
  std::uint64_t version() const { return version_; }

  double At(std::size_t row, std::size_t col) const {
    return ColumnData(col)[row];
  }
  void Set(std::size_t row, std::size_t col, double value);

  /// Contiguous per-feature slice — the zero-copy currency feeding the
  /// binner, the scaler and split finding.
  std::span<const double> Column(std::size_t col) const {
    return {ColumnData(col), num_rows_};
  }

  int Label(std::size_t row) const { return labels_[row]; }
  void SetLabel(std::size_t row, int label) { labels_[row] = label; }
  const std::vector<int>& labels() const { return labels_; }

  FeatureKind feature_kind(std::size_t col) const { return kinds_[col]; }
  void set_feature_kind(std::size_t col, FeatureKind kind) { kinds_[col] = kind; }
  const std::vector<FeatureKind>& kinds() const { return kinds_; }

  void Reserve(std::size_t rows);
  void AddRow(std::span<const double> features, int label);
  void Append(const DataMatrix& other);
  void TruncateRows(std::size_t rows);

  /// Gathers row `row` into `out` (size num_features). Scratch traffic.
  void CopyRowTo(std::size_t row, std::span<double> out) const;

  /// Takes ownership of parsed columns: `columns[c]` is feature c, every
  /// one as long as `labels` (0/1 each), all features numerical. Metered
  /// as one materialization of every row: the bytes AddRow would have
  /// counted, in one op.
  void AdoptColumns(std::vector<std::vector<double>> columns,
                    std::vector<int> labels);

  /// Adopts an mmap'ed region: column c is `columns[c]`, all of equal
  /// length, kept alive by `block`. Labels are copied (owned).
  void AdoptMapped(std::shared_ptr<const internal::MappedBlock> block,
                   std::vector<std::span<const double>> columns,
                   std::vector<int> labels, std::vector<FeatureKind> kinds);

 private:
  const double* ColumnData(std::size_t col) const {
    return mapping_ != nullptr ? mapped_cols_[col].data() : cols_[col].data();
  }
  /// Copies mapped storage into owned vectors so mutation can proceed.
  void DetachFromMapping();

  std::size_t num_features_ = 0;
  std::size_t num_rows_ = 0;
  std::vector<std::vector<double>> cols_;  // owned mode
  std::vector<int> labels_;
  std::vector<FeatureKind> kinds_;
  std::uint64_t version_ = 0;

  // Mapped mode: spans into `mapping_` replace cols_.
  std::shared_ptr<const internal::MappedBlock> mapping_;
  std::vector<std::span<const double>> mapped_cols_;
};

}  // namespace spe

#endif  // SPE_DATA_MATRIX_H_
