#include "spe/data/matrix.h"

#include <sys/mman.h>

#include <atomic>
#include <cstring>

namespace spe {

namespace {
std::atomic<std::uint64_t> g_materialize_bytes{0};
std::atomic<std::uint64_t> g_materialize_ops{0};
std::atomic<std::uint64_t> g_scratch_bytes{0};
}  // namespace

DataCopyStats GetDataCopyStats() {
  DataCopyStats s;
  s.materialize_bytes = g_materialize_bytes.load(std::memory_order_relaxed);
  s.materialize_ops = g_materialize_ops.load(std::memory_order_relaxed);
  s.scratch_bytes = g_scratch_bytes.load(std::memory_order_relaxed);
  return s;
}

void AddMaterializeBytes(std::size_t bytes) {
  g_materialize_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_materialize_ops.fetch_add(1, std::memory_order_relaxed);
}

void AddScratchBytes(std::size_t bytes) {
  g_scratch_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

namespace internal {
MappedBlock::~MappedBlock() {
  if (addr_ != nullptr) ::munmap(addr_, length_);
}
}  // namespace internal

DataMatrix::DataMatrix(const DataMatrix& other)
    : num_features_(other.num_features_),
      num_rows_(other.num_rows_),
      cols_(other.cols_),
      labels_(other.labels_),
      kinds_(other.kinds_),
      mapping_(other.mapping_),
      mapped_cols_(other.mapped_cols_) {
  // Copying a mapped matrix shares the mapping (cheap); copying an owned
  // one duplicates every column — dataset-scale traffic.
  if (mapping_ == nullptr && num_rows_ > 0) {
    AddMaterializeBytes(num_rows_ * (num_features_ * sizeof(double) + sizeof(int)));
  }
}

DataMatrix& DataMatrix::operator=(const DataMatrix& other) {
  if (this == &other) return *this;
  DataMatrix copy(other);
  *this = std::move(copy);
  return *this;
}

void DataMatrix::Set(std::size_t row, std::size_t col, double value) {
  if (mapping_ != nullptr) DetachFromMapping();
  cols_[col][row] = value;
}

void DataMatrix::Reserve(std::size_t rows) {
  if (mapping_ != nullptr) return;  // mapped storage is fixed-size
  for (auto& c : cols_) c.reserve(rows);
  labels_.reserve(rows);
}

void DataMatrix::AddRow(std::span<const double> features, int label) {
  SPE_CHECK_EQ(features.size(), num_features_);
  SPE_CHECK(label == 0 || label == 1) << "labels must be binary, got " << label;
  if (mapping_ != nullptr) DetachFromMapping();
  for (std::size_t j = 0; j < num_features_; ++j) cols_[j].push_back(features[j]);
  labels_.push_back(label);
  ++num_rows_;
  ++version_;
  AddMaterializeBytes(num_features_ * sizeof(double) + sizeof(int));
}

void DataMatrix::Append(const DataMatrix& other) {
  SPE_CHECK_EQ(other.num_features(), num_features_);
  for (std::size_t j = 0; j < num_features_; ++j) {
    SPE_CHECK(other.kinds_[j] == kinds_[j])
        << "feature kind mismatch at column " << j
        << ": cannot append a "
        << (other.kinds_[j] == FeatureKind::kCategorical ? "categorical"
                                                         : "numerical")
        << " column onto a "
        << (kinds_[j] == FeatureKind::kCategorical ? "categorical" : "numerical")
        << " one";
  }
  if (mapping_ != nullptr) DetachFromMapping();
  for (std::size_t j = 0; j < num_features_; ++j) {
    auto src = other.Column(j);
    cols_[j].insert(cols_[j].end(), src.begin(), src.end());
  }
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
  num_rows_ += other.num_rows();
  ++version_;
  AddMaterializeBytes(other.num_rows() *
                      (num_features_ * sizeof(double) + sizeof(int)));
}

void DataMatrix::TruncateRows(std::size_t rows) {
  if (rows >= num_rows_) return;
  if (mapping_ != nullptr) DetachFromMapping();
  for (auto& c : cols_) c.resize(rows);
  labels_.resize(rows);
  num_rows_ = rows;
  ++version_;
}

void DataMatrix::CopyRowTo(std::size_t row, std::span<double> out) const {
  SPE_CHECK_EQ(out.size(), num_features_);
  for (std::size_t j = 0; j < num_features_; ++j) out[j] = ColumnData(j)[row];
  AddScratchBytes(num_features_ * sizeof(double));
}

void DataMatrix::AdoptColumns(std::vector<std::vector<double>> columns,
                              std::vector<int> labels) {
  num_features_ = columns.size();
  num_rows_ = labels.size();
  for (const auto& c : columns) SPE_CHECK_EQ(c.size(), num_rows_);
  cols_ = std::move(columns);
  labels_ = std::move(labels);
  kinds_.assign(num_features_, FeatureKind::kNumerical);
  mapping_.reset();
  mapped_cols_.clear();
  ++version_;
  if (num_rows_ > 0) {
    AddMaterializeBytes(num_rows_ * (num_features_ * sizeof(double) + sizeof(int)));
  }
}

void DataMatrix::AdoptMapped(std::shared_ptr<const internal::MappedBlock> block,
                             std::vector<std::span<const double>> columns,
                             std::vector<int> labels,
                             std::vector<FeatureKind> kinds) {
  SPE_CHECK_EQ(columns.size(), kinds.size());
  num_features_ = columns.size();
  num_rows_ = labels.size();
  for (const auto& c : columns) SPE_CHECK_EQ(c.size(), num_rows_);
  cols_.clear();
  labels_ = std::move(labels);
  kinds_ = std::move(kinds);
  mapping_ = std::move(block);
  mapped_cols_ = std::move(columns);
  ++version_;
}

void DataMatrix::DetachFromMapping() {
  cols_.assign(num_features_, {});
  for (std::size_t j = 0; j < num_features_; ++j) {
    auto src = mapped_cols_[j];
    cols_[j].assign(src.begin(), src.end());
  }
  mapped_cols_.clear();
  mapping_.reset();
  AddMaterializeBytes(num_rows_ * num_features_ * sizeof(double));
}

}  // namespace spe
