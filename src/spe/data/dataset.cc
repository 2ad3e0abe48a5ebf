#include "spe/data/dataset.h"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "spe/common/check.h"
#include "spe/common/model_format.h"

namespace spe {

bool Dataset::HasCategoricalFeatures() const {
  for (FeatureKind k : m_.kinds()) {
    if (k == FeatureKind::kCategorical) return true;
  }
  return false;
}

Dataset Dataset::Subset(std::span<const std::size_t> indices) const {
  return DatasetView(*this, indices).Materialize();
}

std::vector<std::size_t> Dataset::PositiveIndices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < num_rows(); ++i) {
    if (Label(i) == 1) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> Dataset::NegativeIndices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < num_rows(); ++i) {
    if (Label(i) == 0) out.push_back(i);
  }
  return out;
}

std::size_t Dataset::CountPositives() const {
  std::size_t count = 0;
  for (int y : labels()) count += static_cast<std::size_t>(y);
  return count;
}

double Dataset::ImbalanceRatio() const {
  const std::size_t pos = CountPositives();
  SPE_CHECK_GT(pos, 0u) << "imbalance ratio undefined without positives";
  return static_cast<double>(num_rows() - pos) / static_cast<double>(pos);
}

std::string Dataset::Summary() const {
  std::ostringstream os;
  os << num_rows() << " rows x " << num_features() << " features, "
     << CountPositives() << " positives";
  if (CountPositives() > 0 && CountPositives() < num_rows()) {
    os << " (IR " << ImbalanceRatio() << ":1)";
  }
  return os.str();
}

DatasetView DatasetView::FromRows(const double* rows, std::size_t num_rows,
                                  std::size_t num_features, const int* labels,
                                  std::span<const FeatureKind> kinds) {
  SPE_CHECK(rows != nullptr || num_rows == 0);
  DatasetView v;
  v.rows_ = rows;
  v.row_labels_ = labels;
  v.row_kinds_ = kinds;
  v.row_features_ = num_features;
  v.num_rows_ = num_rows;
  return v;
}

DatasetView DatasetView::WithIndices(std::span<const std::size_t> abs) const {
  SPE_CHECK(matrix_ != nullptr)
      << "WithIndices needs a columnar parent; materialize row-major "
         "views before re-indexing them";
  DatasetView v;
  v.matrix_ = matrix_;
  v.indices_ = abs;
  v.num_rows_ = abs.size();
  v.version_ = version_;
  return v;
}

bool DatasetView::HasCategoricalFeatures() const {
  for (std::size_t j = 0; j < num_features(); ++j) {
    if (feature_kind(j) == FeatureKind::kCategorical) return true;
  }
  return false;
}

void DatasetView::CopyRowTo(std::size_t row, std::span<double> out) const {
  CheckAlive();
  SPE_CHECK_EQ(out.size(), num_features());
  if (rows_ != nullptr) {
    const double* src = rows_ + row * row_features_;
    for (std::size_t j = 0; j < row_features_; ++j) out[j] = src[j];
    AddScratchBytes(row_features_ * sizeof(double));
    return;
  }
  matrix_->CopyRowTo(RowIndex(row), out);
}

std::size_t DatasetView::CountPositives() const {
  CheckAlive();
  std::size_t count = 0;
  for (std::size_t i = 0; i < num_rows_; ++i) {
    count += static_cast<std::size_t>(Label(i));
  }
  return count;
}

std::vector<std::size_t> DatasetView::PositiveIndices() const {
  CheckAlive();
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < num_rows_; ++i) {
    if (Label(i) == 1) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> DatasetView::NegativeIndices() const {
  CheckAlive();
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < num_rows_; ++i) {
    if (Label(i) == 0) out.push_back(i);
  }
  return out;
}

std::vector<int> DatasetView::LabelsVector() const {
  CheckAlive();
  std::vector<int> out(num_rows_);
  for (std::size_t i = 0; i < num_rows_; ++i) out[i] = Label(i);
  return out;
}

double DatasetView::ImbalanceRatio() const {
  const std::size_t pos = CountPositives();
  SPE_CHECK_GT(pos, 0u) << "imbalance ratio undefined without positives";
  return static_cast<double>(num_rows_ - pos) / static_cast<double>(pos);
}

Dataset DatasetView::Materialize() const {
  CheckAlive();
  const std::size_t d = num_features();
  Dataset out(d);
  for (std::size_t j = 0; j < d; ++j) out.set_feature_kind(j, feature_kind(j));
  out.Reserve(num_rows_);
  if (rows_ != nullptr) {
    for (std::size_t i = 0; i < num_rows_; ++i) {
      out.AddRow({rows_ + i * row_features_, row_features_}, Label(i));
    }
    return out;
  }
  // Columnar gather: column-by-column, so the copy itself streams.
  std::vector<double> scratch(d);
  for (std::size_t i = 0; i < num_rows_; ++i) {
    const std::size_t src = RowIndex(i);
    SPE_CHECK_LT(src, matrix_->num_rows());
    for (std::size_t j = 0; j < d; ++j) scratch[j] = matrix_->At(src, j);
    out.AddRow(scratch, matrix_->Label(src));
  }
  return out;
}

void RowMatrix::Reset(std::size_t rows, std::size_t features) {
  rows_ = rows;
  features_ = features;
  x_.resize(rows * features);
}

void RowMatrix::GatherFrom(const DatasetView& view) {
  Reset(view.num_rows(), view.num_features());
  for (std::size_t i = 0; i < rows_; ++i) view.CopyRowTo(i, Row(i));
}

void FeatureScaler::Fit(const DatasetView& data) {
  data.CheckAlive();
  SPE_CHECK_GT(data.num_rows(), 0u);
  const std::size_t d = data.num_features();
  means_.assign(d, 0.0);
  stds_.assign(d, 0.0);
  kinds_.resize(d);
  for (std::size_t j = 0; j < d; ++j) kinds_[j] = data.feature_kind(j);

  // Per-feature accumulators, rows in view order: the same additions in
  // the same order as the historical row-outer loop, so fitted moments
  // are bit-identical regardless of storage layout.
  const double n = static_cast<double>(data.num_rows());
  for (std::size_t j = 0; j < d; ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < data.num_rows(); ++i) sum += data.At(i, j);
    means_[j] = sum / n;
  }
  for (std::size_t j = 0; j < d; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
      const double delta = data.At(i, j) - means_[j];
      acc += delta * delta;
    }
    stds_[j] = std::sqrt(acc / n);
    // Constant columns carry no information; map them to 0 rather than
    // dividing by zero.
    if (stds_[j] < 1e-12) stds_[j] = 1.0;
  }
}

void FeatureScaler::TransformRow(std::span<const double> in,
                                 std::span<double> out) const {
  SPE_CHECK_EQ(in.size(), means_.size());
  SPE_CHECK_EQ(out.size(), means_.size());
  for (std::size_t j = 0; j < in.size(); ++j) {
    out[j] = kinds_[j] == FeatureKind::kCategorical
                 ? in[j]
                 : (in[j] - means_[j]) / stds_[j];
  }
}

void FeatureScaler::Save(std::ostream& os) const {
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "scaler " << means_.size() << "\n";
  for (std::size_t j = 0; j < means_.size(); ++j) {
    os << means_[j] << " " << stds_[j] << " "
       << (kinds_[j] == FeatureKind::kCategorical ? 1 : 0) << "\n";
  }
}

FeatureScaler FeatureScaler::Load(std::istream& is) {
  // A column line is at least "m s c\n".
  const std::size_t dim = model_format::ReadCount(is, "scaler", 6);
  FeatureScaler scaler;
  scaler.means_.resize(dim);
  scaler.stds_.resize(dim);
  scaler.kinds_.resize(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    int categorical = 0;
    is >> scaler.means_[j] >> scaler.stds_[j] >> categorical;
    model_format::Require(!is.fail() && (categorical == 0 || categorical == 1),
                          "scaler");
    scaler.kinds_[j] =
        categorical != 0 ? FeatureKind::kCategorical : FeatureKind::kNumerical;
  }
  return scaler;
}

Dataset FeatureScaler::Transform(const DatasetView& data) const {
  SPE_CHECK_EQ(data.num_features(), means_.size());
  Dataset out = data.Materialize();
  TransformInPlace(out);
  return out;
}

void FeatureScaler::TransformInPlace(Dataset& data) const {
  SPE_CHECK_EQ(data.num_features(), means_.size());
  for (std::size_t j = 0; j < data.num_features(); ++j) {
    if (kinds_[j] == FeatureKind::kCategorical) continue;
    const double mean = means_[j];
    const double std = stds_[j];
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
      data.Set(i, j, (data.At(i, j) - mean) / std);
    }
  }
}

void FeatureScaler::TransformToRows(const DatasetView& data,
                                    RowMatrix& out) const {
  SPE_CHECK_EQ(data.num_features(), means_.size());
  out.Reset(data.num_rows(), data.num_features());
  std::vector<double> scratch(data.num_features());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    data.CopyRowTo(i, scratch);
    TransformRow(scratch, out.Row(i));
  }
}

}  // namespace spe
