#include "spe/data/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "spe/common/check.h"
#include "spe/common/fault.h"
#include "spe/common/retry.h"
#include "spe/data/text_reader.h"

namespace spe {
namespace {

/// Rows to reserve per column: the file size over the first row's
/// length, plus a quarter for rows longer than the first. Reserved
/// pages that are never written are never touched, so an overestimate
/// costs address space, not memory; an underestimate only means one
/// reallocation per column.
std::size_t EstimateRows(std::uint64_t file_size, std::size_t row_bytes) {
  const std::uint64_t rows = file_size / (row_bytes + 1);
  return static_cast<std::size_t>(rows + rows / 4 + 1);
}

[[noreturn]] void FailField(const TextLineReader& reader, std::size_t field,
                            const char* reason, std::string_view text) {
  reader.Fail("field " + std::to_string(field + 1) + ": " + reason + " " +
              QuoteField(text));
}

}  // namespace

Dataset LoadCsv(const std::string& path, std::size_t label_column, bool has_header) {
  // Transient fault point: a recoverable read failure before any bytes
  // are consumed; callers (spe_cli's LoadData) retry with backoff.
  if (Faults().ShouldFailDataIo()) {
    throw TransientIoError(
        "injected fault: transient data read failed for " + path,
        /*injected=*/true);
  }
  TextLineReader reader(path);
  std::string_view line;
  if (has_header) reader.Next(&line);

  std::vector<std::vector<double>> columns;
  std::vector<int> labels;
  std::size_t num_fields = 0;  // fixed by the first data row
  while (reader.Next(&line)) {
    if (line.empty()) continue;
    if (num_fields == 0) {
      num_fields = 1 + static_cast<std::size_t>(
                           std::count(line.begin(), line.end(), ','));
      if (num_fields <= label_column) reader.Fail("missing label column");
      const std::size_t rows = EstimateRows(reader.file_size(), line.size());
      columns.resize(num_fields - 1);
      for (auto& column : columns) column.reserve(rows);
      labels.reserve(rows);
    }
    const char* p = line.data();
    const char* const end = p + line.size();
    for (std::size_t f = 0; f < num_fields; ++f) {
      const char* stop = static_cast<const char*>(
          std::memchr(p, ',', static_cast<std::size_t>(end - p)));
      const bool last = f + 1 == num_fields;
      if ((stop == nullptr) != last) {
        const std::size_t found =
            1 + static_cast<std::size_t>(std::count(line.begin(), line.end(), ','));
        reader.Fail("inconsistent column count: expected " +
                    std::to_string(num_fields) + " fields, found " +
                    std::to_string(found));
      }
      if (last) stop = end;
      const std::string_view field(p, static_cast<std::size_t>(stop - p));
      if (f == label_column) {
        long long label = 0;
        const char* reason = ParseIntegerField(field, &label);
        if (reason == nullptr && label != 0 && label != 1) {
          reason = "label must be 0 or 1, got";
        }
        if (reason != nullptr) FailField(reader, f, reason, field);
        labels.push_back(static_cast<int>(label));
      } else {
        double value = 0.0;
        const char* reason = ParseNumberField(field, &value);
        if (reason != nullptr) FailField(reader, f, reason, field);
        columns[f < label_column ? f : f - 1].push_back(value);
      }
      p = stop + 1;
    }
  }
  Dataset data;
  if (num_fields > 0) {
    data.mutable_matrix().AdoptColumns(std::move(columns), std::move(labels));
  }
  return data;
}

void SaveCsv(const Dataset& data, const std::string& path) {
  std::ofstream out(path);
  SPE_CHECK(out.good()) << "cannot write " << path;
  // max_digits10 guarantees doubles survive a save/load round trip.
  out.precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t j = 0; j < data.num_features(); ++j) out << "f" << j << ",";
  out << "label\n";
  std::vector<double> row(data.num_features());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    data.CopyRowTo(i, row);
    for (double v : row) out << v << ",";
    out << data.Label(i) << "\n";
  }
}

}  // namespace spe
