#include "spe/data/libsvm.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <vector>

#include "spe/common/check.h"
#include "spe/common/fault.h"
#include "spe/common/retry.h"
#include "spe/data/text_reader.h"

namespace spe {
namespace {

struct SparseRow {
  int raw_label = 0;
  std::vector<std::pair<std::size_t, double>> entries;  // 0-based index
};

/// Next blank-separated token of `line` at or after `pos`; empty at the
/// end of the line.
std::string_view NextToken(std::string_view line, std::size_t& pos) {
  auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (pos < line.size() && blank(line[pos])) ++pos;
  const std::size_t start = pos;
  while (pos < line.size() && !blank(line[pos])) ++pos;
  return line.substr(start, pos - start);
}

SparseRow ParseLine(std::string_view line, const std::string& path,
                    const TextLineReader& reader) {
  SparseRow row;
  std::size_t pos = 0;
  const std::string_view label_text = NextToken(line, pos);
  if (label_text.empty()) reader.Fail("missing label");
  long long label = 0;
  if (const char* reason = ParseIntegerField(label_text, &label)) {
    reader.Fail(std::string("label: ") + reason + " " + QuoteField(label_text));
  }
  if (label < -1 || label > 2) {
    reader.Fail("unsupported label " + QuoteField(label_text));
  }
  row.raw_label = static_cast<int>(label);
  for (std::string_view token = NextToken(line, pos); !token.empty();
       token = NextToken(line, pos)) {
    if (token[0] == '#') break;  // trailing comment
    const std::size_t colon = token.find(':');
    if (colon == std::string_view::npos) {
      reader.Fail("bad feature token " + QuoteField(token));
    }
    long long index = 0;
    if (const char* reason = ParseIntegerField(token.substr(0, colon), &index)) {
      reader.Fail(std::string("feature index: ") + reason + " " +
                  QuoteField(token));
    }
    SPE_CHECK_GE(index, 1) << path << ":" << reader.line_number()
                           << ": LIBSVM indices are 1-based";
    double value = 0.0;
    if (const char* reason = ParseNumberField(token.substr(colon + 1), &value)) {
      reader.Fail(std::string("feature value: ") + reason + " " +
                  QuoteField(token));
    }
    row.entries.emplace_back(static_cast<std::size_t>(index - 1), value);
  }
  return row;
}

/// Maps a raw label already known to be in {-1, 0, 1, 2}.
int MapLabel(int raw) { return raw >= 1 ? 1 : 0; }

}  // namespace

Dataset LoadLibsvm(const std::string& path, std::size_t num_features) {
  // Transient fault point, mirroring LoadCsv.
  if (Faults().ShouldFailDataIo()) {
    throw TransientIoError(
        "injected fault: transient data read failed for " + path,
        /*injected=*/true);
  }
  TextLineReader reader(path);

  std::vector<SparseRow> rows;
  std::size_t max_index = 0;
  bool saw_label_two = false;
  std::string_view line;
  while (reader.Next(&line)) {
    if (line.empty() || line[0] == '#') continue;
    rows.push_back(ParseLine(line, path, reader));
    for (const auto& [index, value] : rows.back().entries) {
      max_index = std::max(max_index, index + 1);
    }
    saw_label_two |= rows.back().raw_label == 2;
  }
  SPE_CHECK(!rows.empty()) << path << ": no data rows";

  const std::size_t width = num_features > 0 ? num_features : max_index;
  SPE_CHECK_GE(width, max_index)
      << path << ": num_features smaller than the largest feature index";

  Dataset data(width);
  data.Reserve(rows.size());
  std::vector<double> dense(width);
  for (const SparseRow& row : rows) {
    std::fill(dense.begin(), dense.end(), 0.0);
    for (const auto& [index, value] : row.entries) dense[index] = value;
    // {1, 2}-encoded files use 1 as the negative class; plain {0/-1, 1}
    // files use 1 as positive. Disambiguate by whether a 2 ever appears.
    const int label = (saw_label_two && row.raw_label == 1)
                          ? 0
                          : MapLabel(row.raw_label);
    data.AddRow(dense, label);
  }
  return data;
}

void SaveLibsvm(const Dataset& data, const std::string& path) {
  std::ofstream out(path);
  SPE_CHECK(out.good()) << "cannot write " << path;
  out.precision(std::numeric_limits<double>::max_digits10);
  std::vector<double> row(data.num_features());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    out << data.Label(i);
    data.CopyRowTo(i, row);
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (row[j] != 0.0) out << " " << (j + 1) << ":" << row[j];
    }
    out << "\n";
  }
}

}  // namespace spe
