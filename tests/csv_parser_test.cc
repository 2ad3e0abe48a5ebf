// CSV and LIBSVM field reader: values parse bit-identical to strtod,
// rows that straddle read chunks parse like any other, the field grammar
// accepts and refuses exactly what csv.h documents, and the streamed
// sidecar matches the documented v1 layout byte for byte.

#include <sys/stat.h>

#include <charconv>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/common/crc32.h"
#include "spe/common/rng.h"
#include "spe/data/csv.h"
#include "spe/data/dataset.h"
#include "spe/data/libsvm.h"
#include "spe/data/matrix.h"
#include "spe/data/mmap_cache.h"
#include "spe/data/text_reader.h"

namespace spe {
namespace {

namespace fs = std::filesystem;

class CsvParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("spe_csv_parser_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Write(const std::string& name, const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    out << content;
    return path;
  }

  fs::path dir_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Test-local reference: the file split on '\n' and ',' by hand, each
/// feature through strtod, the label through strtol. Header skipped.
struct Reference {
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
};

Reference ReferenceParse(const std::string& path, std::size_t label_column) {
  const std::string text = ReadFile(path);
  Reference ref;
  std::size_t pos = text.find('\n') + 1;  // header
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    std::vector<double> row;
    std::size_t start = 0;
    for (std::size_t f = 0;; ++f) {
      const std::size_t comma = line.find(',', start);
      const std::string field =
          line.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      if (f == label_column) {
        ref.labels.push_back(static_cast<int>(std::strtol(field.c_str(), nullptr, 10)));
      } else {
        row.push_back(std::strtod(field.c_str(), nullptr));
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    ref.rows.push_back(std::move(row));
  }
  return ref;
}

void ExpectMatchesReference(const Dataset& data, const Reference& ref) {
  ASSERT_EQ(data.num_rows(), ref.rows.size());
  ASSERT_EQ(data.num_rows(), ref.labels.size());
  for (std::size_t i = 0; i < ref.rows.size(); ++i) {
    ASSERT_EQ(ref.rows[i].size(), data.num_features()) << "row " << i;
    ASSERT_EQ(data.Label(i), ref.labels[i]) << "row " << i;
    for (std::size_t j = 0; j < data.num_features(); ++j) {
      ASSERT_EQ(Bits(data.At(i, j)), Bits(ref.rows[i][j]))
          << "row " << i << " column " << j << ": " << ref.rows[i][j];
    }
  }
}

/// Doubles across the whole range: Gaussians, uniforms scaled by a
/// random power of ten, and the edge values.
std::vector<double> EdgeAndRandomDoubles(std::size_t n, std::uint64_t seed) {
  std::vector<double> values = {0.0,      -0.0,     DBL_MIN, -DBL_MIN,
                                DBL_MAX,  -DBL_MAX, 1.0,     -1.0,
                                0.1,      1.0 / 3,  DBL_EPSILON,
                                std::numeric_limits<double>::denorm_min()};
  Rng rng(seed);
  while (values.size() < n) {
    const double scale = std::pow(10.0, static_cast<double>(rng.Index(601)) - 300.0);
    values.push_back(rng.Index(2) == 0 ? rng.Gaussian()
                                       : (rng.Uniform() - 0.5) * scale);
  }
  return values;
}

Dataset DatasetFromValues(const std::vector<double>& values, std::size_t d) {
  Dataset data(d);
  std::vector<double> row(d);
  for (std::size_t i = 0; i + d <= values.size(); i += d) {
    std::copy(values.begin() + i, values.begin() + i + d, row.begin());
    data.AddRow(row, static_cast<int>((i / d) % 2));
  }
  return data;
}

// ------------------------------------------------- bit-identical parse --

TEST_F(CsvParserTest, SaveCsvDoublesParseBitIdenticalToStrtod) {
  const std::vector<double> values = EdgeAndRandomDoubles(4000, 11);
  const Dataset original = DatasetFromValues(values, 4);
  const std::string path = (dir_ / "saved.csv").string();
  SaveCsv(original, path);
  const Dataset loaded = LoadCsv(path, 4);
  ExpectMatchesReference(loaded, ReferenceParse(path, 4));
  // max_digits10 round-trips every value exactly, -0 included.
  for (std::size_t i = 0; i < original.num_rows(); ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      ASSERT_EQ(Bits(loaded.At(i, j)), Bits(original.At(i, j)));
    }
  }
}

TEST_F(CsvParserTest, ShortestRoundTripFormsParseBitIdenticalToStrtod) {
  const std::vector<double> values = EdgeAndRandomDoubles(3000, 12);
  std::string text = "a,b,c,label\n";
  char buf[64];
  for (std::size_t i = 0; i + 3 <= values.size(); i += 3) {
    for (std::size_t j = 0; j < 3; ++j) {
      const auto r = std::to_chars(buf, buf + sizeof(buf), values[i + j]);
      text.append(buf, r.ptr);
      text.push_back(',');
    }
    text += (i / 3) % 2 ? "1\n" : "0\n";
  }
  const std::string path = Write("shortest.csv", text);
  const Dataset loaded = LoadCsv(path, 3);
  ExpectMatchesReference(loaded, ReferenceParse(path, 3));
  for (std::size_t i = 0; i < loaded.num_rows(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      ASSERT_EQ(Bits(loaded.At(i, j)), Bits(values[i * 3 + j]));
    }
  }
}

// ----------------------------------------------------- chunk boundaries --

TEST_F(CsvParserTest, RowsStraddlingReadChunksParseLikeAnyOther) {
  // Enough ordinary rows for the file to span several read chunks, so
  // rows are split across chunk boundaries.
  const std::vector<double> values = EdgeAndRandomDoubles(6 * 40000, 13);
  const std::string path = (dir_ / "multi_chunk.csv").string();
  SaveCsv(DatasetFromValues(values, 6), path);
  ASSERT_GT(fs::file_size(path), 3 * kTextReadChunkBytes);
  ExpectMatchesReference(LoadCsv(path, 6), ReferenceParse(path, 6));
}

TEST_F(CsvParserTest, RowLongerThanAReadChunkParses) {
  // ~150k columns: each data row alone outgrows one read chunk.
  constexpr std::size_t kWidth = 150000;
  const std::vector<double> values = EdgeAndRandomDoubles(3 * kWidth, 14);
  const std::string path = (dir_ / "wide.csv").string();
  SaveCsv(DatasetFromValues(values, kWidth), path);
  ASSERT_GT(fs::file_size(path) / 4, kTextReadChunkBytes);
  const Dataset loaded = LoadCsv(path, kWidth);
  ASSERT_EQ(loaded.num_features(), kWidth);
  ExpectMatchesReference(loaded, ReferenceParse(path, kWidth));
}

TEST_F(CsvParserTest, ParsedRowsAreMeteredOnce) {
  const std::string path = Write("meter.csv", "a,b,label\n1,2,0\n3,4,1\n5,6,0\n");
  const std::uint64_t before = GetDataCopyStats().materialize_bytes;
  const Dataset loaded = LoadCsv(path, 2);
  EXPECT_EQ(GetDataCopyStats().materialize_bytes - before,
            3 * (2 * sizeof(double) + sizeof(int)));
  EXPECT_EQ(loaded.num_rows(), 3u);
}

// ------------------------------------------------------ accepted forms --

TEST_F(CsvParserTest, AcceptsDocumentedForms) {
  const std::string path = Write(
      "accepted.csv",
      "x,y,label\r\n"
      "+1.5, -2 ,1\r\n"
      "\r\n"
      "\n"
      "\t3e2\t,.5,+0\r\n"
      "nan,NaN,0\n"
      "inf,-Infinity, 1 \n"
      "-0,+inf,-0");  // no final newline
  const Dataset data = LoadCsv(path, 2);
  ASSERT_EQ(data.num_rows(), 5u);
  ASSERT_EQ(data.num_features(), 2u);
  EXPECT_EQ(data.At(0, 0), 1.5);
  EXPECT_EQ(data.At(0, 1), -2.0);
  EXPECT_EQ(data.At(1, 0), 300.0);
  EXPECT_EQ(data.At(1, 1), 0.5);
  EXPECT_TRUE(std::isnan(data.At(2, 0)));
  EXPECT_TRUE(std::isnan(data.At(2, 1)));
  EXPECT_EQ(data.At(3, 0), HUGE_VAL);
  EXPECT_EQ(data.At(3, 1), -HUGE_VAL);
  EXPECT_EQ(Bits(data.At(4, 0)), Bits(-0.0));
  EXPECT_EQ(data.At(4, 1), HUGE_VAL);
  EXPECT_EQ(data.labels(), (std::vector<int>{1, 0, 0, 1, 0}));
}

TEST_F(CsvParserTest, LabelColumnMayBeAnyColumn) {
  const std::string path = Write("mid.csv", "a,label,b\n1,1,2\n3,0,4\n");
  const Dataset data = LoadCsv(path, 1);
  ASSERT_EQ(data.num_features(), 2u);
  EXPECT_EQ(data.At(0, 1), 2.0);
  EXPECT_EQ(data.At(1, 0), 3.0);
  EXPECT_EQ(data.labels(), (std::vector<int>{1, 0}));
}

TEST_F(CsvParserTest, NoHeaderAndEmptyFile) {
  EXPECT_EQ(LoadCsv(Write("nohdr.csv", "1,0\n2,1\n"), 1, false).num_rows(), 2u);
  EXPECT_EQ(LoadCsv(Write("empty.csv", ""), 1).num_rows(), 0u);
  EXPECT_EQ(LoadCsv(Write("hdr.csv", "a,label\n"), 1).num_rows(), 0u);
}

// ------------------------------------------------------- refused forms --

/// The DataFormatError message LoadCsv throws for `content`, or "" when
/// it does not throw one.
std::string CsvRefusal(const std::string& path, std::size_t label_column) {
  try {
    LoadCsv(path, label_column);
  } catch (const DataFormatError& error) {
    return error.what();
  }
  return "";
}

TEST_F(CsvParserTest, RefusesMalformedFieldsWithPathAndLine) {
  struct Case {
    const char* row;
    const char* reason;
  };
  const Case cases[] = {
      {"1.5x,2,1", "field 1: not a number '1.5x'"},
      {"1,,1", "field 2: empty field ''"},
      {"1,  ,1", "field 2: empty field '  '"},
      {"1e400,2,1", "field 1: number out of range '1e400'"},
      {"1,-1e400,0", "field 2: number out of range '-1e400'"},
      {"1e-400,2,1", "field 1: number out of range '1e-400'"},
      {"0x1p3,2,1", "field 1: not a number '0x1p3'"},
      {"+-1,2,1", "field 1: not a number '+-1'"},
      {"1,2,1.0", "field 3: not an integer '1.0'"},
      {"1,2,2", "field 3: label must be 0 or 1, got '2'"},
      {"1,2,-1", "field 3: label must be 0 or 1, got '-1'"},
      {"1,2,", "field 3: empty field ''"},
      {"1,2,yes", "field 3: not an integer 'yes'"},
      {"1,2,1,", "inconsistent column count: expected 3 fields, found 4"},
      {"1,2", "inconsistent column count: expected 3 fields, found 2"},
  };
  for (const Case& c : cases) {
    // The bad row is line 4: header, a good row, a blank line.
    const std::string path =
        Write("refused.csv", std::string("a,b,label\n0.5,1,0\n\n") + c.row + "\n");
    EXPECT_EQ(CsvRefusal(path, 2), path + ":4: " + c.reason) << c.row;
  }
}

TEST_F(CsvParserTest, RefusesFirstRowWithoutTheLabelColumn) {
  const std::string path = Write("short.csv", "a,b\n1,2\n");
  EXPECT_EQ(CsvRefusal(path, 5), path + ":2: missing label column");
}

TEST_F(CsvParserTest, LongFieldsAreCutInTheMessage) {
  const std::string junk(100, 'z');
  const std::string path = Write("junk.csv", "a,label\n" + junk + ",1\n");
  EXPECT_EQ(CsvRefusal(path, 1),
            path + ":2: field 1: not a number '" + junk.substr(0, 40) + "...'");
}

TEST_F(CsvParserTest, CachedLoadRefusesAndPublishesNothing) {
  const std::string path = Write("bad.csv", "a,label\n1x,1\n");
  EXPECT_THROW(LoadCsvCached(path, 1), DataFormatError);
  EXPECT_FALSE(fs::exists(SidecarPathFor(path)));
}

// --------------------------------------------------------------- LIBSVM --

std::string LibsvmRefusal(const std::string& path) {
  try {
    LoadLibsvm(path);
  } catch (const DataFormatError& error) {
    return error.what();
  }
  return "";
}

TEST_F(CsvParserTest, LibsvmSharesTheFieldGrammar) {
  const std::string path =
      Write("ok.svm", "# comment\r\n+1 1:+0.5 3:1e2\r\n\r\n-1 2:nan # tail\n0 1:-0");
  const Dataset data = LoadLibsvm(path);
  ASSERT_EQ(data.num_rows(), 3u);
  EXPECT_EQ(data.At(0, 0), 0.5);
  EXPECT_EQ(data.At(0, 2), 100.0);
  EXPECT_TRUE(std::isnan(data.At(1, 1)));
  EXPECT_EQ(Bits(data.At(2, 0)), Bits(-0.0));
  EXPECT_EQ(data.labels(), (std::vector<int>{1, 0, 0}));

  struct Case {
    const char* row;
    const char* reason;
  };
  const Case cases[] = {
      {"1 1:1.5x", "feature value: not a number '1:1.5x'"},
      {"1 1:", "feature value: empty field '1:'"},
      {"1 1:1e400", "feature value: number out of range '1:1e400'"},
      {"1 x:1", "feature index: not an integer 'x:1'"},
      {"1 2.0:1", "feature index: not an integer '2.0:1'"},
      {"1 1", "bad feature token '1'"},
      {"1.0 1:1", "label: not an integer '1.0'"},
      {"3 1:1", "unsupported label '3'"},
      {"  ", "missing label"},
  };
  for (const Case& c : cases) {
    const std::string bad = Write("bad.svm", std::string("0 1:1\n") + c.row + "\n");
    EXPECT_EQ(LibsvmRefusal(bad), bad + ":2: " + c.reason) << c.row;
  }
}

// -------------------------------------------------------------- sidecar --

template <typename T>
void Put(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// The sidecar image rebuilt from the v1 layout table in mmap_cache.h.
std::string DocumentedImage(const Dataset& data, const std::string& csv_path,
                            std::size_t label_column, bool has_header) {
  struct stat st{};
  EXPECT_EQ(::stat(csv_path.c_str(), &st), 0);
  std::string image = "SPMC";
  Put<std::uint32_t>(image, 1);
  Put<std::uint64_t>(image, data.num_rows());
  Put<std::uint64_t>(image, data.num_features());
  Put<std::uint64_t>(image, label_column);
  Put<std::uint8_t>(image, has_header ? 1 : 0);
  Put<std::uint64_t>(image, fs::file_size(csv_path));
  Put<std::uint64_t>(image,
                     static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
                         static_cast<std::uint64_t>(st.st_mtim.tv_nsec));
  EXPECT_EQ(image.size(), 49u);
  for (std::size_t j = 0; j < data.num_features(); ++j) {
    Put<std::uint8_t>(image,
                      data.feature_kind(j) == FeatureKind::kCategorical ? 1 : 0);
  }
  while (image.size() % 8 != 0) image.push_back('\0');
  for (std::size_t j = 0; j < data.num_features(); ++j) {
    for (std::size_t i = 0; i < data.num_rows(); ++i) Put<double>(image, data.At(i, j));
  }
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    Put<std::int32_t>(image, data.Label(i));
  }
  Put<std::uint32_t>(image, Crc32(image));
  return image;
}

TEST_F(CsvParserTest, StreamedSidecarMatchesTheDocumentedLayout) {
  // Large enough that the columns are streamed in several pieces.
  const std::vector<double> values = EdgeAndRandomDoubles(3 * 30000, 15);
  const std::string path = (dir_ / "cached.csv").string();
  SaveCsv(DatasetFromValues(values, 3), path);
  const Dataset cold = LoadCsvCached(path, 3);
  ASSERT_EQ(InspectSidecar(path, 3).status, SidecarStatus::kValid);
  EXPECT_EQ(ReadFile(SidecarPathFor(path)), DocumentedImage(cold, path, 3, true));
}

TEST_F(CsvParserTest, StreamedSidecarRecordsFeatureKindsAndOptions) {
  const std::string path = Write("kinds.csv", "1,2,0,3\n4,5,1,6\n");
  Dataset data = LoadCsv(path, 2, /*has_header=*/false);
  data.set_feature_kind(1, FeatureKind::kCategorical);
  ASSERT_TRUE(WriteSidecar(data, path, 2, /*has_header=*/false));
  EXPECT_EQ(ReadFile(SidecarPathFor(path)), DocumentedImage(data, path, 2, false));
}

}  // namespace
}  // namespace spe
