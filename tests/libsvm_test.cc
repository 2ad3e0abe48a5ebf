#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "spe/common/rng.h"
#include "spe/data/libsvm.h"
#include "spe/data/text_reader.h"

namespace spe {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(LibsvmTest, ParsesSparseRows) {
  const std::string path = TempPath("spe_libsvm_basic.txt");
  WriteFile(path,
            "1 1:0.5 3:2.0\n"
            "0 2:-1.25\n"
            "1 1:1 2:2 3:3\n");
  const Dataset data = LoadLibsvm(path);
  ASSERT_EQ(data.num_rows(), 3u);
  ASSERT_EQ(data.num_features(), 3u);
  EXPECT_DOUBLE_EQ(data.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(data.At(0, 1), 0.0);  // sparse zero
  EXPECT_DOUBLE_EQ(data.At(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(data.At(1, 1), -1.25);
  EXPECT_EQ(data.Label(0), 1);
  EXPECT_EQ(data.Label(1), 0);
  std::remove(path.c_str());
}

TEST(LibsvmTest, MapsMinusOneLabels) {
  const std::string path = TempPath("spe_libsvm_pm1.txt");
  WriteFile(path, "-1 1:1\n+1 1:2\n");
  const Dataset data = LoadLibsvm(path);
  EXPECT_EQ(data.Label(0), 0);
  EXPECT_EQ(data.Label(1), 1);
  std::remove(path.c_str());
}

TEST(LibsvmTest, MapsOneTwoLabels) {
  const std::string path = TempPath("spe_libsvm_12.txt");
  WriteFile(path, "1 1:1\n2 1:2\n1 1:3\n");
  const Dataset data = LoadLibsvm(path);
  EXPECT_EQ(data.Label(0), 0);  // 1 is negative when 2 appears
  EXPECT_EQ(data.Label(1), 1);
  EXPECT_EQ(data.Label(2), 0);
  std::remove(path.c_str());
}

TEST(LibsvmTest, ExplicitWidthPadsColumns) {
  const std::string path = TempPath("spe_libsvm_width.txt");
  WriteFile(path, "1 1:1\n");
  const Dataset data = LoadLibsvm(path, /*num_features=*/5);
  EXPECT_EQ(data.num_features(), 5u);
  EXPECT_DOUBLE_EQ(data.At(0, 4), 0.0);
  std::remove(path.c_str());
}

TEST(LibsvmTest, SkipsCommentsAndBlankLines) {
  const std::string path = TempPath("spe_libsvm_comments.txt");
  WriteFile(path, "# header comment\n\n1 1:1 # trailing comment\n0 1:2\n");
  const Dataset data = LoadLibsvm(path);
  EXPECT_EQ(data.num_rows(), 2u);
  std::remove(path.c_str());
}

TEST(LibsvmTest, RoundTrip) {
  Dataset data(4);
  Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    std::vector<double> row(4);
    for (auto& v : row) v = rng.Uniform() < 0.4 ? 0.0 : rng.Gaussian();
    data.AddRow(row, i % 5 == 0);
  }
  const std::string path = TempPath("spe_libsvm_roundtrip.txt");
  SaveLibsvm(data, path);
  const Dataset loaded = LoadLibsvm(path, 4);
  ASSERT_EQ(loaded.num_rows(), data.num_rows());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_EQ(loaded.Label(i), data.Label(i));
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(loaded.At(i, j), data.At(i, j), 1e-12);
    }
  }
  std::remove(path.c_str());
}

/// The DataFormatError message LoadLibsvm throws for `content`, or ""
/// if it loads.
std::string RefusalOf(const char* name, const std::string& content,
                      std::size_t num_features = 0) {
  const std::string path = TempPath(name);
  WriteFile(path, content);
  std::string message;
  try {
    LoadLibsvm(path, num_features);
  } catch (const DataFormatError& e) {
    message = e.what();
  }
  std::remove(path.c_str());
  return message;
}

TEST(LibsvmTest, ZeroBasedIndexIsRefused) {
  const std::string message =
      RefusalOf("spe_libsvm_zero.txt", "1 1:1\n1 0:1\n");
  EXPECT_NE(message.find("spe_libsvm_zero.txt:2:"), std::string::npos)
      << message;
  EXPECT_NE(message.find("1-based"), std::string::npos) << message;
  EXPECT_NE(RefusalOf("spe_libsvm_negative.txt", "1 -3:1\n"), "");
}

TEST(LibsvmTest, TooSmallWidthIsRefused) {
  const std::string message =
      RefusalOf("spe_libsvm_small.txt", "1 2:1\n0 7:1\n", 3);
  EXPECT_NE(message.find("spe_libsvm_small.txt:2:"), std::string::npos)
      << message;
  EXPECT_NE(message.find("above the width 3"), std::string::npos) << message;
  // An inferred width is capped too: a hostile index cannot size a
  // multi-gigabyte row.
  EXPECT_NE(RefusalOf("spe_libsvm_huge.txt", "1 4000000000:1\n"), "");
}

}  // namespace
}  // namespace spe
