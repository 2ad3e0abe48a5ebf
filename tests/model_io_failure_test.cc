// Failure-path tests for model_io bundle loading: unchecksummed legacy
// artifacts are refused, integrity violations (truncation, bit rot)
// abort the aborting loaders with messages that name the real problem,
// the non-aborting decoder reports the same conditions as typed errors,
// and the v3 hardness-histogram line round-trips byte-identically
// through save -> load -> re-save.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/common/fault.h"
#include "spe/common/retry.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/io/model_io.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;

std::unique_ptr<SelfPacedEnsemble> TrainSpe(std::uint64_t seed) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 3;
  config.seed = seed;
  auto model = std::make_unique<SelfPacedEnsemble>(config);
  model->Fit(OverlappingBlobs(200, 30, seed));
  return model;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("spe_model_io_failure_") + name))
      .string();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string SaveBundleString(const Classifier& model) {
  std::ostringstream os;
  SaveModelBundle(model, 2, os);
  return os.str();
}

TEST(ModelIoFailureTest, BareStreamIsRefusedAsUnchecksummed) {
  auto model = TrainSpe(1);
  std::stringstream stream;
  SaveClassifier(*model, stream);

  const DecodedBundle decoded = DecodeModelBundle(stream.str());
  EXPECT_EQ(decoded.error, ArtifactError::kCorrupt);
  EXPECT_NE(decoded.message.find("bare spe-model stream"), std::string::npos)
      << decoded.message;
  EXPECT_EQ(decoded.bundle.model, nullptr);
}

TEST(ModelIoFailureTest, V1BundleIsRefusedAsUnchecksummed) {
  auto model = TrainSpe(2);
  std::ostringstream payload;
  SaveClassifier(*model, payload);

  const DecodedBundle decoded =
      DecodeModelBundle("spe-bundle 1 num_features 2\n" + payload.str());
  EXPECT_EQ(decoded.error, ArtifactError::kCorrupt);
  EXPECT_NE(decoded.message.find("unsupported bundle version"),
            std::string::npos)
      << decoded.message;
  EXPECT_EQ(decoded.bundle.model, nullptr);
}

TEST(ModelIoFailureTest, CrcMismatchAbortsWithCorruptionMessage) {
  auto model = TrainSpe(4);
  std::string bytes = SaveBundleString(*model);
  // Flip one payload byte (past the two header lines) — the artifact
  // still parses as text, so only the checksum can catch this.
  const std::size_t payload_start =
      bytes.find('\n', bytes.find('\n') + 1) + 1;
  ASSERT_LT(payload_start + 10, bytes.size());
  bytes[payload_start + 10] ^= 0x01;
  const std::string path = TempPath("corrupt.model");
  WriteFile(path, bytes);

  EXPECT_DEATH(LoadModelBundleFromFile(path), "model artifact corrupted");
  std::filesystem::remove(path);
}

TEST(ModelIoFailureTest, TruncatedPayloadAbortsWithTruncationMessage) {
  auto model = TrainSpe(5);
  const std::string bytes = SaveBundleString(*model);
  const std::string path = TempPath("truncated.model");
  WriteFile(path, bytes.substr(0, bytes.size() / 2));

  EXPECT_DEATH(LoadModelBundleFromFile(path), "model artifact truncated");
  std::filesystem::remove(path);
}

TEST(ModelIoFailureTest, DecoderReportsEveryFailureWithoutAborting) {
  auto model = TrainSpe(6);
  const std::string bytes = SaveBundleString(*model);
  RetryPolicy fast;
  fast.initial_backoff_ms = 1;

  const std::string good = TempPath("decode_good.model");
  WriteFile(good, bytes);
  DecodedBundle decoded = DecodeModelBundleFile(good, fast);
  ASSERT_TRUE(decoded.ok()) << decoded.message;
  EXPECT_NE(decoded.bundle.model, nullptr);
  EXPECT_EQ(decoded.bundle.format_version, 3);
  EXPECT_EQ(decoded.bundle.num_features, 2u);
  EXPECT_GT(decoded.bundle.payload_bytes, 0u);
  EXPECT_EQ(decoded.bundle.crc32_hex.size(), 8u);
  EXPECT_FALSE(decoded.bundle.hardness_histogram.empty());

  decoded = DecodeModelBundleFile(TempPath("decode_missing.model"), fast);
  EXPECT_EQ(decoded.error, ArtifactError::kIo);
  EXPECT_NE(decoded.message.find("cannot open"), std::string::npos);

  const std::string truncated = TempPath("decode_truncated.model");
  WriteFile(truncated, bytes.substr(0, bytes.size() - 7));
  decoded = DecodeModelBundleFile(truncated, fast);
  EXPECT_EQ(decoded.error, ArtifactError::kCorrupt);
  EXPECT_NE(decoded.message.find("truncated"), std::string::npos)
      << decoded.message;

  std::string corrupt_bytes = bytes;
  corrupt_bytes[corrupt_bytes.size() - 2] ^= 0x01;
  const std::string corrupt = TempPath("decode_corrupt.model");
  WriteFile(corrupt, corrupt_bytes);
  decoded = DecodeModelBundleFile(corrupt, fast);
  EXPECT_EQ(decoded.error, ArtifactError::kCorrupt);
  EXPECT_NE(decoded.message.find("corrupted"), std::string::npos)
      << decoded.message;

  const std::string garbage = TempPath("decode_garbage.model");
  WriteFile(garbage, "hello world\n");
  decoded = DecodeModelBundleFile(garbage, fast);
  EXPECT_EQ(decoded.error, ArtifactError::kCorrupt);
  EXPECT_FALSE(decoded.message.empty());

  // An injected read fault that outlives the retries is its own kind,
  // so a chaos run never masquerades as a broken disk.
  FaultConfig faults;
  faults.artifact_read_fail_rate = 1.0;
  Faults().Configure(faults);
  decoded = DecodeModelBundleFile(good, fast);
  Faults().Reset();
  EXPECT_EQ(decoded.error, ArtifactError::kFault);
  EXPECT_NE(decoded.message.find("injected fault"), std::string::npos);

  for (const std::string& p : {good, truncated, corrupt, garbage}) {
    std::filesystem::remove(p);
  }
}

TEST(ModelIoFailureTest, TransientWriteFaultThrowsWithoutPublishing) {
  // artifact_write_fail_rate models recoverable I/O weather: unlike
  // model_io_fail_rate's abort, it throws TransientIoError *before* the
  // tmp file is written, so no fault ever leaves a torn artifact.
  auto model = TrainSpe(9);
  const std::string path = TempPath("transient_write.model");
  FaultConfig faults;
  faults.artifact_write_fail_rate = 1.0;
  Faults().Configure(faults);
  EXPECT_THROW(SaveModelBundleToFile(*model, 2, path), TransientIoError);
  Faults().Reset();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // With faults off the same call publishes, and a transient *read*
  // fault on the way back throws without consuming the file.
  SaveModelBundleToFile(*model, 2, path);
  faults.artifact_write_fail_rate = 0.0;
  faults.artifact_read_fail_rate = 1.0;
  Faults().Configure(faults);
  EXPECT_THROW(LoadModelBundleFromFile(path), TransientIoError);
  Faults().Reset();
  ModelBundle bundle = LoadModelBundleFromFile(path);
  EXPECT_NE(bundle.model, nullptr);
  std::filesystem::remove(path);
}

TEST(ModelIoFailureTest, V3HistogramRoundTripsByteIdentically) {
  auto model = TrainSpe(7);
  ASSERT_NE(model->training_hardness(), nullptr);
  const std::string first = SaveBundleString(*model);
  EXPECT_EQ(first.rfind("spe-bundle 3 num_features 2 payload_bytes ", 0), 0u);
  EXPECT_NE(first.find("\nhardness_histogram "), std::string::npos);

  std::istringstream is(first);
  ModelBundle bundle = LoadModelBundle(is);
  ASSERT_FALSE(bundle.hardness_histogram.empty());
  EXPECT_EQ(bundle.hardness_histogram.total(),
            model->training_hardness()->total());

  // Re-saving the loaded model must reproduce the artifact byte for
  // byte — the histogram (17-significant-digit min/max included)
  // survives the round trip exactly.
  const std::string second = SaveBundleString(*bundle.model);
  EXPECT_EQ(first, second);
}

TEST(ModelIoFailureTest, HandcraftedV2BundleStillLoads) {
  auto model = TrainSpe(8);
  const std::string v3 = SaveBundleString(*model);
  const std::size_t header_end = v3.find('\n');
  const std::size_t histogram_end = v3.find('\n', header_end + 1);
  ASSERT_NE(histogram_end, std::string::npos);

  // Rebuild the header as version 2 (same payload, same integrity
  // fields, no histogram line) — the pre-lifecycle on-disk format.
  std::istringstream header(v3.substr(0, header_end));
  std::string magic, kw_features, kw_payload, kw_crc, crc;
  int version = 0;
  std::size_t num_features = 0, payload_bytes = 0;
  header >> magic >> version >> kw_features >> num_features >> kw_payload >>
      payload_bytes >> kw_crc >> crc;
  ASSERT_EQ(version, 3);
  std::ostringstream v2;
  v2 << "spe-bundle 2 num_features " << num_features << " payload_bytes "
     << payload_bytes << " crc32 " << crc << "\n"
     << v3.substr(histogram_end + 1);

  std::istringstream is(v2.str());
  ModelBundle bundle = LoadModelBundle(is);
  ASSERT_NE(bundle.model, nullptr);
  EXPECT_EQ(bundle.format_version, 2);
  EXPECT_EQ(bundle.num_features, 2u);
  EXPECT_TRUE(bundle.hardness_histogram.empty());

  const Dataset test = OverlappingBlobs(30, 10, 9);
  const std::vector<double> expected = model->PredictProba(test);
  const std::vector<double> restored = bundle.model->PredictProba(test);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(expected[i], restored[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace spe
