// Tests for spe::checkpoint and the crash-safe training contract
// (docs/robustness.md): the retry helper's backoff/exhaustion behavior,
// the checkpoint envelope's integrity checks, and — the heart of it —
// the resume determinism matrix: a run halted at the first, a middle,
// or the last self-paced iteration and then resumed must produce a
// model bundle byte-identical to an uninterrupted run, under
// SetNumThreads(1) and (8), for plain Fit and for FitWithValidation's
// early-stop truncation. Threaded — carries the `sanitize` ctest label.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/checkpoint/checkpoint.h"
#include "spe/common/crc32.h"
#include "spe/common/fault.h"
#include "spe/common/parallel.h"
#include "spe/common/retry.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/io/model_io.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("spe_checkpoint_test_") + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Bundle bytes are the determinism currency: they embed every member,
/// the schema and the v3 hardness histogram, so byte equality is the
/// strongest statement available about two trained models.
std::string BundleBytes(const Classifier& model) {
  std::ostringstream os;
  SaveModelBundle(model, 2, os);
  return os.str();
}

SelfPacedEnsembleConfig TestConfig(std::uint64_t seed = 3) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 10;
  config.seed = seed;
  return config;
}

// ---------------------------------------------------------------------
// Retry helper
// ---------------------------------------------------------------------

TEST(RetryTest, SucceedsAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 1;
  int calls = 0;
  const int result = RetryWithBackoff(policy, "unit op", [&] {
    if (++calls < 3) throw TransientIoError("flaky");
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, ExhaustionRethrowsTheLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  int calls = 0;
  EXPECT_THROW(RetryWithBackoff(policy, "unit op",
                                [&]() -> int {
                                  ++calls;
                                  throw TransientIoError("still flaky");
                                }),
               TransientIoError);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, NonTransientErrorsPropagateImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  EXPECT_THROW(RetryWithBackoff(policy, "unit op",
                                [&]() -> int {
                                  ++calls;
                                  throw std::runtime_error("bit rot");
                                }),
               std::runtime_error);
  EXPECT_EQ(calls, 1);  // permanent failures must not burn the budget
}

TEST(RetryTest, BackoffGrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 30;
  policy.jitter = 0.0;  // deterministic: the exact geometric series
  std::uint64_t state = 123;
  EXPECT_EQ(internal_retry::BackoffMs(policy, 1, state), 5u);
  EXPECT_EQ(internal_retry::BackoffMs(policy, 2, state), 10u);
  EXPECT_EQ(internal_retry::BackoffMs(policy, 3, state), 20u);
  EXPECT_EQ(internal_retry::BackoffMs(policy, 4, state), 30u);  // capped
  EXPECT_EQ(internal_retry::BackoffMs(policy, 9, state), 30u);
}

TEST(RetryTest, JitterStaysWithinTheConfiguredFraction) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 1000;
  policy.multiplier = 1.0;
  policy.jitter = 0.5;
  std::uint64_t state = 7;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t delay = internal_retry::BackoffMs(policy, 1, state);
    EXPECT_GE(delay, 500u);
    EXPECT_LE(delay, 1000u);
  }
}

// ---------------------------------------------------------------------
// Checkpoint envelope
// ---------------------------------------------------------------------

/// Trains with a halt after `halt_at`, leaving a real checkpoint behind.
void WriteRealCheckpoint(const std::string& dir, const Dataset& data,
                         std::size_t halt_at, std::uint64_t seed = 3) {
  SelfPacedEnsemble model(TestConfig(seed));
  FitCheckpointOptions options;
  options.directory = dir;
  options.halt_after_iteration = halt_at;
  model.set_checkpoint_options(options);
  model.Fit(data);
}

TEST(CheckpointEnvelopeTest, RealCheckpointReserializesByteIdentically) {
  const std::string dir = TempDir("roundtrip");
  const Dataset data = OverlappingBlobs(200, 30, 3);
  WriteRealCheckpoint(dir, data, 4);

  const std::string path = checkpoint::CheckpointPath(dir);
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.core.next_iteration, 5u);
  EXPECT_EQ(loaded.core.prob_count, 5u);  // f0 + iterations 1..4
  EXPECT_EQ(loaded.members.size(), 4u);   // f0 votes but is not a member
  // f0 is not a member, so the checkpoint must carry its bytes for the
  // resume replay (no accumulator is stored at all).
  EXPECT_FALSE(loaded.core.bootstrap_blob.empty());
  EXPECT_FALSE(loaded.core.rng_state.empty());
  EXPECT_FALSE(loaded.core.has_validation);
  EXPECT_EQ(loaded.core.data_fingerprint,
            checkpoint::DatasetFingerprint(data));

  // Load -> save must reproduce the state byte for byte; any drift here
  // would break the kill-resume-kill-resume chains the chaos harness
  // runs, where later checkpoints descend from restored state. The live
  // manifest is append-only (and how many of its records coalesced is a
  // scheduling accident), so the resaved single-record manifest must
  // equal its *newest* record — i.e. its byte suffix — exactly.
  const std::string resaved = dir + "/resaved.ckpt";
  checkpoint::SaveTrainerStateToFile(loaded.core, loaded.members, resaved);
  const std::string real_manifest = ReadFile(path);
  const std::string resaved_manifest = ReadFile(resaved);
  ASSERT_GE(real_manifest.size(), resaved_manifest.size());
  EXPECT_EQ(real_manifest.substr(real_manifest.size() -
                                 resaved_manifest.size()),
            resaved_manifest);
  EXPECT_EQ(ReadFile(checkpoint::MemberLogPath(path)),
            ReadFile(checkpoint::MemberLogPath(resaved)));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointEnvelopeTest, MissingFileIsAFreshStartNotAnError) {
  const std::string dir = TempDir("missing");
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(
      checkpoint::CheckpointPath(dir));
  EXPECT_TRUE(loaded.missing);
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointEnvelopeTest, IntegrityViolationsAreRefusedWithReasons) {
  const std::string dir = TempDir("integrity");
  const Dataset data = OverlappingBlobs(120, 20, 3);
  WriteRealCheckpoint(dir, data, 2);
  const std::string path = checkpoint::CheckpointPath(dir);
  const std::string bytes = ReadFile(path);

  std::string corrupt = bytes;
  corrupt[corrupt.size() - 3] ^= 0x01;
  WriteFile(path, corrupt);
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_NE(loaded.error.find("crc32 mismatch"), std::string::npos)
      << loaded.error;

  // Cut inside the *first* record so no complete record survives: that
  // is unrecoverable truncation. (Cutting the file elsewhere may leave
  // an earlier record intact, which is legitimate fallback, not error.)
  const std::size_t first_payload = bytes.find('\n') + 1;
  WriteFile(path, bytes.substr(0, first_payload + 3));
  loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_NE(loaded.error.find("truncated"), std::string::npos)
      << loaded.error;

  WriteFile(path, "hello world\n");
  loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_NE(loaded.error.find("bad magic"), std::string::npos)
      << loaded.error;

  // A torn *manifest* tail — the prefix of a commit record that never
  // finished — must fall back to the newest complete record, while
  // complete garbage after a valid record can only be bit rot and must
  // be refused.
  WriteFile(path, bytes + "spe-checkpoint 1 payload_bytes 999 crc32 0000");
  loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_TRUE(loaded.ok()) << loaded.error;
  WriteFile(path,
            bytes + "spe-checkpoint 1 payload_bytes 4 crc32 00000000\nto");
  loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_TRUE(loaded.ok()) << loaded.error;
  WriteFile(path, bytes + "not-a-record 9 payload_bytes 4 crc32 0\nrotted\n");
  loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_NE(loaded.error.find("malformed record after a valid checkpoint"),
            std::string::npos)
      << loaded.error;

  // The manifest CRCs the member-log prefix it vouches for, so bit rot
  // in the log (not just the manifest) must also be refused.
  WriteFile(path, bytes);
  const std::string log_path = checkpoint::MemberLogPath(path);
  const std::string log_bytes = ReadFile(log_path);
  std::string log_corrupt = log_bytes;
  log_corrupt[log_corrupt.size() / 2] ^= 0x01;
  WriteFile(log_path, log_corrupt);
  loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_NE(loaded.error.find("member log corrupted"), std::string::npos)
      << loaded.error;

  WriteFile(log_path, log_bytes.substr(0, log_bytes.size() / 2));
  loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_NE(loaded.error.find("member log truncated"), std::string::npos)
      << loaded.error;

  // A torn tail past the vouched prefix is a normal crash artifact,
  // not corruption: the loader must ignore it.
  WriteFile(log_path, log_bytes + "garbage from a torn append");
  loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_TRUE(loaded.ok()) << loaded.error;
  std::filesystem::remove_all(dir);
}

// Rewrites the checkpoint as one manifest record that vouches for
// `log` (fresh log_bytes / log_crc pin and record CRC), so a member-log
// edit gets past both checksums and reaches the member decoder.
void ResealCheckpoint(const std::string& path, const std::string& log) {
  const std::string manifest = ReadFile(path);
  const std::size_t newest = manifest.rfind("spe-checkpoint ");
  const std::size_t payload_start = manifest.find('\n', newest) + 1;
  std::string payload = manifest.substr(payload_start);
  const std::size_t pin = payload.find("log_bytes ");
  char pin_line[64];
  std::snprintf(pin_line, sizeof(pin_line), "log_bytes %zu log_crc %08x\n",
                log.size(), Crc32(log));
  payload.replace(pin, payload.find('\n', pin) + 1 - pin, pin_line);
  char header[80];
  std::snprintf(header, sizeof(header),
                "spe-checkpoint 1 payload_bytes %zu crc32 %08x\n",
                payload.size(), Crc32(payload));
  WriteFile(path, header + payload);
  WriteFile(checkpoint::MemberLogPath(path), log);
}

TEST(CheckpointEnvelopeTest, ResealedMemberLogMutantsAreRefused) {
  const std::string dir = TempDir("resealed");
  const Dataset data = OverlappingBlobs(120, 20, 3);
  WriteRealCheckpoint(dir, data, 2);
  const std::string path = checkpoint::CheckpointPath(dir);
  const std::string manifest = ReadFile(path);
  const std::string log = ReadFile(checkpoint::MemberLogPath(path));

  // Resealing the untouched log must load: the refusals below are the
  // member-log checks, not a bad seal.
  ResealCheckpoint(path, log);
  ASSERT_TRUE(checkpoint::LoadTrainerStateFromFile(path).ok());

  // A record count no log could hold: bounded before any allocation.
  const std::size_t record = log.find("member ");
  ASSERT_NE(record, std::string::npos);
  const std::size_t count_end = log.find('\n', record);
  std::string huge_record = log;
  huge_record.replace(record, count_end - record, "member 4000000000");
  WriteFile(path, manifest);
  ResealCheckpoint(path, huge_record);
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_NE(loaded.error.find("bad member log record"), std::string::npos)
      << loaded.error;

  // A member or bootstrap blob whose tree claims more nodes than the
  // blob holds: the model decoder's typed error refuses the checkpoint
  // (the bootstrap blob would otherwise reach resume's replay).
  for (const std::string kind : {"member ", "bootstrap "}) {
    const std::size_t at = log.find(kind);
    ASSERT_NE(at, std::string::npos) << kind;
    const std::size_t size_end = log.find('\n', at);
    const std::size_t blob = size_end + 1;
    const std::size_t blob_size = std::stoul(
        log.substr(at + kind.size(), size_end - at - kind.size()));
    std::string model = log.substr(blob, blob_size);
    const std::size_t nodes = model.find("nodes ");
    ASSERT_NE(nodes, std::string::npos);
    model.replace(nodes, model.find('\n', nodes) - nodes, "nodes 4000000000");
    std::string mutant = log.substr(0, at);
    mutant.append(kind).append(std::to_string(model.size()));
    mutant.append("\n").append(model).append(log, blob + blob_size);
    WriteFile(path, manifest);
    ResealCheckpoint(path, mutant);
    loaded = checkpoint::LoadTrainerStateFromFile(path);
    EXPECT_NE(loaded.error.find("bad member log record"), std::string::npos)
        << kind << loaded.error;
  }
  std::filesystem::remove_all(dir);
}

TEST(DatasetFingerprintTest, SensitiveToEveryBitThatCouldAlterTraining) {
  const Dataset a = OverlappingBlobs(100, 15, 3);
  const Dataset b = OverlappingBlobs(100, 15, 3);
  EXPECT_EQ(checkpoint::DatasetFingerprint(a),
            checkpoint::DatasetFingerprint(b));

  const Dataset other_seed = OverlappingBlobs(100, 15, 4);
  EXPECT_NE(checkpoint::DatasetFingerprint(a),
            checkpoint::DatasetFingerprint(other_seed));

  Dataset extra_row = OverlappingBlobs(100, 15, 3);
  extra_row.AddRow(std::vector<double>{0.0, 0.0}, 1);
  EXPECT_NE(checkpoint::DatasetFingerprint(a),
            checkpoint::DatasetFingerprint(extra_row));
}

// ---------------------------------------------------------------------
// Resume determinism matrix
// ---------------------------------------------------------------------

class ResumeDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(0); }

  /// Halts a checkpointed run after `halt_at`, resumes it in a fresh
  /// trainer, and returns the resumed model's bundle bytes.
  std::string HaltAndResume(const Dataset& data, std::size_t halt_at,
                            std::size_t every) {
    const std::string dir = TempDir("matrix");
    {
      SelfPacedEnsemble halted(TestConfig());
      FitCheckpointOptions options;
      options.directory = dir;
      options.every = every;
      options.halt_after_iteration = halt_at;
      halted.set_checkpoint_options(options);
      halted.Fit(data);
    }
    SelfPacedEnsemble resumed(TestConfig());
    FitCheckpointOptions options;
    options.directory = dir;
    options.every = every;
    options.resume = true;
    resumed.set_checkpoint_options(options);
    resumed.Fit(data);
    const std::string bytes = BundleBytes(resumed);
    std::filesystem::remove_all(dir);
    return bytes;
  }
};

TEST_F(ResumeDeterminismTest, KilledAtFirstMiddleLastMatchesStraightThrough) {
  const Dataset data = OverlappingBlobs(300, 40, 3);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SetNumThreads(threads);
    SelfPacedEnsemble truth(TestConfig());
    truth.Fit(data);
    const std::string truth_bytes = BundleBytes(truth);
    for (const std::size_t halt_at :
         {std::size_t{1}, std::size_t{5}, std::size_t{10}}) {
      EXPECT_EQ(HaltAndResume(data, halt_at, 1), truth_bytes)
          << "halt at iteration " << halt_at << " under " << threads
          << " thread(s) diverged from the uninterrupted run";
    }
  }
}

TEST_F(ResumeDeterminismTest, SparseCheckpointsReplayKilledIterations) {
  // --checkpoint-every 2 with a halt at 3: the newest checkpoint is
  // from iteration 2, so the resume must *replay* iteration 3 from
  // restored RNG state and still land on identical bytes.
  const Dataset data = OverlappingBlobs(300, 40, 3);
  SetNumThreads(1);
  SelfPacedEnsemble truth(TestConfig());
  truth.Fit(data);
  EXPECT_EQ(HaltAndResume(data, 3, 2), BundleBytes(truth));
}

TEST_F(ResumeDeterminismTest, ValidationEarlyStopSurvivesKillAndResume) {
  const Dataset train = OverlappingBlobs(300, 40, 3);
  const Dataset validation = OverlappingBlobs(80, 12, 17);

  SelfPacedEnsemble truth(TestConfig());
  const std::size_t truth_size = truth.FitWithValidation(train, validation);
  const std::string truth_bytes = BundleBytes(truth);

  const std::string dir = TempDir("validation");
  {
    SelfPacedEnsemble halted(TestConfig());
    FitCheckpointOptions options;
    options.directory = dir;
    options.halt_after_iteration = 5;
    halted.set_checkpoint_options(options);
    halted.FitWithValidation(train, validation);
  }
  SelfPacedEnsemble resumed(TestConfig());
  FitCheckpointOptions options;
  options.directory = dir;
  options.resume = true;
  resumed.set_checkpoint_options(options);
  const std::size_t resumed_size =
      resumed.FitWithValidation(train, validation);
  EXPECT_EQ(resumed_size, truth_size);
  EXPECT_EQ(BundleBytes(resumed), truth_bytes);

  // Crash *after* the last iteration but before the artifact publishes:
  // the final checkpoint (next_iteration = n + 1) restores the full
  // ensemble and validation history, and the resume only re-runs the
  // early-stop truncation.
  SelfPacedEnsemble post(TestConfig());
  post.set_checkpoint_options(options);
  const std::size_t post_size = post.FitWithValidation(train, validation);
  EXPECT_EQ(post_size, truth_size);
  EXPECT_EQ(BundleBytes(post), truth_bytes);
  std::filesystem::remove_all(dir);
}

// The in-process crash stand-in needs no checkpoint directory: with
// none set there is no publisher to drain, and Fit just stops after the
// named iteration, before the drift baseline is frozen.
TEST(HaltWithoutCheckpointTest, StopsAfterTheIterationWithoutPublishing) {
  const Dataset data = OverlappingBlobs(200, 30, 3);
  SelfPacedEnsemble model(TestConfig());
  FitCheckpointOptions options;
  options.halt_after_iteration = 4;
  model.set_checkpoint_options(options);
  model.Fit(data);
  EXPECT_EQ(model.NumMembers(), 4u);
  EXPECT_EQ(model.training_hardness(), nullptr);
}

// ---------------------------------------------------------------------
// Resume refusals
// ---------------------------------------------------------------------

TEST(ResumeRefusalTest, DifferentTrainingDataAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = TempDir("wrong_data");
  const Dataset data = OverlappingBlobs(150, 25, 3);
  WriteRealCheckpoint(dir, data, 2);

  const Dataset other = OverlappingBlobs(150, 25, 4);
  SelfPacedEnsemble model(TestConfig());
  FitCheckpointOptions options;
  options.directory = dir;
  options.resume = true;
  model.set_checkpoint_options(options);
  EXPECT_DEATH(model.Fit(other), "different training data");
  std::filesystem::remove_all(dir);
}

TEST(ResumeRefusalTest, CheckResumableReportsConfigMismatchWithoutAborting) {
  const std::string dir = TempDir("wrong_config");
  const Dataset data = OverlappingBlobs(150, 25, 3);
  WriteRealCheckpoint(dir, data, 2, /*seed=*/3);

  SelfPacedEnsemble model(TestConfig(/*seed=*/4));
  FitCheckpointOptions options;
  options.directory = dir;
  options.resume = true;
  model.set_checkpoint_options(options);
  const std::string reason = model.CheckResumable(data);
  EXPECT_NE(reason.find("different trainer configuration"),
            std::string::npos)
      << reason;
  std::filesystem::remove_all(dir);
}

TEST(ResumeRefusalTest, CheckResumableIsQuietWithNoDirOrNoFile) {
  const Dataset data = OverlappingBlobs(50, 10, 3);
  SelfPacedEnsemble model(TestConfig());
  EXPECT_TRUE(model.CheckResumable(data).empty());

  const std::string dir = TempDir("empty");
  FitCheckpointOptions options;
  options.directory = dir;
  options.resume = true;
  model.set_checkpoint_options(options);
  EXPECT_TRUE(model.CheckResumable(data).empty());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

TEST(CheckpointFaultTest, WriteFaultsExhaustRetriesThenThrow) {
  const std::string dir = TempDir("write_fault");
  const Dataset data = OverlappingBlobs(120, 20, 3);
  WriteRealCheckpoint(dir, data, 2);
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(
      checkpoint::CheckpointPath(dir));
  ASSERT_TRUE(loaded.ok()) << loaded.error;

  FaultConfig faults;
  faults.artifact_write_fail_rate = 1.0;
  Faults().Configure(faults);
  RetryPolicy fast;
  fast.max_attempts = 3;
  fast.initial_backoff_ms = 1;
  EXPECT_THROW(checkpoint::SaveTrainerStateToFile(
                   loaded.core, loaded.members, dir + "/denied.ckpt", fast),
               TransientIoError);
  Faults().Reset();
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFaultTest, FlakyWritesRecoverThroughBackoff) {
  const std::string dir = TempDir("flaky_write");
  const Dataset data = OverlappingBlobs(120, 20, 3);
  WriteRealCheckpoint(dir, data, 2);
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(
      checkpoint::CheckpointPath(dir));
  ASSERT_TRUE(loaded.ok()) << loaded.error;

  FaultConfig faults;
  faults.artifact_write_fail_rate = 0.5;
  faults.seed = 3;
  Faults().Configure(faults);
  RetryPolicy patient;
  patient.max_attempts = 8;
  patient.initial_backoff_ms = 1;
  const std::string path = dir + "/flaky.ckpt";
  checkpoint::SaveTrainerStateToFile(loaded.core, loaded.members, path,
                                     patient);
  Faults().Reset();
  EXPECT_TRUE(std::filesystem::exists(path));
  // The flaky save carries the same state as the live manifest's newest
  // commit record (its byte suffix).
  const std::string real_manifest = ReadFile(checkpoint::CheckpointPath(dir));
  const std::string flaky_manifest = ReadFile(path);
  ASSERT_GE(real_manifest.size(), flaky_manifest.size());
  EXPECT_EQ(
      real_manifest.substr(real_manifest.size() - flaky_manifest.size()),
      flaky_manifest);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFaultTest, CrashAtIterationDeliversARealSigkill) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = TempDir("sigkill");
  const Dataset data = OverlappingBlobs(120, 20, 3);

  FaultConfig faults;
  faults.crash_at_iteration = 2;
  SelfPacedEnsemble model(TestConfig());
  FitCheckpointOptions options;
  options.directory = dir;
  model.set_checkpoint_options(options);
  EXPECT_EXIT(
      {
        Faults().Configure(faults);
        model.Fit(data);
      },
      ::testing::KilledBySignal(SIGKILL), "killing process");
  // The kill fires only after the iteration's checkpoint published.
  EXPECT_TRUE(std::filesystem::exists(checkpoint::CheckpointPath(dir)));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spe
