// Field-level mutation test of the artifact decoder (DecodeModelBundle).
// Every whitespace-separated token of three real artifacts — SPE over
// DT, SPE over GBDT, and a plain LR bundle — is replaced in turn by
// 0, -1, an out-of-range feature, a child index past any tree, huge
// integers and the largest double, and every tree node additionally
// gets its two children swapped. Payload edits are resealed (fresh
// payload_bytes and CRC-32), so they reach the per-class loaders
// instead of stopping at the checksum. Each mutant must either decode
// and re-save byte for byte to itself, or be refused as corrupt: no
// signal, no bad_alloc, no abort. Carries the `sanitize` ctest label.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/classifiers/logistic_regression.h"
#include "spe/common/crc32.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/io/model_io.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;

constexpr std::size_t kWidth = 2;

std::string BundleBytes(const Classifier& model) {
  std::ostringstream os;
  SaveModelBundle(model, kWidth, os);
  return os.str();
}

std::string SpeOverDt() {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 3;
  SelfPacedEnsemble model(config);
  model.Fit(OverlappingBlobs(200, 30, 1));
  return BundleBytes(model);
}

std::string SpeOverGbdt() {
  GbdtConfig gbdt;
  gbdt.boost_rounds = 3;
  gbdt.tree.max_leaves = 6;
  SelfPacedEnsembleConfig config;
  config.n_estimators = 2;
  SelfPacedEnsemble model(config, std::make_unique<Gbdt>(gbdt));
  model.Fit(OverlappingBlobs(200, 30, 2));
  return BundleBytes(model);
}

std::string PlainLr() {
  LogisticRegression model;
  model.Fit(OverlappingBlobs(120, 40, 3));
  return BundleBytes(model);
}

/// An artifact split into its header and payload, so a payload edit can
/// be resealed with a fresh size and checksum.
struct Artifact {
  std::string header;     // "spe-bundle ..." line, newline included
  std::string histogram;  // v3 "hardness_histogram ..." line
  std::string payload;

  static Artifact Split(const std::string& bytes) {
    const std::size_t eol = bytes.find('\n') + 1;
    const std::size_t eol2 = bytes.find('\n', eol) + 1;
    return {bytes.substr(0, eol), bytes.substr(eol, eol2 - eol),
            bytes.substr(eol2)};
  }

  std::string Sealed() const {
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", Crc32(payload));
    std::string sealed = header.substr(0, header.find(" payload_bytes"));
    sealed.append(" payload_bytes ").append(std::to_string(payload.size()));
    sealed.append(" crc32 ").append(crc).append("\n");
    return sealed.append(histogram).append(payload);
  }

  std::string Unsealed() const { return header + histogram + payload; }
};

struct Token {
  std::size_t pos;
  std::size_t len;
};

std::vector<Token> Tokens(const std::string& text) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\n')) ++i;
    const std::size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\n') ++i;
    if (i > start) tokens.push_back({start, i - start});
  }
  return tokens;
}

struct Tally {
  std::size_t decoded = 0;
  std::size_t refused = 0;
};

// The contract: decodes and re-saves to exactly `mutant`, or is refused
// as corrupt.
void Check(const std::string& mutant, const std::string& what, Tally* tally) {
  DecodedBundle decoded = DecodeModelBundle(mutant);
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.error, ArtifactError::kCorrupt) << what;
    EXPECT_FALSE(decoded.message.empty()) << what;
    ++tally->refused;
    return;
  }
  ++tally->decoded;
  ASSERT_NE(decoded.bundle.model, nullptr) << what;
  std::ostringstream resaved;
  SaveModelBundle(*decoded.bundle.model, decoded.bundle.num_features,
                  resaved);
  EXPECT_EQ(resaved.str(), mutant) << what << " decoded but re-saved differently";
}

const char* const kReplacements[] = {
    "0",     "-1",         "7",            "99999",
    "4000000000", "900000000000", "1.7976931348623157e+308"};

// Replaces each token of `part` of the artifact in turn. Header edits
// are left unsealed (the header is outside the CRC); payload edits are
// resealed so the decoder must judge the content itself.
Tally MutateEveryToken(const std::string& bytes) {
  const Artifact original = Artifact::Split(bytes);
  Tally tally;
  std::string Artifact::*const parts[] = {&Artifact::header,
                                          &Artifact::histogram,
                                          &Artifact::payload};
  for (std::string Artifact::*part : parts) {
    const std::string& text = original.*part;
    for (const Token& t : Tokens(text)) {
      for (const char* replacement : kReplacements) {
        if (text.compare(t.pos, t.len, replacement) == 0) continue;
        Artifact mutant = original;
        (mutant.*part).replace(t.pos, t.len, replacement);
        std::string what = "token '";
        what.append(text, t.pos, t.len).append("' at ");
        what.append(std::to_string(t.pos)).append(" -> ").append(replacement);
        Check(part == &Artifact::payload ? mutant.Sealed() : mutant.Unsealed(),
              what, &tally);
      }
    }
  }
  return tally;
}

// Swaps the two child fields of every node line ("f t left right v"),
// resealed: a swapped split is still a tree and must round-trip.
Tally SwapEveryChildPair(const std::string& bytes) {
  const Artifact original = Artifact::Split(bytes);
  Tally tally;
  std::size_t line_start = 0;
  while (line_start < original.payload.size()) {
    const std::size_t eol = original.payload.find('\n', line_start);
    const std::string line =
        original.payload.substr(line_start, eol - line_start);
    std::istringstream fields(line);
    std::vector<std::string> f;
    for (std::string x; fields >> x;) f.push_back(x);
    if (f.size() == 5 && f[0] != "-1") {
      Artifact mutant = original;
      const std::string swapped =
          f[0] + " " + f[1] + " " + f[3] + " " + f[2] + " " + f[4];
      mutant.payload.replace(line_start, line.size(), swapped);
      Check(mutant.Sealed(), "swapped children of '" + line + "'", &tally);
    }
    line_start = eol + 1;
  }
  return tally;
}

void RunAll(const std::string& bytes) {
  // The unmutated artifact is the baseline of the contract.
  Tally baseline;
  Check(bytes, "unmutated", &baseline);
  ASSERT_EQ(baseline.decoded, 1u);

  const Tally tokens = MutateEveryToken(bytes);
  EXPECT_GT(tokens.refused, 0u);
  EXPECT_GT(tokens.decoded, 0u);  // e.g. a threshold edit is still a model
}

TEST(ArtifactMutationTest, SpeOverDecisionTrees) {
  const std::string bytes = SpeOverDt();
  RunAll(bytes);
  const Tally swaps = SwapEveryChildPair(bytes);
  EXPECT_GT(swaps.decoded, 0u);
  EXPECT_EQ(swaps.refused, 0u);
}

TEST(ArtifactMutationTest, SpeOverGbdt) {
  const std::string bytes = SpeOverGbdt();
  RunAll(bytes);
  const Tally swaps = SwapEveryChildPair(bytes);
  EXPECT_GT(swaps.decoded, 0u);
  EXPECT_EQ(swaps.refused, 0u);
}

TEST(ArtifactMutationTest, LogisticRegression) { RunAll(PlainLr()); }

// The faults first seen on a live server, each pinned by name: header
// fields outside the CRC that used to drive an unchecked allocation, a
// resealed child index past the tree, a resealed node count no payload
// could hold, and a split feature outside the schema.
TEST(ArtifactMutationTest, ReproducedFaultsAreRefused) {
  const Artifact original = Artifact::Split(SpeOverDt());
  const auto replace_first = [](std::string* text, const std::string& from,
                                const std::string& to) {
    const std::size_t at = text->find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text->replace(at, from.size(), to);
  };
  const auto expect_refused = [](const std::string& bytes,
                                 const std::string& reason) {
    const DecodedBundle decoded = DecodeModelBundle(bytes);
    EXPECT_EQ(decoded.error, ArtifactError::kCorrupt) << reason;
    EXPECT_NE(decoded.message.find(reason), std::string::npos)
        << decoded.message;
  };

  Artifact huge_payload = original;
  const std::size_t at = huge_payload.header.find("payload_bytes ") + 14;
  huge_payload.header.replace(at, huge_payload.header.find(' ', at) - at,
                              "900000000000");
  expect_refused(huge_payload.Unsealed(), "truncated");

  Artifact huge_histogram = original;
  replace_first(&huge_histogram.histogram, "hardness_histogram 20",
                "hardness_histogram 4000000000");
  expect_refused(huge_histogram.Unsealed(), "hardness_histogram");

  // The root's left child is the second node; point it past the tree.
  Artifact bad_child = original;
  const std::size_t nodes = bad_child.payload.find("nodes ");
  const std::size_t root = bad_child.payload.find('\n', nodes) + 1;
  std::istringstream root_fields(
      bad_child.payload.substr(root, bad_child.payload.find('\n', root) - root));
  std::string feature, threshold, left;
  root_fields >> feature >> threshold >> left;
  ASSERT_NE(feature, "-1") << "root must be a split";
  const std::size_t left_at =
      root + feature.size() + 1 + threshold.size() + 1;
  bad_child.payload.replace(left_at, left.size(), "99999");
  expect_refused(bad_child.Sealed(), "bad child link 99999");

  Artifact huge_nodes = original;
  const std::size_t count_at = nodes + 6;
  huge_nodes.payload.replace(
      count_at, huge_nodes.payload.find('\n', count_at) - count_at,
      "4000000000");
  expect_refused(huge_nodes.Sealed(), "nodes count 4000000000");

  Artifact bad_feature = original;
  bad_feature.payload.replace(root, feature.size(), 1, '7');
  expect_refused(bad_feature.Sealed(), "split feature 7 outside the 2-feature");
}

}  // namespace
}  // namespace spe
