#include "spe/io/model_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spe/classifiers/adaboost.h"
#include "spe/classifiers/bagging.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/classifiers/logistic_regression.h"
#include "spe/classifiers/random_forest.h"
#include "spe/common/check.h"
#include "spe/common/crc32.h"
#include "spe/common/fault.h"
#include "spe/common/retry.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/imbalance/balance_cascade.h"
#include "spe/kernels/flat_forest.h"
#include "spe/imbalance/smote_bagging.h"
#include "spe/imbalance/under_bagging.h"

namespace spe {
namespace {

constexpr char kMagic[] = "spe-model";
constexpr int kFormatVersion = 1;
constexpr char kBundleMagic[] = "spe-bundle";
// Version 2 added "payload_bytes B crc32 HHHHHHHH" to the header so
// loaders detect truncated / bit-flipped artifacts. Version 3 added the
// "hardness_histogram" line — the training-time drift baseline for the
// lifecycle layer. Both load; version 1 bundles and bare spe-model files
// carried no checksum and are refused.
constexpr int kBundleVersion = 3;
// Deepest model nesting the decoder follows (an ensemble of boosters of
// trees is 3 deep); bounds the recursion a crafted payload can ask for.
constexpr int kMaxNesting = 32;

// "hardness_histogram K [KIND MIN MAX C0 .. C(K-1)]". Doubles print
// with max_digits10 so a parse-and-reprint reproduces the exact bytes.
void WriteHistogramLine(const HardnessHistogram* histogram, std::ostream& os) {
  if (histogram == nullptr || histogram->empty()) {
    os << "hardness_histogram 0\n";
    return;
  }
  char num[40];
  os << "hardness_histogram " << histogram->counts.size() << " "
     << histogram->kind;
  std::snprintf(num, sizeof(num), "%.17g", histogram->min);
  os << " " << num;
  std::snprintf(num, sizeof(num), "%.17g", histogram->max);
  os << " " << num;
  for (const std::uint64_t c : histogram->counts) os << " " << c;
  os << "\n";
}

std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  for (std::size_t at = 0; at < line.size();) {
    const std::size_t end = std::min(line.find(' ', at), line.size());
    if (end > at) fields.push_back(line.substr(at, end - at));
    at = end + 1;
  }
  return fields;
}

// Whole-token parse through from_chars, which refuses a "-1" for an
// unsigned field instead of wrapping it.
template <typename T, typename... Base>
bool ParseNumber(std::string_view token, T* out, Base... base) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out, base...);
  return ec == std::errc() && ptr == end;
}

// Parses the v3 histogram line. The bin count must match the fields
// actually present before any count is stored, and the baseline must be
// one drift detection can use: a known hardness kind, a finite range and
// a nonzero total.
bool ParseHistogramLine(std::string_view line, HardnessHistogram* out) {
  const std::vector<std::string_view> fields = SplitFields(line);
  std::size_t num_bins = 0;
  if (fields.size() < 2 || fields[0] != "hardness_histogram" ||
      !ParseNumber(fields[1], &num_bins)) {
    return false;
  }
  if (num_bins == 0) return fields.size() == 2;  // no histogram
  if (fields.size() < 5 || fields.size() - 5 != num_bins) return false;
  HardnessHistogram histogram;
  histogram.kind = std::string(fields[2]);
  HardnessKind kind{};
  if (!HardnessKindFromName(histogram.kind, &kind) ||
      !ParseNumber(fields[3], &histogram.min) ||
      !ParseNumber(fields[4], &histogram.max) ||
      !std::isfinite(histogram.min) || !std::isfinite(histogram.max)) {
    return false;
  }
  histogram.counts.resize(num_bins);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < num_bins; ++b) {
    if (!ParseNumber(fields[5 + b], &histogram.counts[b]) ||
        __builtin_add_overflow(total, histogram.counts[b], &total)) {
      return false;
    }
  }
  if (total == 0) return false;
  *out = std::move(histogram);
  return true;
}

void SaveEnsembleMembers(const VotingEnsemble& members, std::ostream& os) {
  os << "members " << members.size() << "\n";
  for (std::size_t i = 0; i < members.size(); ++i) {
    SaveClassifier(members.member(i), os);
  }
}

ModelBundle Unwrap(DecodedBundle decoded) {
  SPE_CHECK(decoded.ok()) << decoded.message;
  return std::move(decoded.bundle);
}

// Reads the whole artifact in one pass. A missing file throws
// TransientIoError (a mount blip heals; the artifact is
// rename(2)-published, so a file that exists is never torn), as does
// the artifact_read_fail_rate fault point; model_io_fail_rate keeps its
// historical abort, so server startup failure paths stay testable.
std::string ReadArtifactFile(const std::string& path) {
  if (Faults().ShouldFailArtifactRead()) {
    throw TransientIoError(
        "injected fault: transient artifact read failed for " + path,
        /*injected=*/true);
  }
  SPE_CHECK(!Faults().ShouldFailModelIo())
      << "injected fault: model artifact read failed for " << path;
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw TransientIoError("cannot open " + path);
  std::ostringstream bytes;
  bytes << is.rdbuf();
  return std::move(bytes).str();
}

}  // namespace

VotingEnsembleModel::VotingEnsembleModel(VotingEnsemble members)
    : members_(std::move(members)) {
  SPE_CHECK(!members_.empty());
}

void VotingEnsembleModel::Fit(const DatasetView& /*train*/) {
  SPE_CHECK(false) << "VotingEnsembleModel is an inference-only artifact; "
                      "retrain with the original ensemble trainer";
}

double VotingEnsembleModel::PredictRow(std::span<const double> x) const {
  return members_.PredictRow(x);
}

std::vector<double> VotingEnsembleModel::PredictProba(const DatasetView& data) const {
  return members_.PredictProba(data);
}

std::vector<double> VotingEnsembleModel::PredictProbaPrefix(
    const DatasetView& data, std::size_t k) const {
  return members_.PredictProbaPrefix(data, k);
}

void VotingEnsembleModel::AccumulateProbaInto(const DatasetView& data,
                                              std::span<double> acc) const {
  // PredictProba averages the inner ensemble, so the fused default
  // (PredictRow streaming) would change the bits; go through the batch
  // path instead.
  AccumulateViaPredictProba(data, acc);
}

bool VotingEnsembleModel::LowerToFlat(kernels::FlatProgram& program,
                                      kernels::MemberOp& op) const {
  return kernels::FlatForest::LowerEnsemble(members_, program, op);
}

const kernels::FlatForest* VotingEnsembleModel::flat_kernel() const {
  return members_.flat_kernel();
}

std::unique_ptr<Classifier> VotingEnsembleModel::Clone() const {
  SPE_CHECK(false) << "VotingEnsembleModel cannot be cloned untrained";
  return nullptr;  // unreachable
}

void SaveClassifier(const Classifier& model, std::ostream& os) {
  os << kMagic << " " << kFormatVersion << " ";
  if (const auto* tree = dynamic_cast<const DecisionTree*>(&model)) {
    os << "DecisionTree\n";
    tree->SaveModel(os);
    return;
  }
  if (const auto* gbdt = dynamic_cast<const Gbdt*>(&model)) {
    os << "Gbdt\n";
    gbdt->SaveModel(os);
    return;
  }
  if (const auto* lr = dynamic_cast<const LogisticRegression*>(&model)) {
    os << "LogisticRegression\n";
    lr->SaveModel(os);
    return;
  }
  if (const auto* boost = dynamic_cast<const AdaBoost*>(&model)) {
    SPE_CHECK_GT(boost->NumStages(), 0u) << "cannot save an unfitted booster";
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "AdaBoost\n";
    os << "learning_rate " << boost->learning_rate() << "\n";
    os << "stages " << boost->NumStages() << "\n";
    for (std::size_t i = 0; i < boost->NumStages(); ++i) {
      SaveClassifier(boost->stage(i), os);
    }
    return;
  }

  // Probability-averaging ensembles all persist as their member list.
  const VotingEnsemble* members = nullptr;
  if (const auto* m = dynamic_cast<const SelfPacedEnsemble*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const UnderBagging*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const BalanceCascade*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const Bagging*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const RandomForest*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const SmoteBagging*>(&model)) {
    members = &m->members();
  } else if (const auto* m = dynamic_cast<const VotingEnsembleModel*>(&model)) {
    members = &m->members();
  }
  SPE_CHECK(members != nullptr)
      << model.Name() << " does not support persistence";
  SPE_CHECK(!members->empty()) << "cannot save an unfitted ensemble";
  os << "VotingEnsemble\n";
  SaveEnsembleMembers(*members, os);
}

namespace {

// Restores one "spe-model VERSION TAG ..." model; `depth` counts the
// ensembles and boosters it is nested in.
std::unique_ptr<Classifier> DecodeNested(std::istream& is,
                                         std::size_t num_features,
                                         int depth) {
  std::string magic;
  int version = 0;
  std::string tag;
  is >> magic >> version >> tag;
  if (is.fail() || magic != kMagic || version != kFormatVersion) {
    throw ModelFormatError("not an spe model stream (spe-model 1)");
  }
  if (depth > kMaxNesting) throw ModelFormatError("model nested too deep");

  if (tag == "DecisionTree") {
    return std::make_unique<DecisionTree>(
        DecisionTree::LoadModel(is, num_features));
  }
  if (tag == "Gbdt") {
    return std::make_unique<Gbdt>(Gbdt::LoadModel(is, num_features));
  }
  if (tag == "LogisticRegression") {
    return std::make_unique<LogisticRegression>(
        LogisticRegression::LoadModel(is, num_features));
  }
  // A nested model is at least its "spe-model 1 TAG" line.
  constexpr std::size_t kMinModelBytes = 14;
  if (tag == "AdaBoost") {
    std::string keyword;
    AdaBoostConfig config;
    is >> keyword >> config.learning_rate;
    model_format::Require(!is.fail() && keyword == "learning_rate",
                          "AdaBoost");
    const std::size_t stage_count =
        model_format::ReadCount(is, "stages", kMinModelBytes);
    config.n_estimators = stage_count;
    std::vector<std::unique_ptr<Classifier>> stages;
    stages.reserve(stage_count);
    for (std::size_t i = 0; i < stage_count; ++i) {
      stages.push_back(DecodeNested(is, num_features, depth + 1));
    }
    return AdaBoost::FromTrainedStages(config, std::move(stages));
  }
  if (tag == "VotingEnsemble") {
    const std::size_t count =
        model_format::ReadCount(is, "members", kMinModelBytes);
    VotingEnsemble members;
    for (std::size_t i = 0; i < count; ++i) {
      members.Add(DecodeNested(is, num_features, depth + 1));
    }
    return std::make_unique<VotingEnsembleModel>(std::move(members));
  }
  throw ModelFormatError("unknown model tag: " + tag);
}

}  // namespace

std::unique_ptr<Classifier> DecodeClassifier(std::istream& is,
                                             std::size_t num_features) {
  return DecodeNested(is, num_features, 0);
}

std::unique_ptr<Classifier> LoadClassifier(std::istream& is) {
  try {
    return DecodeClassifier(is);
  } catch (const ModelFormatError& error) {
    SPE_CHECK(false) << error.what();
    return nullptr;  // unreachable
  }
}

void SaveModelBundle(const Classifier& model, std::size_t num_features,
                     std::ostream& os, const HardnessHistogram* histogram) {
  SPE_CHECK_GT(num_features, 0u);
  if (histogram == nullptr) {
    if (const auto* profiled = dynamic_cast<const HardnessProfiled*>(&model)) {
      histogram = profiled->training_hardness();
    }
  }
  // Serialize the model first so the header can promise the exact
  // payload size and checksum the loader will verify.
  std::ostringstream payload_stream;
  SaveClassifier(model, payload_stream);
  const std::string payload = payload_stream.str();
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", Crc32(payload));
  os << kBundleMagic << " " << kBundleVersion << " num_features "
     << num_features << " payload_bytes " << payload.size() << " crc32 "
     << crc_hex << "\n";
  WriteHistogramLine(histogram, os);
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

void SaveModelBundleToFile(const Classifier& model, std::size_t num_features,
                           const std::string& path) {
  // Crash safety: write the whole bundle to a sibling tmp file, then
  // rename(2) it over `path`. rename on the same filesystem is atomic,
  // so a reader of `path` only ever sees the complete old artifact or
  // the complete new one — never a torn half-write.
  // Transient fault point: a recoverable write failure (disk full, EIO)
  // before any side effect. Thrown, not aborted, so callers can retry
  // under spe/common/retry — unlike the model_io_fail_rate point below,
  // which keeps its historical abort semantics.
  if (Faults().ShouldFailArtifactWrite()) {
    throw TransientIoError(
        "injected fault: transient artifact write failed for " + path,
        /*injected=*/true);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    SPE_CHECK(os.good()) << "cannot write " << tmp;
    SaveModelBundle(model, num_features, os);
    os.flush();
    SPE_CHECK(os.good()) << "write failed: " << tmp;
  }
  // Fault point: an injected failure here models a crash mid-save. The
  // tmp file may be left behind (harmless; overwritten next save), but
  // `path` keeps its previous, intact content.
  SPE_CHECK(!Faults().ShouldFailModelIo())
      << "injected fault: model artifact write failed before publishing "
      << path;
  SPE_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0)
      << "cannot rename " << tmp << " over " << path;
}

DecodedBundle DecodeModelBundle(std::string bytes) {
  const auto corrupt = [](std::string message) {
    return DecodedBundle{{}, ArtifactError::kCorrupt, std::move(message)};
  };
  ModelBundle bundle;
  const std::size_t eol = bytes.find('\n');
  const std::vector<std::string_view> head =
      SplitFields(std::string_view(bytes).substr(0, eol));
  if (head.empty() || head[0] != kBundleMagic) {
    return corrupt(!head.empty() && head[0] == kMagic
                       ? "bare spe-model stream has no checksum header; "
                         "only spe-bundle v2/v3 artifacts load"
                       : "not an spe model bundle");
  }
  if (head.size() < 2 || !ParseNumber(head[1], &bundle.format_version) ||
      (bundle.format_version != 2 &&
       bundle.format_version != kBundleVersion)) {
    return corrupt("unsupported bundle version; only checksummed v2/v3 "
                   "bundles load");
  }
  // "spe-bundle V num_features N payload_bytes B crc32 HHHHHHHH"
  std::uint32_t expected_crc = 0;
  if (eol == std::string::npos || head.size() != 8 ||
      head[2] != "num_features" || head[4] != "payload_bytes" ||
      head[6] != "crc32" || head[7].size() != 8 ||
      !ParseNumber(head[3], &bundle.num_features) ||
      !ParseNumber(head[5], &bundle.payload_bytes) ||
      !ParseNumber(head[7], &expected_crc, 16)) {
    return corrupt("malformed bundle header");
  }
  bundle.crc32_hex = std::string(head[7]);
  if (bundle.num_features == 0 || bundle.num_features > kMaxNumFeatures) {
    return corrupt("bundle header num_features " +
                   std::to_string(bundle.num_features) + " outside [1, 2^24]");
  }
  std::size_t payload_start = eol + 1;
  if (bundle.format_version >= 3) {
    const std::size_t eol2 = bytes.find('\n', payload_start);
    if (eol2 == std::string::npos ||
        !ParseHistogramLine(std::string_view(bytes).substr(
                                payload_start, eol2 - payload_start),
                            &bundle.hardness_histogram)) {
      return corrupt("malformed bundle header: bad hardness_histogram line");
    }
    payload_start = eol2 + 1;
  }

  // Verify before parsing a single payload byte: a short file is
  // truncation, a checksum mismatch is corruption, and both are named as
  // such rather than as a downstream parse confusion.
  const std::size_t present = bytes.size() - payload_start;
  if (bundle.payload_bytes > present) {
    return corrupt("model artifact truncated: header promises " +
                   std::to_string(bundle.payload_bytes) +
                   " payload bytes but only " + std::to_string(present) +
                   " are present");
  }
  const std::uint32_t actual_crc = Crc32(
      std::string_view(bytes).substr(payload_start, bundle.payload_bytes));
  if (actual_crc != expected_crc) {
    char actual_hex[16];
    std::snprintf(actual_hex, sizeof(actual_hex), "%08x", actual_crc);
    return corrupt(std::string("model artifact corrupted: payload crc32 ") +
                   actual_hex + " does not match header crc32 " +
                   bundle.crc32_hex);
  }

  // Decode the payload in place (the stream takes over the buffer); the
  // model must use up the whole payload.
  bytes.resize(payload_start + bundle.payload_bytes);
  std::istringstream payload(std::move(bytes));
  payload.seekg(static_cast<std::streamoff>(payload_start));
  try {
    bundle.model = DecodeClassifier(payload, bundle.num_features);
    payload >> std::ws;
    model_format::Require(payload.peek() == EOF, "payload: bytes past model");
  } catch (const ModelFormatError& error) {
    return corrupt(std::string("model artifact malformed: ") + error.what());
  }
  if (!bundle.hardness_histogram.empty()) {
    if (auto* voting = dynamic_cast<VotingEnsembleModel*>(bundle.model.get())) {
      voting->set_training_hardness(bundle.hardness_histogram);
    }
  }
  // Compile-on-load: ActiveKernel triggers the lazy flat-inference
  // compile, so a serving process pays it at startup rather than on the
  // first scored batch. Models that cannot lower (non-tree members)
  // simply stay on the reference path.
  (void)kernels::ActiveKernel(*bundle.model);
  return {std::move(bundle), ArtifactError::kNone, {}};
}

DecodedBundle DecodeModelBundleFile(const std::string& path,
                                    const RetryPolicy& retry) {
  std::string bytes;
  try {
    bytes = RetryWithBackoff(retry, "artifact read " + path,
                             [&] { return ReadArtifactFile(path); });
  } catch (const TransientIoError& error) {
    return {{},
            error.injected() ? ArtifactError::kFault : ArtifactError::kIo,
            error.what()};
  }
  return DecodeModelBundle(std::move(bytes));
}

ModelBundle LoadModelBundle(std::istream& is) {
  std::ostringstream bytes;
  bytes << is.rdbuf();
  return Unwrap(DecodeModelBundle(std::move(bytes).str()));
}

ModelBundle LoadModelBundleFromFile(const std::string& path) {
  return Unwrap(DecodeModelBundle(ReadArtifactFile(path)));
}

}  // namespace spe
