#ifndef SPE_IO_MODEL_IO_H_
#define SPE_IO_MODEL_IO_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>

#include "spe/classifiers/classifier.h"
#include "spe/common/exit_codes.h"
#include "spe/common/model_format.h"
#include "spe/common/retry.h"
#include "spe/core/hardness.h"
#include "spe/kernels/program.h"

namespace spe {

/// Inference-only classifier reconstructed from persisted ensemble
/// members: predicts the mean member probability (the combination rule
/// of SPE and every bagging-style method in this library). Fit / Clone
/// abort — retraining requires the original trainer, not the artifact.
/// Supports prefix scoring (PrefixVoter), so a served artifact keeps the
/// ensemble-truncation degradation knob of the live trainer.
class VotingEnsembleModel final : public Classifier,
                                  public PrefixVoter,
                                  public HardnessProfiled,
                                  public kernels::FlatCompilable,
                                  public kernels::FlatScorable {
 public:
  explicit VotingEnsembleModel(VotingEnsemble members);

  void Fit(const DatasetView& train) override;
  double PredictRow(std::span<const double> x) const override;
  std::vector<double> PredictProba(const DatasetView& data) const override;
  void AccumulateProbaInto(const DatasetView& data,
                           std::span<double> acc) const override;
  std::size_t NumPrefixMembers() const override { return members_.size(); }
  std::vector<double> PredictProbaPrefix(const DatasetView& data,
                                         std::size_t k) const override;
  std::unique_ptr<Classifier> Clone() const override;
  std::string Name() const override { return "VotingEnsemble"; }

  bool LowerToFlat(kernels::FlatProgram& program,
                   kernels::MemberOp& op) const override;
  const kernels::FlatForest* flat_kernel() const override;

  const VotingEnsemble& members() const { return members_; }

  /// HardnessProfiled: the training-time histogram restored from a v3
  /// bundle (LoadModelBundle installs it), nullptr otherwise. Keeping it
  /// on the model means re-saving a loaded artifact round-trips the
  /// histogram byte-identically.
  const HardnessHistogram* training_hardness() const override {
    return training_hardness_.empty() ? nullptr : &training_hardness_;
  }
  void set_training_hardness(HardnessHistogram histogram) {
    training_hardness_ = std::move(histogram);
  }

 private:
  VotingEnsemble members_;
  HardnessHistogram training_hardness_;
};

/// Persists a *fitted* classifier as a self-describing text stream (the
/// payload of a model bundle, below).
///
/// Supported:
///   - DecisionTree, Gbdt, LogisticRegression (full state);
///   - AdaBoost (stages serialized recursively);
///   - SelfPacedEnsemble, UnderBagging / EasyEnsemble, BalanceCascade,
///     Bagging, RandomForest, SmoteBagging and VotingEnsembleModel —
///     persisted as their member list; loading returns an inference-only
///     VotingEnsembleModel, because a trained probability-averaging
///     ensemble is exactly its members.
/// Aborts (CHECK) on unsupported types (e.g. KNN, whose "model" is the
/// training set itself) and on unfitted models.
void SaveClassifier(const Classifier& model, std::ostream& os);

/// Restores a classifier from a bare "spe-model" stream as written by
/// SaveClassifier — a bundle's payload or a checkpoint member blob, both
/// CRC-framed by their container. Throws ModelFormatError
/// (spe/common/model_format.h) on malformed input; when `num_features`
/// is nonzero, split features and LR weights must fit that width. The
/// returned object predicts identically to the saved one.
std::unique_ptr<Classifier> DecodeClassifier(std::istream& is,
                                             std::size_t num_features = 0);

/// Aborting form of DecodeClassifier, for callers with no way to refuse.
std::unique_ptr<Classifier> LoadClassifier(std::istream& is);

/// A model together with the input schema the serving layer needs to
/// validate incoming rows, plus the manifest fields the model registry
/// (spe/lifecycle/model_registry.h) records about the artifact it came
/// from. Classifiers do not record their feature count, so the trainer
/// (which knows the dataset width) supplies it at save time.
struct ModelBundle {
  std::unique_ptr<Classifier> model;
  std::size_t num_features = 0;
  /// The "spe-bundle" header version: 2 or 3.
  int format_version = 0;
  /// Payload size and checksum from the header, verified on load.
  std::size_t payload_bytes = 0;
  std::string crc32_hex;
  /// Training-time hardness histogram from a v3 header; empty otherwise.
  HardnessHistogram hardness_histogram;
};

/// Persists `model` prefixed with a schema-and-integrity header:
///
///   spe-bundle 3 num_features N payload_bytes B crc32 HHHHHHHH
///   hardness_histogram K [KIND MIN MAX C0 .. C(K-1)]
///   <payload>
///
/// The header records the payload size and its CRC-32, so loaders detect
/// truncation and bit rot instead of parsing garbage. Version 3 adds the
/// hardness_histogram line — the training-time hardness-bin distribution
/// that hot-reload drift detection compares live traffic against; K is 0
/// (and the bracketed fields absent) when the model carries none. The
/// histogram is taken from `histogram` when non-null, else from the
/// model's HardnessProfiled capability when it has one. MIN/MAX print
/// with 17 significant digits so the line round-trips byte-identically.
void SaveModelBundle(const Classifier& model, std::size_t num_features,
                     std::ostream& os,
                     const HardnessHistogram* histogram = nullptr);

/// File variant is crash-safe: the bundle is written to a temporary
/// file in the same directory and rename(2)d over `path`, so a crash or
/// injected fault mid-write never leaves a torn artifact at `path` —
/// either the old file survives intact or the new one is complete.
void SaveModelBundleToFile(const Classifier& model, std::size_t num_features,
                           const std::string& path);

/// Outcome of decoding an artifact: the bundle, or why it was refused.
struct DecodedBundle {
  ModelBundle bundle;  ///< model is null unless ok()
  ArtifactError error = ArtifactError::kNone;
  std::string message;  ///< human-readable reason when !ok()
  bool ok() const { return error == ArtifactError::kNone; }
};

/// The one artifact decoder; it never aborts on bad bytes. Parses the
/// header once, checking num_features, payload_bytes and the histogram
/// bin count against the bytes actually present before allocating
/// anything, verifies the payload CRC once, then decodes the payload
/// (DecodeClassifier) against the header's width. Only checksummed
/// bundles (v2, v3) load: a bare spe-model stream or a v1 bundle is
/// refused as kCorrupt. On success the model's flat kernel is compiled
/// and a v3 histogram is installed on a VotingEnsembleModel, so a
/// re-save round-trips byte for byte.
DecodedBundle DecodeModelBundle(std::string bytes);

/// Reads `path` once and decodes it. A missing or unreadable file and an
/// injected artifact_read_fail_rate fault are retried under `retry`;
/// when they outlive it the result is kIo or kFault. The
/// model_io_fail_rate fault point aborts, as it always has.
DecodedBundle DecodeModelBundleFile(const std::string& path,
                                    const RetryPolicy& retry = {});

/// Aborting wrappers over the decoder, for callers that cannot run on
/// without the model. The file variant reads once with no retry: a
/// missing file or an injected read fault throws TransientIoError (so
/// the caller may retry); a corrupt artifact aborts with the decoder's
/// message ("model artifact truncated: ...", "... corrupted: ...").
ModelBundle LoadModelBundle(std::istream& is);
ModelBundle LoadModelBundleFromFile(const std::string& path);

}  // namespace spe

#endif  // SPE_IO_MODEL_IO_H_
