#include "spe/core/self_paced_ensemble.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numbers>
#include <sstream>
#include <utility>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"
#include "spe/common/crc32.h"
#include "spe/common/fault.h"
#include "spe/common/parallel.h"
#include "spe/common/rng.h"
#include "spe/core/self_paced_sampler.h"
#include "spe/io/model_io.h"
#include "spe/kernels/flat_forest.h"
#include "spe/metrics/metrics.h"
#include "spe/obs/metrics.h"
#include "spe/obs/trace.h"

namespace spe {
namespace {

// Rows per worker for the element-wise hardness / probability-sum
// updates: memory-bound loops only pay for fan-out on large majorities.
constexpr std::size_t kUpdateGrain = 4096;

// A NaN probability would silently poison every later hardness update
// (prob_sum is cumulative), and the eventual "hardness must be
// non-negative" abort points nowhere near the culprit. Fail here, naming
// the member that produced it.
void CheckProbsAreNotNan(const std::vector<double>& probs,
                         std::size_t member_index) {
  for (std::size_t m = 0; m < probs.size(); ++m) {
    SPE_CHECK(!std::isnan(probs[m]))
        << "base learner member " << member_index
        << " produced NaN probability for majority row " << m;
  }
}

// One member's probabilities over `data`, into `out`. The member is
// scored through its own compiled program (FlatForest::CompileMember)
// when it lowers and the kernel is on, and through the reference
// PredictProba otherwise. A one-member program reduces as (0 + p) * 1,
// so both paths give the same bits (the kernel conformance contract).
void ScoreMember(const Classifier& member, const DatasetView& data,
                 std::vector<double>& out) {
  if (kernels::FlatKernelEnabled()) {
    if (const auto forest = kernels::FlatForest::CompileMember(member)) {
      out.resize(data.num_rows());
      forest->PredictPrefixInto(data, 1, out);
      return;
    }
  }
  out = member.PredictProba(data);
}

}  // namespace

SelfPacedEnsemble::SelfPacedEnsemble(const SelfPacedEnsembleConfig& config)
    : config_(config) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  SPE_CHECK_GT(config.num_bins, 0u);
  DecisionTreeConfig tree_config;
  tree_config.max_depth = 10;
  base_prototype_ = std::make_unique<DecisionTree>(tree_config);
}

SelfPacedEnsemble::SelfPacedEnsemble(const SelfPacedEnsembleConfig& config,
                                     std::unique_ptr<Classifier> base_prototype)
    : config_(config), base_prototype_(std::move(base_prototype)) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  SPE_CHECK_GT(config.num_bins, 0u);
  SPE_CHECK(base_prototype_ != nullptr);
}

double SelfPacedEnsemble::AlphaAt(AlphaSchedule schedule, std::size_t i,
                                  std::size_t n) {
  SPE_CHECK_GE(i, 1u);
  SPE_CHECK_LE(i, n);
  // Progress in [0, 1] across the self-paced iterations. Algorithm 1
  // writes alpha = tan(i*pi/2n), but the surrounding text (and the
  // authors' released implementation) require alpha = 0 at the first
  // iteration and alpha -> inf at the last, so the schedule is evaluated
  // on (i-1)/(n-1).
  const double progress =
      n <= 1 ? 1.0
             : static_cast<double>(i - 1) / static_cast<double>(n - 1);
  switch (schedule) {
    case AlphaSchedule::kTan:
      if (progress >= 1.0) return std::numeric_limits<double>::infinity();
      return std::tan(progress * std::numbers::pi / 2.0);
    case AlphaSchedule::kZero:
      return 0.0;
    case AlphaSchedule::kInfinity:
      return std::numeric_limits<double>::infinity();
    case AlphaSchedule::kLinear:
      return 10.0 * progress;
  }
  SPE_CHECK(false) << "unhandled schedule";
  return 0.0;
}

void SelfPacedEnsemble::Fit(const DatasetView& train) {
  // Spans read the steady clock only — never the Rng — and gauges are
  // pure reporting, so instrumentation cannot perturb the bit-identical
  // determinism contract (docs/performance.md).
  const obs::TraceSpan fit_span("spe.fit");
  train.CheckAlive();
  // View-relative class indices, turned parent-absolute in place below
  // (one majority-sized index vector, not two).
  std::vector<std::size_t> pos_abs = train.PositiveIndices();
  std::vector<std::size_t> neg_abs = train.NegativeIndices();
  SPE_CHECK(!pos_abs.empty()) << "SPE needs at least one minority sample";
  SPE_CHECK(!neg_abs.empty()) << "SPE needs at least one majority sample";

  ensemble_ = VotingEnsemble();
  training_hardness_ = HardnessHistogram();
  Rng rng(config_.seed);
  // The whole self-paced loop runs on index arithmetic: the minority
  // prefix and every per-iteration majority pick are parent-absolute
  // row indices stacked into views — no row is ever copied. Row-major
  // views have no parent matrix to index into; materialize those once.
  Dataset owned;
  DatasetView base = train;
  if (train.row_major()) {
    owned = train.Materialize();
    base = DatasetView(owned);
  }
  for (std::size_t& r : pos_abs) r = base.RowIndex(r);
  for (std::size_t& r : neg_abs) r = base.RowIndex(r);
  const DatasetView majority = base.WithIndices(neg_abs);
  const HardnessFn hardness_fn = config_.custom_hardness
                                     ? config_.custom_hardness
                                     : MakeHardness(config_.hardness);

  auto make_member = [&](std::size_t index) {
    std::unique_ptr<Classifier> member = base_prototype_->Clone();
    member->Reseed(config_.seed + 7919 * (index + 1));
    return member;
  };
  // Reusable balanced-subset index buffer: the minority indices survive
  // as a fixed prefix; every iteration truncates back to them and
  // appends the fresh majority pick. The members fit through a view
  // over this buffer, so the per-iteration subset costs zero feature
  // copies (it used to be the dominant allocation in this loop).
  std::vector<std::size_t> subset_abs = pos_abs;
  subset_abs.reserve(2 * pos_abs.size());  // picks never exceed |P|
  auto rebuild_subset = [&](const std::vector<std::size_t>& majority_pick) {
    subset_abs.resize(pos_abs.size());
    for (std::size_t i : majority_pick) subset_abs.push_back(neg_abs[i]);
    return base.WithIndices(subset_abs);
  };

  const std::size_t n = config_.n_estimators;
  const bool checkpointing = !checkpoint_.directory.empty();
  std::string checkpoint_path;
  std::uint64_t config_fp = 0;
  std::uint64_t data_fp = 0;
  std::unique_ptr<checkpoint::AsyncCheckpointPublisher> ckpt_writer;
  if (checkpointing) {
    SPE_CHECK_GT(checkpoint_.every, 0u) << "checkpoint interval must be >= 1";
    checkpoint_path = checkpoint::CheckpointPath(checkpoint_.directory);
    config_fp = ConfigFingerprint();
    data_fp = checkpoint::DatasetFingerprint(train);
    if (validation_tracker_ != nullptr) {
      data_fp =
          checkpoint::HashCombine(data_fp, validation_tracker_->data_fingerprint);
    }
    ckpt_writer =
        std::make_unique<checkpoint::AsyncCheckpointPublisher>(checkpoint_path);
  }

  // Running sum of member probabilities over the majority set: F_i is the
  // average of f_0 .. f_{i-1} (Algorithm 1 line 4). Member scoring chunks
  // the majority rows across threads; the element-wise loops below do the
  // same, and both are bit-identical for any thread count because each
  // element is touched by exactly one fixed computation.
  std::vector<double> prob_sum;
  std::size_t prob_count = 0;
  std::size_t start_iteration = 1;
  // The same sum over exactly the members that vote, in ensemble order:
  // the final vote's numerator, from which the drift baseline is frozen
  // without scoring the majority set again. It starts at 0.0 and adds
  // each voter, the reduction VotingEnsemble::PredictProbaPrefix runs.
  // With include_bootstrap_model every contributor to prob_sum votes, so
  // prob_sum is that sum: its first term is assigned rather than added
  // to 0.0, which can differ only in the sign of a zero, and the
  // hardness functions map both zeros alike.
  std::vector<double> excluded_f0_votes;
  std::vector<double>& vote_sum =
      config_.include_bootstrap_model ? prob_sum : excluded_f0_votes;
  if (!config_.include_bootstrap_model) {
    excluded_f0_votes.assign(majority.num_rows(), 0.0);
  }
  // Folds one voting member's probabilities into both sums.
  const auto fold_votes = [&](const std::vector<double>& probs) {
    const bool separate = &vote_sum != &prob_sum;
    ParallelForGrain(0, prob_sum.size(), kUpdateGrain, [&](std::size_t m) {
      prob_sum[m] += probs[m];
      if (separate) vote_sum[m] += probs[m];
    });
  };
  std::vector<double> member_probs;  // reused by every scoring pass

  // Pre-serialized member bytes in vote order. Members are immutable
  // once trained, so each is serialized exactly once and the bytes are
  // reused by every checkpoint this run writes — without this cache a
  // run checkpointing every iteration re-walks the whole ensemble per
  // iteration, O(n^2) member serializations overall.
  std::vector<std::string> member_blobs;
  const auto append_member_blob = [&](const Classifier& member) {
    if (!checkpointing) return;
    std::ostringstream os;
    SaveClassifier(member, os);
    member_blobs.push_back(os.str());
  };
  // f0's bytes when it votes but is not a member (the default): the
  // checkpoint must carry them because resume replays f0's probabilities
  // to rebuild prob_sum, and f0 lives nowhere else. Empty whenever f0 is
  // members[0] or checkpointing is off.
  std::string bootstrap_blob;
  bool resumed = false;
  std::uint64_t resumed_manifest_bytes = 0;

  if (checkpointing && checkpoint_.resume) {
    checkpoint::LoadResult loaded =
        checkpoint::LoadTrainerStateFromFile(checkpoint_path);
    if (loaded.missing) {
      std::fprintf(stderr, "[spe] no checkpoint at %s; training from scratch\n",
                   checkpoint_path.c_str());
    } else {
      const std::string reason = ValidateLoadedState(loaded, config_fp, data_fp);
      SPE_CHECK(reason.empty())
          << "cannot resume from " << checkpoint_path << ": " << reason;
      ensemble_ = std::move(loaded.members);
      for (std::size_t m = 0; m < ensemble_.size(); ++m) {
        append_member_blob(ensemble_.member(m));
      }
      bootstrap_blob = std::move(loaded.core.bootstrap_blob);
      prob_count = loaded.core.prob_count;
      start_iteration = loaded.core.next_iteration;
      std::istringstream rng_in(loaded.core.rng_state);
      rng_in >> rng.engine();
      SPE_CHECK(!rng_in.fail())
          << "cannot resume from " << checkpoint_path << ": bad rng state";

      // Rebuild the training accumulators by replaying every voter in its
      // original order: assign f0's probabilities, then += each member's.
      // Per element this is the same serial chain of additions the
      // uninterrupted run performed, so the result is bit-identical — the
      // checkpoint stores no accumulator at all (TrainerStateCore docs).
      std::unique_ptr<Classifier> f0_replay;
      const Classifier* first = nullptr;
      std::size_t member_start = 0;
      if (config_.include_bootstrap_model) {
        first = &ensemble_.member(0);
        member_start = 1;
      } else {
        std::istringstream blob_in(bootstrap_blob);
        f0_replay = LoadClassifier(blob_in);
        first = f0_replay.get();
      }
      {
        const obs::TraceSpan span("spe.fit.resume_replay");
        ScoreMember(*first, majority, prob_sum);
        for (std::size_t m = member_start; m < ensemble_.size(); ++m) {
          ScoreMember(ensemble_.member(m), majority, member_probs);
          fold_votes(member_probs);
        }
      }

      if (validation_tracker_ != nullptr) {
        ValidationTracker& tracker = *validation_tracker_;
        tracker.best_auc = loaded.core.best_auc;
        tracker.best_size = loaded.core.best_size;
        // Same replay for the early-stop accumulator: re-score the member
        // prefix the original run had folded in, in order, with the exact
        // serial inner loop FitWithValidation's callback uses.
        SPE_CHECK(tracker.data != nullptr);
        SPE_CHECK_LE(loaded.core.scored_members, ensemble_.size());
        for (tracker.scored_members = 0;
             tracker.scored_members < loaded.core.scored_members;
             ++tracker.scored_members) {
          ScoreMember(ensemble_.member(tracker.scored_members), *tracker.data,
                      member_probs);
          for (std::size_t r = 0; r < tracker.prob_sum.size(); ++r) {
            tracker.prob_sum[r] += member_probs[r];
          }
        }
      }
      resumed = true;
      resumed_manifest_bytes = loaded.manifest_bytes;
      std::fprintf(stderr, "[spe] resumed from %s at iteration %zu/%zu\n",
                   checkpoint_path.c_str(), start_iteration, n);
    }
  }

  if (prob_count == 0) {
    // Line 2: bootstrap model f0 on a random balanced subset. It seeds the
    // hardness estimates; whether it votes in the final ensemble is the
    // include_bootstrap_model ablation. A resumed run skips all of this —
    // the replay above already folded f0's probabilities into prob_sum.
    std::vector<std::size_t> initial_pick(neg_abs.size());
    if (neg_abs.size() > pos_abs.size()) {
      initial_pick =
          rng.SampleWithoutReplacement(neg_abs.size(), pos_abs.size());
    } else {
      for (std::size_t i = 0; i < neg_abs.size(); ++i) initial_pick[i] = i;
    }
    std::unique_ptr<Classifier> bootstrap = make_member(0);
    const DatasetView subset = rebuild_subset(initial_pick);
    {
      const obs::TraceSpan span("spe.fit.member_fit");
      bootstrap->Fit(subset);
    }
    {
      const obs::TraceSpan span("spe.fit.member_predict");
      ScoreMember(*bootstrap, majority, prob_sum);
    }
    CheckProbsAreNotNan(prob_sum, 0);
    prob_count = 1;
    if (config_.include_bootstrap_model) {
      ensemble_.Add(std::move(bootstrap));
      append_member_blob(ensemble_.member(ensemble_.size() - 1));
    } else if (checkpointing) {
      std::ostringstream os;
      SaveClassifier(*bootstrap, os);
      bootstrap_blob = os.str();
    }
  }

  // Everything trained so far (f0 and, on resume, the restored members)
  // seeds the publisher's append-only member log; from here on each
  // iteration stages just its own member's bytes.
  if (checkpointing) {
    ckpt_writer->BeginLog(bootstrap_blob, member_blobs, resumed,
                          resumed_manifest_bytes);
  }

  // The hardness is dead once the iteration's pick is drawn, so the new
  // member's probabilities reuse its buffer: one majority-sized vector
  // fewer stays live while the members fit.
  std::vector<double>& hardness = member_probs;
  hardness.resize(majority.num_rows());
  const bool instrumented = obs::Enabled();
  std::vector<std::size_t> bin_population;
  for (std::size_t i = start_iteration; i <= n; ++i) {
    // Lines 4-6: hardness of each majority sample w.r.t. the ensemble.
    {
      const obs::TraceSpan span("spe.fit.hardness");
      ParallelForGrain(0, majority.num_rows(), kUpdateGrain,
                       [&](std::size_t m) {
                         hardness[m] = hardness_fn(
                             prob_sum[m] / static_cast<double>(prob_count), 0);
                       });
    }
    // Lines 7-9: self-paced under-sampling with alpha_i.
    const double alpha = AlphaAt(config_.schedule, i, n);
    std::vector<std::size_t> pick;
    {
      const obs::TraceSpan span("spe.fit.under_sample");
      pick = SelfPacedUnderSample(hardness, alpha, config_.num_bins,
                                  pos_abs.size(), rng,
                                  instrumented ? &bin_population : nullptr);
    }
    if (instrumented) {
      auto& registry = obs::MetricsRegistry::Global();
      registry.GetCounter("spe_fit_iterations_total").Add(1);
      registry.GetGauge("spe_fit_alpha").Set(alpha);
      for (std::size_t b = 0; b < bin_population.size(); ++b) {
        registry
            .GetGauge("spe_fit_bin_population{bin=\"" + std::to_string(b) +
                      "\"}")
            .Set(static_cast<double>(bin_population[b]));
      }
    }

    // Line 10: train f_i on the balanced subset.
    std::unique_ptr<Classifier> member = make_member(i);
    const DatasetView subset = rebuild_subset(pick);
    {
      const obs::TraceSpan span("spe.fit.member_fit");
      member->Fit(subset);
    }

    {
      const obs::TraceSpan span("spe.fit.member_predict");
      ScoreMember(*member, majority, member_probs);
    }
    CheckProbsAreNotNan(member_probs, i);
    fold_votes(member_probs);
    ++prob_count;

    ensemble_.Add(std::move(member));
    append_member_blob(ensemble_.member(ensemble_.size() - 1));
    if (checkpointing) ckpt_writer->AppendMember(member_blobs.back());
    if (callback_) {
      callback_(IterationInfo{i, ensemble_, subset});
    }

    // Checkpoint after the callback so FitWithValidation's early-stop
    // state for this iteration is already folded in. The final
    // iteration always checkpoints regardless of `every`, covering a
    // crash between the last member and the artifact publish.
    if (checkpointing && (i % checkpoint_.every == 0 || i == n)) {
      WriteCheckpoint(*ckpt_writer, config_fp, data_fp, i + 1, prob_count,
                      rng);
    }
    // Chaos crash point: SIGKILL here models preemption right after the
    // iteration's state was (or was not) persisted. The publish is
    // asynchronous, so an armed kill must first wait for the writer —
    // the contract is "crash after iteration N's checkpoint is durable".
    if (ckpt_writer != nullptr && Faults().enabled() &&
        Faults().config().crash_at_iteration == i) {
      ckpt_writer->Drain();
    }
    Faults().MaybeCrashAtIteration(i);
    if (checkpoint_.halt_after_iteration == i) {  // simulated crash
      if (ckpt_writer != nullptr) ckpt_writer->Drain();
      return;
    }
  }

  // The final checkpoint (i == n) publishes concurrently with the
  // baseline below; the drain both surfaces any publish error and
  // guarantees the file is in place before Fit returns (spe_cli retires
  // it only after the model artifact lands).
  if (!config_.custom_hardness) {
    const obs::TraceSpan span("spe.fit.hardness_baseline");
    FreezeHardnessBaseline(vote_sum);
  }
  if (ckpt_writer != nullptr) ckpt_writer->Drain();
}

std::uint64_t SelfPacedEnsemble::ConfigFingerprint() const {
  std::uint64_t h = checkpoint::HashCombine(0x7370652d666974ull,  // "spe-fit"
                                            config_.n_estimators);
  h = checkpoint::HashCombine(h, config_.num_bins);
  h = checkpoint::HashCombine(h, static_cast<std::uint64_t>(config_.hardness));
  h = checkpoint::HashCombine(h, static_cast<std::uint64_t>(config_.schedule));
  h = checkpoint::HashCombine(h, config_.include_bootstrap_model ? 1u : 0u);
  h = checkpoint::HashCombine(h, config_.seed);
  // A custom hardness closure has no stable identity; its presence bit
  // at least refuses resumes across custom/named hardness swaps.
  h = checkpoint::HashCombine(h, config_.custom_hardness ? 1u : 0u);
  return checkpoint::HashCombine(h, Crc32(base_prototype_->Name()));
}

std::string SelfPacedEnsemble::ValidateLoadedState(
    const checkpoint::LoadResult& loaded, std::uint64_t config_fp,
    std::uint64_t data_fp) const {
  if (!loaded.error.empty()) return loaded.error;
  const checkpoint::TrainerStateCore& core = loaded.core;
  if (core.config_fingerprint != config_fp) {
    return "checkpoint was written by a different trainer configuration";
  }
  if (core.data_fingerprint != data_fp) {
    return "checkpoint was written against different training data";
  }
  if (core.has_validation != (validation_tracker_ != nullptr)) {
    return core.has_validation
               ? "checkpoint carries validation state but plain Fit was called"
               : "checkpoint has no validation state but FitWithValidation "
                 "was called";
  }
  if (core.next_iteration < 1 ||
      core.next_iteration > config_.n_estimators + 1) {
    return "checkpoint iteration out of range";
  }
  const std::size_t expected_members =
      core.next_iteration - 1 + (config_.include_bootstrap_model ? 1 : 0);
  if (loaded.members.size() != expected_members) {
    return "checkpoint member count does not match its iteration";
  }
  // prob_count counts f0 plus one vote per completed iteration.
  if (core.prob_count != core.next_iteration) {
    return "checkpoint probability accumulator is inconsistent";
  }
  // Resume replays f0 to rebuild the accumulator, so its bytes must be
  // present exactly when f0 is not members[0].
  if (config_.include_bootstrap_model != core.bootstrap_blob.empty()) {
    return core.bootstrap_blob.empty()
               ? "checkpoint is missing the bootstrap model"
               : "checkpoint carries a bootstrap model it should not";
  }
  if (core.scored_members > loaded.members.size()) {
    return "checkpoint validation state scored more members than exist";
  }
  return "";
}

std::string SelfPacedEnsemble::CheckResumable(const DatasetView& train) const {
  if (checkpoint_.directory.empty()) return "";
  const checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(
      checkpoint::CheckpointPath(checkpoint_.directory));
  if (loaded.missing) return "";
  std::uint64_t data_fp = checkpoint::DatasetFingerprint(train);
  if (validation_tracker_ != nullptr) {
    data_fp =
        checkpoint::HashCombine(data_fp, validation_tracker_->data_fingerprint);
  }
  return ValidateLoadedState(loaded, ConfigFingerprint(), data_fp);
}

void SelfPacedEnsemble::WriteCheckpoint(
    checkpoint::AsyncCheckpointPublisher& publisher, std::uint64_t config_fp,
    std::uint64_t data_fp, std::size_t next_iteration,
    std::size_t prob_count, Rng& rng) {
  const obs::TraceSpan span("spe.fit.checkpoint");
  checkpoint::TrainerStateCore core;
  core.config_fingerprint = config_fp;
  core.data_fingerprint = data_fp;
  core.n_estimators = config_.n_estimators;
  core.include_bootstrap = config_.include_bootstrap_model;
  core.next_iteration = next_iteration;
  core.prob_count = prob_count;
  {
    std::ostringstream os;
    os << rng.engine();
    core.rng_state = os.str();
  }
  if (validation_tracker_ != nullptr) {
    core.has_validation = true;
    core.best_auc = validation_tracker_->best_auc;
    core.best_size = validation_tracker_->best_size;
    core.scored_members = validation_tracker_->scored_members;
  }
  publisher.Publish(core);
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("spe_fit_checkpoints_total")
        .Add(1);
  }
}

void SelfPacedEnsemble::RecordHardnessBaseline(const DatasetView& majority) {
  // Skipped for custom hardness closures: the artifact could not name
  // them for the live side to rebuild (training_hardness() docs).
  training_hardness_ = HardnessHistogram();
  if (config_.custom_hardness || ensemble_.size() == 0) return;
  const obs::TraceSpan span("spe.fit.hardness_baseline");
  std::vector<double> vote_sum(majority.num_rows(), 0.0);
  std::vector<double> probs;
  for (std::size_t m = 0; m < ensemble_.size(); ++m) {
    ScoreMember(ensemble_.member(m), majority, probs);
    ParallelForGrain(0, vote_sum.size(), kUpdateGrain,
                     [&](std::size_t r) { vote_sum[r] += probs[r]; });
  }
  FreezeHardnessBaseline(vote_sum);
}

void SelfPacedEnsemble::FreezeHardnessBaseline(std::vector<double>& vote_sum) {
  // The drift baseline is the hardness of the majority set under the
  // ensemble exactly as it will serve: the vote over the members that
  // vote, not the self-paced loop's prob_sum, which always includes the
  // bootstrap model f0 even when include_bootstrap_model leaves f0 out
  // of the final vote (a baseline binned over a different member set
  // than the serving vote alerts on in-distribution traffic). One
  // multiply by 1/n turns the sum into VotingEnsemble::PredictProba's
  // bits. Pure reporting — no Rng draw, so the determinism contract is
  // untouched. vote_sum is overwritten with the per-row hardness.
  SPE_CHECK_GT(ensemble_.size(), 0u);
  const double inv = 1.0 / static_cast<double>(ensemble_.size());
  const HardnessFn hardness_fn = MakeHardness(config_.hardness);
  ParallelForGrain(0, vote_sum.size(), kUpdateGrain, [&](std::size_t m) {
    vote_sum[m] = hardness_fn(vote_sum[m] * inv, 0);
  });
  const std::vector<double>& hardness = vote_sum;
  const HardnessBins bins = ComputeHardnessBins(hardness, config_.num_bins);
  training_hardness_.kind = HardnessName(config_.hardness);
  double min_h = hardness[0];
  double max_h = hardness[0];
  for (const double h : hardness) {
    min_h = std::min(min_h, h);
    max_h = std::max(max_h, h);
  }
  training_hardness_.min = min_h;
  training_hardness_.max = max_h;
  training_hardness_.counts.assign(bins.population.begin(),
                                   bins.population.end());
}

std::size_t SelfPacedEnsemble::FitWithValidation(const DatasetView& train,
                                                 const DatasetView& validation) {
  train.CheckAlive();
  validation.CheckAlive();
  SPE_CHECK_GT(validation.CountPositives(), 0u)
      << "validation set needs positives to score AUCPRC";
  const std::vector<int> validation_labels = validation.LabelsVector();

  // Track the running validation score incrementally: each new member
  // contributes its probabilities once. Lives in a ValidationTracker so
  // Fit can checkpoint it alongside the training state and restore it
  // on resume — without it, a resumed early-stop run would forget which
  // prefix had already won.
  ValidationTracker tracker;
  tracker.data = &validation;
  tracker.prob_sum.assign(validation.num_rows(), 0.0);
  if (!checkpoint_.directory.empty()) {
    tracker.data_fingerprint = checkpoint::DatasetFingerprint(validation);
  }
  const IterationCallback user_callback = callback_;
  std::vector<double> member_probs;  // reused by every member scored

  // If a base learner throws out of Fit, callback_ must not keep the
  // wrapper below — its captured locals die with this frame and the next
  // Fit would invoke a dangling closure (and validation_tracker_ would
  // dangle the same way). Scope guard restores both on every exit path.
  struct CallbackGuard {
    SelfPacedEnsemble* self;
    const IterationCallback* user;
    ~CallbackGuard() {
      self->callback_ = *user;
      self->validation_tracker_ = nullptr;
    }
  } guard{this, &user_callback};
  validation_tracker_ = &tracker;

  callback_ = [&](const IterationInfo& info) {
    // Fold in every member not yet scored, in ensemble order. With
    // include_bootstrap_model the first callback sees two new members
    // (f0 joined before f1's callback fired); walking the gap is what
    // keeps the bootstrap's probabilities from being skipped — the old
    // newest-member-only update silently disabled truncation for that
    // ablation.
    for (; tracker.scored_members < info.ensemble.size();
         ++tracker.scored_members) {
      ScoreMember(info.ensemble.member(tracker.scored_members), validation,
                  member_probs);
      for (std::size_t i = 0; i < tracker.prob_sum.size(); ++i) {
        tracker.prob_sum[i] += member_probs[i];
      }
    }
    std::vector<double> average(tracker.prob_sum);
    const double inv = 1.0 / static_cast<double>(info.ensemble.size());
    for (double& v : average) v *= inv;
    const double auc = AucPrc(validation_labels, average);
    if (auc > tracker.best_auc) {
      tracker.best_auc = auc;
      tracker.best_size = info.ensemble.size();
    }
    if (user_callback) user_callback(info);
  };
  Fit(train);

  SPE_CHECK_GT(tracker.best_size, 0u);
  const std::size_t best_size = tracker.best_size;
  ensemble_.Truncate(best_size);
  // The baseline Fit recorded covered the full ensemble; the truncated
  // prefix is what serves, so re-freeze it against that. Row-major
  // views are materialized first — they cannot stack an index view.
  Dataset owned;
  DatasetView base = train;
  if (train.row_major()) {
    owned = train.Materialize();
    base = DatasetView(owned);
  }
  std::vector<std::size_t> neg = base.NegativeIndices();
  for (auto& r : neg) r = base.RowIndex(r);
  RecordHardnessBaseline(base.WithIndices(neg));
  return best_size;
}

double SelfPacedEnsemble::PredictRow(std::span<const double> x) const {
  return ensemble_.PredictRow(x);
}

std::vector<double> SelfPacedEnsemble::PredictProba(const DatasetView& data) const {
  return ensemble_.PredictProba(data);
}

std::vector<double> SelfPacedEnsemble::PredictProbaPrefix(const DatasetView& data,
                                                          std::size_t k) const {
  return ensemble_.PredictProbaPrefix(data, k);
}

void SelfPacedEnsemble::AccumulateProbaInto(const DatasetView& data,
                                            std::span<double> acc) const {
  // PredictProba averages the inner ensemble, so the fused default
  // (PredictRow streaming) would change the bits; go through the batch
  // path instead.
  AccumulateViaPredictProba(data, acc);
}

bool SelfPacedEnsemble::LowerToFlat(kernels::FlatProgram& program,
                                    kernels::MemberOp& op) const {
  return kernels::FlatForest::LowerEnsemble(ensemble_, program, op);
}

const kernels::FlatForest* SelfPacedEnsemble::flat_kernel() const {
  return ensemble_.flat_kernel();
}

std::unique_ptr<Classifier> SelfPacedEnsemble::Clone() const {
  return std::make_unique<SelfPacedEnsemble>(config_, base_prototype_->Clone());
}

std::string SelfPacedEnsemble::Name() const {
  std::ostringstream os;
  os << "SPE" << config_.n_estimators;
  return os.str();
}

}  // namespace spe
