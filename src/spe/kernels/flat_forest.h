#ifndef SPE_KERNELS_FLAT_FOREST_H_
#define SPE_KERNELS_FLAT_FOREST_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>

#include "spe/kernels/program.h"

namespace spe {

class Classifier;
class DatasetView;
class VotingEnsemble;

namespace kernels {

/// Process-wide kernel switch. Defaults to on; the environment variable
/// SPE_FLAT_KERNEL=0|off|false disables it at startup (same grammar as
/// SPE_OBS), and benches flip it at runtime to measure the reference
/// path and the kernel in one process. When off, VotingEnsemble scores
/// with the reference member loop — results are bit-identical either
/// way, so this knob only changes speed. It is the master switch: with
/// the kernel off, the scoring-mode and SIMD knobs below are moot.
bool FlatKernelEnabled();
void SetFlatKernelEnabled(bool enabled);

/// Numeric representation the flat kernel scores with. Process-wide,
/// like the kernel switch: serving stamps the active mode into its
/// model-version labels at load, so it is set once at startup (env
/// SPE_KERNEL_MODE=f64|f32|binned or spe_serve --kernel-mode), not
/// flipped under traffic. Tests and benches flip it at runtime to
/// compare paths in one process.
///
///  kF64    — default; byte-identical to the reference scoring loop.
///  kF32    — float thresholds/leaves/accumulation ("flat_f32");
///            AUC-parity with f64, not bit parity.
///  kBinned — uint8 bin-rank descent ("flat_binned"); byte-identical
///            to kF64 by construction (see BinnedProgram), falling
///            back to kF64 per-forest when a program cannot lower.
enum class ScoreMode { kF64, kF32, kBinned };

ScoreMode ActiveScoreMode();
void SetScoreMode(ScoreMode mode);

/// "f64" / "f32" / "binned" — the wire/flag spelling of a mode.
const char* ScoreModeName(ScoreMode mode);

/// Parses the wire/flag spelling; returns false (leaving `out` alone)
/// for anything else.
bool ParseScoreMode(std::string_view name, ScoreMode* out);

/// Whether tree descent uses the vectorized gather walk. Requires this
/// binary to be compiled with a SIMD backend (SPE_SIMD=ON /
/// SPE_NATIVE=ON on x86, any build on aarch64 — see spe/kernels/simd.h).
/// The runtime default follows the backend's profitability constant
/// (kGatherDescentProfitable): on by default for NEON, off for AVX2,
/// where hardware gathers cost one load uop per lane and measure slower
/// than the blocked scalar walk. Env SPE_SIMD=1|on|true (or
/// SetSimdEnabled(true)) forces the gather walk on a SIMD build — the
/// conformance suite does this to cover it on x86 — and
/// SPE_SIMD=0|off|false forces the scalar walk everywhere. Vectorized
/// and scalar walks compute identical leaf indices, so this knob — like
/// the kernel switch — only changes speed, never results.
bool SimdEnabled();
void SetSimdEnabled(bool enabled);

/// Instruction set the kernel TU was compiled against: "avx2", "neon"
/// or "scalar". Compile-time fact, independent of the runtime switch;
/// benches stamp it so numbers are attributable to hardware.
const char* SimdIsa();

/// A voting ensemble compiled for batch inference: every member's trees
/// flattened into one structure-of-arrays node pool plus a member
/// program (see spe/kernels/program.h), walked by a blocked row×tree
/// kernel. The kernel reproduces the reference scoring loop
/// (VotingEnsemble::PredictProbaPrefix) bit-for-bit: members accumulate
/// in index order, GBDT members replay base + lr·leaf per tree then the
/// same sigmoid, and NaN feature values take the right edge exactly
/// like the reference `x <= threshold` comparison. What changes is the
/// memory traffic: zero per-member temporaries, contiguous node
/// storage, and ~64-row blocks whose descent steps are independent, so
/// the CPU overlaps the tree-walk loads instead of serializing on one
/// row's pointer chase.
///
/// v2 scores the same program through three representations, selected
/// by ActiveScoreMode(): the f64 pool (bit-identical, with an optional
/// vectorized descent that is also bit-identical), a float mirror
/// (F32Program), and a uint8 bin-rank mirror (BinnedProgram). The
/// mirrors are derived lazily on first use and cached per forest.
class FlatForest {
 public:
  /// Lowers every member of `ensemble` (discovered via FlatCompilable)
  /// into one program. Returns nullptr when the ensemble is empty or
  /// any member cannot lower — callers fall back to the reference loop.
  static std::unique_ptr<const FlatForest> Compile(
      const VotingEnsemble& ensemble);

  /// Lowers `ensemble` into a kGroup member op of an enclosing program.
  /// This is how nested tree-backed ensembles (a RandomForest member
  /// inside an SPE forest) compile: the wrapper's FlatCompilable
  /// delegates here. Returns false when any member cannot lower; the
  /// program is then abandoned by the caller.
  static bool LowerEnsemble(const VotingEnsemble& ensemble,
                            FlatProgram& program, MemberOp& op);

  /// Lowers one classifier into a one-member program, for scoring that
  /// member alone: PredictPrefixInto(data, 1, out) reduces as
  /// (0 + p) * (1/1) and so gives the member's PredictProba bits. This
  /// is how SelfPacedEnsemble::Fit scores each new member over the
  /// majority set. Returns nullptr when the member cannot lower. Unlike
  /// Compile, it leaves the spe_kernels_* metrics alone: those describe
  /// the serving program, and a fit compiles one of these per member.
  static std::unique_ptr<const FlatForest> CompileMember(
      const Classifier& member);

  /// Mean probability over the first min(k, num_members()) members for
  /// every row of `data`, written to `out` (size must equal
  /// data.num_rows()), through the representation ActiveScoreMode()
  /// selects. The f64 and binned paths are bit-identical to the
  /// reference PredictProbaPrefix for any thread count and either
  /// descent (SIMD or scalar); the f32 path is AUC-parity only.
  /// Requires k >= 1.
  ///
  /// Row-major views (the serve batch path) feed the descent loops a
  /// direct pointer, exactly as before the columnar refactor; columnar
  /// views are staged block-by-block into a reused per-thread row-major
  /// buffer (L1-resident, counted as scratch traffic) so the four
  /// descent paths stay untouched. Staging copies values verbatim, so
  /// both feeds are bit-identical.
  void PredictPrefixInto(const DatasetView& data, std::size_t k,
                         std::span<double> out) const;

  /// Same, through the representation `mode` names instead of the
  /// process-wide one. Training passes ScoreMode::kF64 so that no other
  /// mode can reach a fit.
  void PredictPrefixInto(const DatasetView& data, std::size_t k,
                         std::span<double> out, ScoreMode mode) const;

  /// Whether this program has a binned lowering (false when a feature
  /// carries more than kBinnedMaxCuts distinct thresholds). When false,
  /// ScoreMode::kBinned scores through the f64 path instead and
  /// ActiveKernel reports "flat". Builds the mirror on first call.
  bool BinnedAvailable() const;

  std::size_t num_members() const { return program_.members.size(); }
  std::size_t num_trees() const { return program_.trees.size(); }
  std::size_t num_nodes() const { return program_.pool.size(); }

 private:
  FlatForest() = default;

  const F32Program& F32() const;
  const BinnedProgram& Binned() const;
  const CompleteProgram& Complete() const;

  FlatProgram program_;
  // Derived representations, built on first use. Mutable + call_once:
  // a compiled forest is logically immutable and shared by concurrent
  // serve workers, so the lazy build must be thread-safe.
  mutable std::once_flag f32_once_;
  mutable F32Program f32_;
  mutable std::once_flag binned_once_;
  mutable BinnedProgram binned_;
  mutable std::once_flag complete_once_;
  mutable CompleteProgram complete_;
};

/// The batch-scoring path `model` takes right now: "reference" (no
/// compiled program — the capability is missing, a member failed to
/// lower, or the kernel is disabled), or the compiled path for the
/// active scoring mode — "flat" (f64), "flat_f32", or "flat_binned"
/// ("flat" again when the program has no binned lowering). Answers via
/// the FlatScorable capability, compiling lazily if needed. Benches and
/// the serving layer stamp this into their reports so runs are
/// comparable.
const char* ActiveKernel(const Classifier& model);

}  // namespace kernels
}  // namespace spe

#endif  // SPE_KERNELS_FLAT_FOREST_H_
