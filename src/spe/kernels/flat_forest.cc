#include "spe/kernels/flat_forest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "spe/classifiers/classifier.h"
#include "spe/common/check.h"
#include "spe/common/parallel.h"
#include "spe/data/dataset.h"
#include "spe/kernels/simd.h"
#include "spe/obs/metrics.h"
#include "spe/obs/trace.h"

// The scalar walks below are hand-shaped for the out-of-order core:
// depth-outer/rows-inner loops of branch-free dependent chains that run
// at load-port throughput. gcc's autovectorizer, handed -mavx2 by the
// SPE_SIMD build, rewrites them into emulated-gather vector loops that
// measure ~2x SLOWER (gathers on most x86 cores are one load uop per
// lane plus setup — all cost, no width). Pin those functions to scalar
// codegen so the SIMD build compiles them exactly like the default
// build; vectorized descent happens only where it is written by hand
// (WalkTreeSimd). Plain -O2/-O3 builds without vector ISAs are
// unaffected — the attribute just restates what they already do.
#if defined(__GNUC__) && !defined(__clang__)
#define SPE_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define SPE_NO_AUTOVEC
#endif

namespace spe {
namespace kernels {
namespace {

// Rows walked together through each tree. 256 rows of descent state is
// a few KiB of indices and sums — still comfortably L1-resident across
// the whole member program — while each tree's nodes, streamed from L2
// on deep trees (a depth-10 complete layout is ~24 KiB, a full SPE
// forest of them ~10x that), are touched once per block: quadrupling
// the block from the original 64 rows quarters that per-row refill
// traffic, which is where the walk's cycles go once the inner loop is
// issue-bound. The independent per-row steps keep the load ports full
// either way.
constexpr std::size_t kBlockRows = 256;

// Blocks per worker below which the kernel stays serial. 1 block =
// 256 rows, the same serial threshold as the reference row-chunked
// scoring (kScoreGrain in classifier.cc), so serving-sized
// micro-batches keep their latency profile on the calling thread.
constexpr std::size_t kBlockGrain = 1;

// Byte-for-byte copy of the sigmoid in gbdt.cc. The kernel must
// reproduce Gbdt::PredictRow bit-for-bit, and that includes taking the
// same branch (exp(-z) vs exp(z)) for the same score.
double Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// Float twin for the f32 mode: same branch structure, float arithmetic
// throughout. Part of the documented f32 contract (docs/performance.md)
// so the mode is reproducible across builds, not an accident of
// whatever the optimizer picked.
float Sigmoid(float z) {
  if (z >= 0.0f) {
    const float e = std::exp(-z);
    return 1.0f / (1.0f + e);
  }
  const float e = std::exp(z);
  return e / (1.0f + e);
}

bool EnvFlagOff(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  return std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
         std::strcmp(env, "false") == 0;
}

bool EnvFlagOn(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  return std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
         std::strcmp(env, "true") == 0;
}

bool FlatKernelDefault() { return !EnvFlagOff("SPE_FLAT_KERNEL"); }

std::atomic<bool>& FlatKernelFlag() {
  static std::atomic<bool> enabled{FlatKernelDefault()};
  return enabled;
}

// Vectorized descent defaults on only where the backend's gathers pay
// for themselves (see kGatherDescentProfitable in simd.h): NEON yes,
// AVX2 no. SPE_SIMD=1 forces the gather walk on regardless — that is
// how the conformance suite covers it on x86 — and SPE_SIMD=0 forces
// it off everywhere.
bool SimdDefault() {
  if (EnvFlagOff("SPE_SIMD")) return false;
  if (EnvFlagOn("SPE_SIMD")) return simd::kHasSimd;
  return simd::kHasSimd && simd::kGatherDescentProfitable;
}

std::atomic<bool>& SimdFlag() {
  static std::atomic<bool> enabled{SimdDefault()};
  return enabled;
}

ScoreMode ScoreModeDefault() {
  const char* env = std::getenv("SPE_KERNEL_MODE");
  ScoreMode mode = ScoreMode::kF64;
  if (env != nullptr) ParseScoreMode(env, &mode);  // unknown → default
  return mode;
}

std::atomic<ScoreMode>& ScoreModeFlag() {
  static std::atomic<ScoreMode> mode{ScoreModeDefault()};
  return mode;
}

// The arrays one scoring representation walks and accumulates with.
// Feat is the element type compared during descent (double, float, or
// uint8 bin rank); Acc the type leaves are stored and summed in. The
// integer topology is always the shared f64 pool's.
template <typename Feat, typename Acc>
struct Rep {
  const std::int32_t* feature;
  const Feat* threshold;
  const std::int32_t* left;
  const std::int32_t* right;
  const Acc* value;
  bool simd;  // vectorized descent (f64/f32 only; ignored for uint8)
  // Implicit-children relayout for the f64 walk (null for the other
  // representations); trees it covers skip the pooled descent.
  const CompleteProgram* complete = nullptr;
};

// Advances `count` rows (x, row-major with `stride` Feat per row) from
// the tree's root to their leaves, leaving leaf indices in `idx`. The
// descent runs exactly tree.depth steps with no leaf test: leaves
// self-loop (program.h), so a row that arrives early just stays put.
//
// The child select is deliberately arithmetic, not a ternary. A split
// comparison is data-dependent and close to a coin flip, so a compare-
// and-branch (what gcc emits for `cond ? left : right` here) eats a
// pipeline flush every other node — that is the cost profile of the
// reference per-row walk, and matching it would make blocking
// pointless. Materializing the comparison with setcc and selecting via
// mask keeps the loop branch-free; with no branches, the independent
// per-row iterations overlap their node fetches and the walk runs at
// load throughput instead of mispredict latency. For floating Feat,
// NaN compares false (unordered comisd clears the setae result) and
// takes the right edge — same routing as the reference PredictRow. For
// uint8 Feat the same `!(v <= t)` is the bin-rank comparison, with the
// NaN sentinel 255 > every cut rank (program.h).
template <typename Feat>
SPE_NO_AUTOVEC void WalkTreeScalar(const std::int32_t* feature,
                                   const Feat* threshold,
                                   const std::int32_t* left,
                                   const std::int32_t* right,
                                   const TreeRef tree, const Feat* x,
                                   std::size_t stride, std::size_t count,
                                   std::int32_t* idx) {
  for (std::size_t r = 0; r < count; ++r) idx[r] = tree.root;
  for (std::int32_t d = 0; d < tree.depth; ++d) {
    for (std::size_t r = 0; r < count; ++r) {
      const auto n = static_cast<std::size_t>(idx[r]);
      const Feat v = x[r * stride + static_cast<std::size_t>(feature[n])];
      const auto l = static_cast<std::uint32_t>(left[n]);
      const auto rt = static_cast<std::uint32_t>(right[n]);
      const auto go_right = static_cast<std::uint32_t>(!(v <= threshold[n]));
      idx[r] = static_cast<std::int32_t>(l + ((rt - l) & (0u - go_right)));
    }
  }
}

#if defined(SPE_KERNELS_SIMD_AVX2) || defined(SPE_KERNELS_SIMD_NEON)
// Vectorized twin of WalkTreeScalar: Lanes rows descend per register
// group, gathers keyed by the per-lane node index, children selected by
// the mask Descend builds from the IEEE `!(v <= t)` comparison (see
// simd.h). Every lane computes exactly the scalar walk's comparisons
// on exactly the scalar walk's values, so the stored leaf indices are
// identical — the remainder rows simply run the scalar loop.
template <typename Lanes, typename Feat>
void WalkTreeSimd(const std::int32_t* feature, const Feat* threshold,
                  const std::int32_t* left, const std::int32_t* right,
                  const TreeRef tree, const Feat* x, std::size_t stride,
                  std::size_t count, std::int32_t* idx) {
  const std::size_t groups = count / Lanes::kLanes;
  const auto row_off = Lanes::IotaTimes(static_cast<std::int32_t>(stride));
  for (std::size_t g = 0; g < groups; ++g) {
    const Feat* const xg = x + g * Lanes::kLanes * stride;
    auto node = Lanes::BroadcastIndex(tree.root);
    for (std::int32_t d = 0; d < tree.depth; ++d) {
      const auto feat = Lanes::GatherIndex(feature, node);
      const auto v = Lanes::GatherValue(xg, Lanes::AddIndex(row_off, feat));
      const auto t = Lanes::GatherValue(threshold, node);
      const auto l = Lanes::GatherIndex(left, node);
      const auto r = Lanes::GatherIndex(right, node);
      node = Lanes::Descend(l, r, v, t);
    }
    Lanes::StoreIndex(idx + g * Lanes::kLanes, node);
  }
  const std::size_t done = groups * Lanes::kLanes;
  if (done < count) {
    WalkTreeScalar(feature, threshold, left, right, tree, x + done * stride,
                   stride, count - done, idx + done);
  }
}
#endif

// Descent over a complete-layout tree (program.h): children live at
// 2c+1 / 2c+2, so one step is three loads (feature, threshold, row
// value) and pure index arithmetic — no left/right loads and no select
// mask. The loop nest mirrors WalkTreeScalar (depth outer, rows inner):
// a single row's step is a serial load→compare→index chain of ~15
// cycles latency, and the wide inner row loop is what lets the
// out-of-order core run dozens of independent chains at once, pushing
// the walk from chain latency down toward the load-port floor (~1.5
// cycles/step with 3 loads, vs ~2.5 for the 5-load pooled walk). The
// depth dimension is carved to minimize slot-state spills per row: a
// peeled opening visit (levels 0-1) that starts from the constant root
// slot — level 0's feature/threshold are loop-invariant scalars, so it
// needs neither a slot load nor an init loop — then two-step middle
// visits, then a closing one- or two-step visit fused with the leaf
// emit, so the slot array is never touched again after its last load.
// (Four-step visits — middle or tail — consistently measured slower:
// the spill they save costs less than gcc's schedule for the longer
// dependent chain, so everything stays at two steps.)
// The comparisons are the pooled walk's own `!(v <= t)` on the same
// double thresholds — NaN compares false and takes the right edge, and
// a padded slot carries its leaf down both edges — so the bottom slot
// holds exactly the value of the pool leaf the pooled walk parks on:
// byte-identical. The leaf emit is a
// template policy — kStore writes the leaf value (single trees), kAxpy
// folds the GBDT `score += lr * leaf` into the same pass, and kAccum
// folds the voting `sum += leaf` of a single-tree member, each saving
// a whole intermediate-array round trip per tree. All three compute
// exactly the reference expression on exactly the pooled walk's leaf.
enum class EmitMode { kStore, kAxpy, kAccum };

template <EmitMode M>
SPE_NO_AUTOVEC void WalkTreeComplete(const CompleteProgram& cp,
                                     std::size_t t, const double* x,
                                     std::size_t stride, std::size_t count,
                                     double scale, double* out) {
  const CompleteTree& tree = cp.trees[t];
  const std::int32_t* const feature = cp.feature.data() + tree.node_base;
  const double* const threshold = cp.threshold.data() + tree.node_base;
  const double* const value = cp.value.data() + tree.leaf_base;
  const std::size_t origin =
      (std::size_t(1) << static_cast<std::size_t>(tree.depth)) - 1;
  // One descent step; compiles to movslq+movsd+comisd+setcc+lea.
  const auto step = [&](const double* xr, std::uint32_t c) {
    return 2 * c + 1 +
           static_cast<std::uint32_t>(
               !(xr[static_cast<std::size_t>(feature[c])] <= threshold[c]));
  };
  const auto emit = [&](std::size_t r, std::uint32_t c) {
    const double leaf = value[c - origin];
    if constexpr (M == EmitMode::kStore) {
      out[r] = leaf;
    } else if constexpr (M == EmitMode::kAccum) {
      out[r] += leaf;
    } else {
      out[r] += scale * leaf;
    }
  };
  std::uint32_t slot[kBlockRows];
  std::int32_t d = 0;
  if (tree.depth >= 2) {
    const auto f0 = static_cast<std::size_t>(feature[0]);
    const double t0 = threshold[0];
    for (std::size_t r = 0; r < count; ++r) {
      const double* const xr = x + r * stride;
      const std::uint32_t c0 =
          1 + static_cast<std::uint32_t>(!(xr[f0] <= t0));
      slot[r] = step(xr, c0);
    }
    d = 2;
  } else {
    for (std::size_t r = 0; r < count; ++r) slot[r] = 0;
  }
  for (; d + 2 < tree.depth; d += 2) {
    for (std::size_t r = 0; r < count; ++r) {
      const double* const xr = x + r * stride;
      slot[r] = step(xr, step(xr, slot[r]));
    }
  }
  switch (tree.depth - d) {
    case 2:
      for (std::size_t r = 0; r < count; ++r) {
        const double* const xr = x + r * stride;
        emit(r, step(xr, step(xr, slot[r])));
      }
      break;
    case 1:
      for (std::size_t r = 0; r < count; ++r) {
        emit(r, step(x + r * stride, slot[r]));
      }
      break;
    default:  // depth 0 or exactly the peeled 2: already at the bottom
      for (std::size_t r = 0; r < count; ++r) emit(r, slot[r]);
      break;
  }
}

// Whether tree `t` of this representation descends through the complete
// relayout. Only the f64 representation carries one — its thresholds
// and bottom-slot values are doubles — so the other representations
// resolve to false at compile time.
template <typename Feat, typename Acc>
bool CompleteWalkable(const Rep<Feat, Acc>& rep, std::size_t t) {
  if constexpr (std::is_same_v<Feat, double>) {
    return rep.complete != nullptr && rep.complete->trees[t].ok;
  } else {
    (void)rep;
    (void)t;
    return false;
  }
}

// A member whose whole contribution is one complete-covered tree: its
// leaf can accumulate straight into the caller's running vote sum
// (`sum += leaf`, the exact reference expression) instead of round-
// tripping through the per-member val array.
template <typename Feat, typename Acc>
bool AccumulableTree(const Rep<Feat, Acc>& rep, const MemberOp& op) {
  return op.kind == MemberOp::Kind::kTree &&
         CompleteWalkable(rep, static_cast<std::size_t>(op.tree_begin));
}

template <typename Feat, typename Acc>
void WalkTree(const Rep<Feat, Acc>& rep, const FlatProgram& program,
              std::size_t t, const Feat* x, std::size_t stride,
              std::size_t count, std::int32_t* idx) {
  const TreeRef tree = program.trees[t];
#if defined(SPE_KERNELS_SIMD_AVX2) || defined(SPE_KERNELS_SIMD_NEON)
  if (rep.simd) {
    if constexpr (std::is_same_v<Feat, double>) {
      WalkTreeSimd<simd::F64Lanes>(rep.feature, rep.threshold, rep.left,
                                   rep.right, tree, x, stride, count, idx);
      return;
    } else if constexpr (std::is_same_v<Feat, float>) {
      WalkTreeSimd<simd::F32Lanes>(rep.feature, rep.threshold, rep.left,
                                   rep.right, tree, x, stride, count, idx);
      return;
    }
    // uint8 descent stays scalar: no byte gathers in either ISA.
  }
#endif
  WalkTreeScalar(rep.feature, rep.threshold, rep.left, rep.right, tree, x,
                 stride, count, idx);
}

// One member's probability for each of `count` rows, into val[0..count).
// Each kind replays the reference arithmetic of the model it was
// lowered from, in the same order — in Acc precision. For Acc = double
// (f64 and binned representations) that makes the bits match the
// reference; for Acc = float it defines the f32 mode's arithmetic.
template <typename Feat, typename Acc>
void EvalMember(const FlatProgram& program, const Rep<Feat, Acc>& rep,
                const MemberOp& op, const Feat* x, std::size_t stride,
                std::size_t count, Acc* val) {
  std::int32_t idx[kBlockRows];
  switch (op.kind) {
    case MemberOp::Kind::kTree: {
      // DecisionTree::PredictRow: the leaf value is the probability.
      const auto t = static_cast<std::size_t>(op.tree_begin);
      if constexpr (std::is_same_v<Feat, double>) {
        if (CompleteWalkable(rep, t)) {
          WalkTreeComplete<EmitMode::kStore>(*rep.complete, t, x, stride,
                                             count, 1.0, val);
          break;
        }
      }
      WalkTree(rep, program, t, x, stride, count, idx);
      for (std::size_t r = 0; r < count; ++r) {
        val[r] = rep.value[static_cast<std::size_t>(idx[r])];
      }
      break;
    }
    case MemberOp::Kind::kBoostLogit: {
      // Gbdt::PredictRow: score = base; score += lr * leaf per tree in
      // order; sigmoid(score).
      Acc score[kBlockRows];
      const auto base = static_cast<Acc>(op.base_score);
      const auto lr = static_cast<Acc>(op.learning_rate);
      for (std::size_t r = 0; r < count; ++r) score[r] = base;
      for (std::int32_t t = op.tree_begin; t < op.tree_end; ++t) {
        if constexpr (std::is_same_v<Feat, double>) {
          if (CompleteWalkable(rep, static_cast<std::size_t>(t))) {
            WalkTreeComplete<EmitMode::kAxpy>(*rep.complete,
                                              static_cast<std::size_t>(t), x,
                                              stride, count, lr, score);
            continue;
          }
        }
        WalkTree(rep, program, static_cast<std::size_t>(t), x, stride, count,
                 idx);
        for (std::size_t r = 0; r < count; ++r) {
          score[r] += lr * rep.value[static_cast<std::size_t>(idx[r])];
        }
      }
      for (std::size_t r = 0; r < count; ++r) val[r] = Sigmoid(score[r]);
      break;
    }
    case MemberOp::Kind::kGroup: {
      // Nested VotingEnsemble: children accumulate in index order, then
      // one multiply by 1/n — the same reduction PredictProbaPrefix
      // performs over all members.
      Acc child[kBlockRows];
      for (std::size_t r = 0; r < count; ++r) val[r] = Acc(0);
      for (const MemberOp& c : op.children) {
        if constexpr (std::is_same_v<Feat, double>) {
          if (AccumulableTree(rep, c)) {
            WalkTreeComplete<EmitMode::kAccum>(
                *rep.complete, static_cast<std::size_t>(c.tree_begin), x,
                stride, count, 1.0, val);
            continue;
          }
        }
        EvalMember(program, rep, c, x, stride, count, child);
        for (std::size_t r = 0; r < count; ++r) val[r] += child[r];
      }
      const Acc inv = Acc(1) / static_cast<Acc>(op.children.size());
      for (std::size_t r = 0; r < count; ++r) val[r] *= inv;
      break;
    }
  }
}

// Blocked driver shared by the three representations. `prep` maps a
// block (first row, row count) to this representation's row-major
// feature block and its stride — a pointer straight into the dataset
// for f64, a per-thread converted buffer for f32/binned. Blocks write
// disjoint output ranges from identical per-row arithmetic, so
// chunking cannot change the result: every path is bit-identical for
// any SPE_THREADS.
template <typename Feat, typename Acc, typename Prep>
void ScoreBlocks(const FlatProgram& program, const Rep<Feat, Acc>& rep,
                 std::size_t rows, std::size_t n, std::span<double> out,
                 Prep prep) {
  const Acc inv = Acc(1) / static_cast<Acc>(n);
  const std::size_t num_blocks = (rows + kBlockRows - 1) / kBlockRows;
  ParallelForGrain(0, num_blocks, kBlockGrain, [&](std::size_t b) {
    const std::size_t base = b * kBlockRows;
    const std::size_t count = std::min(kBlockRows, rows - base);
    const auto [x, stride] = prep(base, count);
    Acc sum[kBlockRows];
    Acc val[kBlockRows];
    for (std::size_t r = 0; r < count; ++r) sum[r] = Acc(0);
    for (std::size_t m = 0; m < n; ++m) {
      const MemberOp& op = program.members[m];
      if constexpr (std::is_same_v<Feat, double>) {
        if (AccumulableTree(rep, op)) {
          WalkTreeComplete<EmitMode::kAccum>(
              *rep.complete, static_cast<std::size_t>(op.tree_begin), x,
              stride, count, 1.0, sum);
          continue;
        }
      }
      EvalMember(program, rep, op, x, stride, count, val);
      for (std::size_t r = 0; r < count; ++r) sum[r] += val[r];
    }
    for (std::size_t r = 0; r < count; ++r) {
      out[base + r] = static_cast<double>(sum[r] * inv);
    }
  });
}

}  // namespace

bool FlatKernelEnabled() {
  return FlatKernelFlag().load(std::memory_order_relaxed);
}

void SetFlatKernelEnabled(bool enabled) {
  FlatKernelFlag().store(enabled, std::memory_order_relaxed);
}

ScoreMode ActiveScoreMode() {
  return ScoreModeFlag().load(std::memory_order_relaxed);
}

void SetScoreMode(ScoreMode mode) {
  ScoreModeFlag().store(mode, std::memory_order_relaxed);
}

const char* ScoreModeName(ScoreMode mode) {
  switch (mode) {
    case ScoreMode::kF32:
      return "f32";
    case ScoreMode::kBinned:
      return "binned";
    case ScoreMode::kF64:
      break;
  }
  return "f64";
}

bool ParseScoreMode(std::string_view name, ScoreMode* out) {
  if (name == "f64") {
    *out = ScoreMode::kF64;
  } else if (name == "f32") {
    *out = ScoreMode::kF32;
  } else if (name == "binned") {
    *out = ScoreMode::kBinned;
  } else {
    return false;
  }
  return true;
}

bool SimdEnabled() {
  return simd::kHasSimd && SimdFlag().load(std::memory_order_relaxed);
}

void SetSimdEnabled(bool enabled) {
  SimdFlag().store(enabled && simd::kHasSimd, std::memory_order_relaxed);
}

const char* SimdIsa() { return simd::kIsa; }

namespace {

bool LowerMember(const Classifier& member, FlatProgram& program,
                 MemberOp& op) {
  const auto* compilable = dynamic_cast<const FlatCompilable*>(&member);
  return compilable != nullptr && compilable->LowerToFlat(program, op);
}

}  // namespace

bool FlatForest::LowerEnsemble(const VotingEnsemble& ensemble,
                               FlatProgram& program, MemberOp& op) {
  if (ensemble.empty()) return false;
  op.kind = MemberOp::Kind::kGroup;
  op.children.clear();
  op.children.reserve(ensemble.size());
  for (std::size_t m = 0; m < ensemble.size(); ++m) {
    MemberOp child;
    if (!LowerMember(ensemble.member(m), program, child)) return false;
    op.children.push_back(std::move(child));
  }
  return true;
}

std::unique_ptr<const FlatForest> FlatForest::Compile(
    const VotingEnsemble& ensemble) {
  auto forest = std::unique_ptr<FlatForest>(new FlatForest());
  MemberOp top;
  if (!LowerEnsemble(ensemble, forest->program_, top)) return nullptr;
  // The ensemble's own averaging is applied by PredictPrefixInto (it
  // depends on the prefix length k), so the compiled program keeps the
  // members flat rather than wrapped in the top-level group op.
  forest->program_.members = std::move(top.children);
  if (obs::Enabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetGauge("spe_kernels_compiled_trees")
        .Set(static_cast<double>(forest->program_.trees.size()));
    registry.GetCounter("spe_kernels_compiles_total").Add();
  }
  return forest;
}

std::unique_ptr<const FlatForest> FlatForest::CompileMember(
    const Classifier& member) {
  auto forest = std::unique_ptr<FlatForest>(new FlatForest());
  MemberOp op;
  if (!LowerMember(member, forest->program_, op)) return nullptr;
  forest->program_.members.push_back(std::move(op));
  return forest;
}

const F32Program& FlatForest::F32() const {
  std::call_once(f32_once_, [this] { f32_ = BuildF32Program(program_); });
  return f32_;
}

const BinnedProgram& FlatForest::Binned() const {
  std::call_once(binned_once_,
                 [this] { binned_ = BuildBinnedProgram(program_); });
  return binned_;
}

const CompleteProgram& FlatForest::Complete() const {
  std::call_once(complete_once_,
                 [this] { complete_ = BuildCompleteProgram(program_); });
  return complete_;
}

bool FlatForest::BinnedAvailable() const { return Binned().ok; }

void FlatForest::PredictPrefixInto(const DatasetView& data, std::size_t k,
                                   std::span<double> out) const {
  PredictPrefixInto(data, k, out, ActiveScoreMode());
}

void FlatForest::PredictPrefixInto(const DatasetView& data, std::size_t k,
                                   std::span<double> out,
                                   ScoreMode mode) const {
  SPE_CHECK_GT(k, 0u);
  SPE_CHECK_EQ(out.size(), data.num_rows());
  data.CheckAlive();
  const std::size_t rows = data.num_rows();
  if (rows == 0) return;
  const std::size_t n = std::min(k, program_.members.size());
  const obs::TraceSpan span("kernels.flat_predict");
  const std::size_t stride = data.num_features();
  // Row-major views walk in place; columnar views stage each ~64-row
  // block into per-thread scratch below. `x` is null in the latter case
  // and must not be dereferenced outside a feeder.
  const double* const x = data.row_major() ? data.rows_data() : nullptr;
  const bool use_simd = SimdEnabled();

  if (mode == ScoreMode::kBinned && !BinnedAvailable()) mode = ScoreMode::kF64;

  switch (mode) {
    case ScoreMode::kF32: {
      const F32Program& f32 = F32();
      const Rep<float, float> rep{program_.pool.feature.data(),
                                  f32.threshold.data(),
                                  program_.pool.left.data(),
                                  program_.pool.right.data(),
                                  f32.value.data(),
                                  use_simd};
      // One float conversion of the block, amortized over every tree
      // that walks it. thread_local so pool workers reuse the buffer
      // across blocks instead of allocating per block.
      ScoreBlocks(program_, rep, rows, n, out,
                  [&](std::size_t base, std::size_t count) {
                    thread_local std::vector<float> buf;
                    buf.resize(count * stride);
                    if (x != nullptr) {
                      const double* src = x + base * stride;
                      for (std::size_t i = 0; i < count * stride; ++i) {
                        buf[i] = static_cast<float>(src[i]);
                      }
                    } else {
                      for (std::size_t r = 0; r < count; ++r) {
                        for (std::size_t j = 0; j < stride; ++j) {
                          buf[r * stride + j] =
                              static_cast<float>(data.At(base + r, j));
                        }
                      }
                    }
                    return std::pair<const float*, std::size_t>{buf.data(),
                                                                stride};
                  });
      break;
    }
    case ScoreMode::kBinned: {
      const BinnedProgram& binned = Binned();
      const Rep<std::uint8_t, double> rep{program_.pool.feature.data(),
                                          binned.cut.data(),
                                          program_.pool.left.data(),
                                          program_.pool.right.data(),
                                          program_.pool.value.data(),
                                          /*simd=*/false};
      // Bin only the features the program can split on — the binner is
      // sized to the highest split feature, which may be narrower than
      // the dataset. NaN takes the sentinel (BinOf cannot: every
      // comparison with NaN is false, which would rank it bin 0 — the
      // left edge — while the reference routes NaN right).
      const std::size_t width = binned.binner.num_features();
      ScoreBlocks(program_, rep, rows, n, out,
                  [&](std::size_t base, std::size_t count) {
                    thread_local std::vector<std::uint8_t> buf;
                    buf.resize(count * width);
                    for (std::size_t r = 0; r < count; ++r) {
                      for (std::size_t f = 0; f < width; ++f) {
                        const double v = x != nullptr
                                             ? x[(base + r) * stride + f]
                                             : data.At(base + r, f);
                        buf[r * width + f] =
                            std::isnan(v) ? kBinnedNaN
                                          : binned.binner.BinOf(f, v);
                      }
                    }
                    return std::pair<const std::uint8_t*, std::size_t>{
                        buf.data(), width};
                  });
      break;
    }
    case ScoreMode::kF64: {
      // Columnar views read each value straight from its column, with
      // the column pointers resolved once per call and the parent row
      // index once per row. Per-element DatasetView::At re-resolves
      // both; staging through it measured 2-4x slower.
      std::vector<const double*> columns;
      if (x == nullptr) {
        columns.resize(stride);
        for (std::size_t j = 0; j < stride; ++j) {
          columns[j] = data.parent()->Column(j).data();
        }
      }
      const CompleteProgram& complete = Complete();
      const Rep<double, double> rep{program_.pool.feature.data(),
                                    program_.pool.threshold.data(),
                                    program_.pool.left.data(),
                                    program_.pool.right.data(),
                                    program_.pool.value.data(),
                                    use_simd,
                                    complete.any ? &complete : nullptr};
      ScoreBlocks(program_, rep, rows, n, out,
                  [&](std::size_t base, std::size_t count) {
                    if (x != nullptr) {
                      return std::pair<const double*, std::size_t>{
                          x + base * stride, stride};
                    }
                    // Columnar feed: stage the block row-major in reused
                    // per-thread scratch. A verbatim value copy, so the
                    // descent reads identical bits to the direct path.
                    thread_local std::vector<double> buf;
                    buf.resize(count * stride);
                    for (std::size_t r = 0; r < count; ++r) {
                      const std::size_t row = data.RowIndex(base + r);
                      double* const dst = buf.data() + r * stride;
                      for (std::size_t j = 0; j < stride; ++j) {
                        dst[j] = columns[j][row];
                      }
                    }
                    AddScratchBytes(count * stride * sizeof(double));
                    return std::pair<const double*, std::size_t>{buf.data(),
                                                                 stride};
                  });
      break;
    }
  }
}

const char* ActiveKernel(const Classifier& model) {
  const auto* scorable = dynamic_cast<const FlatScorable*>(&model);
  const FlatForest* forest =
      scorable != nullptr ? scorable->flat_kernel() : nullptr;
  if (forest == nullptr) return "reference";
  switch (ActiveScoreMode()) {
    case ScoreMode::kF32:
      return "flat_f32";
    case ScoreMode::kBinned:
      return forest->BinnedAvailable() ? "flat_binned" : "flat";
    case ScoreMode::kF64:
      break;
  }
  return "flat";
}

}  // namespace kernels
}  // namespace spe
