#include "spe/kernels/flat_forest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "spe/classifiers/classifier.h"
#include "spe/common/check.h"
#include "spe/common/parallel.h"
#include "spe/data/dataset.h"
#include "spe/obs/metrics.h"
#include "spe/obs/trace.h"

// The walks below are hand-shaped for the out-of-order core:
// depth-outer/rows-inner loops of branch-free dependent chains that run
// at load-port throughput. gcc's autovectorizer, handed AVX2 by the
// SPE_NATIVE build (-march=native), rewrites them into emulated-gather
// vector loops that measure ~2x SLOWER (gathers on most x86 cores are
// one load uop per lane plus setup — all cost, no width). Pin those
// functions to scalar codegen so the native build compiles them exactly
// like the default build. Plain -O2/-O3 builds without vector ISAs are
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

// SPE_FLAT_KERNEL=0|off|false disables the kernel at startup (same
// grammar as SPE_OBS).
bool FlatKernelDefault() {
  const char* env = std::getenv("SPE_FLAT_KERNEL");
  return env == nullptr ||
         (std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
          std::strcmp(env, "false") != 0);
}

std::atomic<bool>& FlatKernelFlag() {
  static std::atomic<bool> enabled{FlatKernelDefault()};
  return enabled;
}

// Advances `count` rows (x, row-major with `stride` doubles per row)
// from the tree's root to their leaves in the pooled layout, leaving
// leaf indices in `idx`. This is the fallback for trees the complete
// relayout (program.h) does not cover. The descent runs exactly
// tree.depth steps with no leaf test: leaves self-loop (program.h), so
// a row that arrives early just stays put.
//
// The child select is deliberately arithmetic, not a ternary. A split
// comparison is data-dependent and close to a coin flip, so a compare-
// and-branch (what gcc emits for `cond ? left : right` here) eats a
// pipeline flush every other node — that is the cost profile of the
// reference per-row walk, and matching it would make blocking
// pointless. Materializing the comparison with setcc and selecting via
// mask keeps the loop branch-free; with no branches, the independent
// per-row iterations overlap their node fetches and the walk runs at
// load throughput instead of mispredict latency. NaN compares false
// (unordered comisd clears the setae result) and takes the right edge —
// same routing as the reference PredictRow.
SPE_NO_AUTOVEC void WalkTreeScalar(const NodePool& pool, const TreeRef tree,
                                   const double* x, std::size_t stride,
                                   std::size_t count, std::int32_t* idx) {
  const std::int32_t* const feature = pool.feature.data();
  const double* const threshold = pool.threshold.data();
  const std::int32_t* const left = pool.left.data();
  const std::int32_t* const right = pool.right.data();
  for (std::size_t r = 0; r < count; ++r) idx[r] = tree.root;
  for (std::int32_t d = 0; d < tree.depth; ++d) {
    for (std::size_t r = 0; r < count; ++r) {
      const auto n = static_cast<std::size_t>(idx[r]);
      const double v = x[r * stride + static_cast<std::size_t>(feature[n])];
      const auto l = static_cast<std::uint32_t>(left[n]);
      const auto rt = static_cast<std::uint32_t>(right[n]);
      const auto go_right = static_cast<std::uint32_t>(!(v <= threshold[n]));
      idx[r] = static_cast<std::int32_t>(l + ((rt - l) & (0u - go_right)));
    }
  }
}

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

// A member whose whole contribution is one complete-covered tree: its
// leaf can accumulate straight into the caller's running vote sum
// (`sum += leaf`, the exact reference expression) instead of round-
// tripping through the per-member val array.
bool AccumulableTree(const CompleteProgram& complete, const MemberOp& op) {
  return op.kind == MemberOp::Kind::kTree &&
         complete.trees[static_cast<std::size_t>(op.tree_begin)].ok;
}

// One member's probability for each of `count` rows, into val[0..count).
// Each kind replays the reference arithmetic of the model it was
// lowered from, in the same order, so the bits match the reference.
// Trees the complete relayout covers take WalkTreeComplete; the rest
// take the pooled WalkTreeScalar.
void EvalMember(const FlatProgram& program, const CompleteProgram& complete,
                const MemberOp& op, const double* x, std::size_t stride,
                std::size_t count, double* val) {
  std::int32_t idx[kBlockRows];
  const double* const value = program.pool.value.data();
  switch (op.kind) {
    case MemberOp::Kind::kTree: {
      // DecisionTree::PredictRow: the leaf value is the probability.
      const auto t = static_cast<std::size_t>(op.tree_begin);
      if (complete.trees[t].ok) {
        WalkTreeComplete<EmitMode::kStore>(complete, t, x, stride, count, 1.0,
                                           val);
        break;
      }
      WalkTreeScalar(program.pool, program.trees[t], x, stride, count, idx);
      for (std::size_t r = 0; r < count; ++r) {
        val[r] = value[static_cast<std::size_t>(idx[r])];
      }
      break;
    }
    case MemberOp::Kind::kBoostLogit: {
      // Gbdt::PredictRow: score = base; score += lr * leaf per tree in
      // order; sigmoid(score).
      double score[kBlockRows];
      const double lr = op.learning_rate;
      for (std::size_t r = 0; r < count; ++r) score[r] = op.base_score;
      for (std::int32_t i = op.tree_begin; i < op.tree_end; ++i) {
        const auto t = static_cast<std::size_t>(i);
        if (complete.trees[t].ok) {
          WalkTreeComplete<EmitMode::kAxpy>(complete, t, x, stride, count, lr,
                                            score);
          continue;
        }
        WalkTreeScalar(program.pool, program.trees[t], x, stride, count, idx);
        for (std::size_t r = 0; r < count; ++r) {
          score[r] += lr * value[static_cast<std::size_t>(idx[r])];
        }
      }
      for (std::size_t r = 0; r < count; ++r) val[r] = Sigmoid(score[r]);
      break;
    }
    case MemberOp::Kind::kGroup: {
      // Nested VotingEnsemble: children accumulate in index order, then
      // one multiply by 1/n — the same reduction PredictProbaPrefix
      // performs over all members.
      double child[kBlockRows];
      for (std::size_t r = 0; r < count; ++r) val[r] = 0.0;
      for (const MemberOp& c : op.children) {
        if (AccumulableTree(complete, c)) {
          WalkTreeComplete<EmitMode::kAccum>(
              complete, static_cast<std::size_t>(c.tree_begin), x, stride,
              count, 1.0, val);
          continue;
        }
        EvalMember(program, complete, c, x, stride, count, child);
        for (std::size_t r = 0; r < count; ++r) val[r] += child[r];
      }
      const double inv = 1.0 / static_cast<double>(op.children.size());
      for (std::size_t r = 0; r < count; ++r) val[r] *= inv;
      break;
    }
  }
}

// Blocked scoring loop. `feed` maps a block (first row, row count) to its
// row-major feature block and stride — a pointer straight into the
// dataset for row-major views, a per-thread staged copy for columnar
// ones. Blocks write disjoint output ranges from identical per-row
// arithmetic, so chunking cannot change the result: scoring is
// bit-identical for any SPE_THREADS.
template <typename Feed>
void ScoreBlocks(const FlatProgram& program, const CompleteProgram& complete,
                 std::size_t rows, std::size_t n, std::span<double> out,
                 Feed feed) {
  const double inv = 1.0 / static_cast<double>(n);
  const std::size_t num_blocks = (rows + kBlockRows - 1) / kBlockRows;
  ParallelForGrain(0, num_blocks, kBlockGrain, [&](std::size_t b) {
    const std::size_t base = b * kBlockRows;
    const std::size_t count = std::min(kBlockRows, rows - base);
    const auto [x, stride] = feed(base, count);
    double sum[kBlockRows];
    double val[kBlockRows];
    for (std::size_t r = 0; r < count; ++r) sum[r] = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      const MemberOp& op = program.members[m];
      if (AccumulableTree(complete, op)) {
        WalkTreeComplete<EmitMode::kAccum>(
            complete, static_cast<std::size_t>(op.tree_begin), x, stride,
            count, 1.0, sum);
        continue;
      }
      EvalMember(program, complete, op, x, stride, count, val);
      for (std::size_t r = 0; r < count; ++r) sum[r] += val[r];
    }
    for (std::size_t r = 0; r < count; ++r) out[base + r] = sum[r] * inv;
  });
}

}  // namespace

bool FlatKernelEnabled() {
  return FlatKernelFlag().load(std::memory_order_relaxed);
}

void SetFlatKernelEnabled(bool enabled) {
  FlatKernelFlag().store(enabled, std::memory_order_relaxed);
}

// Read here, in the kernel TU, because SPE_NATIVE flags only this file.
const char* SimdIsa() {
#if defined(__AVX2__)
  return "avx2";
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  return "neon";
#else
  return "scalar";
#endif
}

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

const CompleteProgram& FlatForest::Complete() const {
  std::call_once(complete_once_,
                 [this] { complete_ = BuildCompleteProgram(program_); });
  return complete_;
}

void FlatForest::PredictPrefixInto(const DatasetView& data, std::size_t k,
                                   std::span<double> out) const {
  SPE_CHECK_GT(k, 0u);
  SPE_CHECK_EQ(out.size(), data.num_rows());
  data.CheckAlive();
  const std::size_t rows = data.num_rows();
  if (rows == 0) return;
  const std::size_t n = std::min(k, program_.members.size());
  const obs::TraceSpan span("kernels.flat_predict");
  const std::size_t stride = data.num_features();
  // Row-major views walk in place. Columnar views stage each block
  // row-major into per-thread scratch, reading each value straight from
  // its column: the column pointers are resolved once per call and the
  // parent row index once per row (per-element DatasetView::At
  // re-resolves both and measured 2-4x slower). `x` is null for columnar
  // views and must not be dereferenced outside the feed.
  const double* const x = data.row_major() ? data.rows_data() : nullptr;
  std::vector<const double*> columns;
  if (x == nullptr) {
    columns.resize(stride);
    for (std::size_t j = 0; j < stride; ++j) {
      columns[j] = data.parent()->Column(j).data();
    }
  }
  ScoreBlocks(program_, Complete(), rows, n, out,
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
}

const char* ActiveKernel(const Classifier& model) {
  const auto* scorable = dynamic_cast<const FlatScorable*>(&model);
  const bool flat = scorable != nullptr && scorable->flat_kernel() != nullptr;
  return flat ? "flat" : "reference";
}

}  // namespace kernels
}  // namespace spe
