// Property tests for the quantizer: the rank semantics of
// gbdt::FeatureBinner's fitted cuts, which the tree learner relies on
// when it records UpperEdge(b) as a raw split threshold.
//
// The load-bearing lemma, fuzzed here over random distributions and
// pinned on every edge the IEEE order has:
//
//     v <= UpperEdge(c)   ⟺   BinOf(v) <= c
//
// for every double v (±Inf and values one ulp either side of a cut
// included) and every cut rank c. If it broke for one representable
// value, a split learned on bins would route that row differently at
// inference, where the threshold is compared against the raw double.
// NaN is the exception: every comparison with it is false, so it lands
// in bin 0.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "spe/classifiers/gbdt/binning.h"
#include "spe/common/rng.h"
#include "spe/data/dataset.h"

namespace spe {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A binner fitted on three hostile feature shapes: continuous, heavy
// ties (categorical-ish), and mixed sign over nine decades.
gbdt::FeatureBinner FitHostileBinner(Rng& rng, std::size_t rows) {
  Dataset data(3);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::vector<double> row = {
        rng.Gaussian(0.0, 2.0),
        static_cast<double>(static_cast<int>(rng.Uniform(0.0, 6.0))),
        rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.Uniform(-3.0, 6.0))};
    data.AddRow(row, i % 2 == 0 ? 0 : 1);
  }
  gbdt::FeatureBinner binner;
  binner.Fit(data, 32);
  return binner;
}

// The cut list of `feature`: UpperEdge of every bin but the last.
std::vector<double> FittedCuts(const gbdt::FeatureBinner& binner,
                               std::size_t feature) {
  std::vector<double> cuts;
  for (int b = 0; b + 1 < binner.NumBins(feature); ++b) {
    cuts.push_back(binner.UpperEdge(feature, b));
  }
  return cuts;
}

// Hostile probe values for a given cut list: every cut itself, its
// one-ulp neighbors on both sides, the infinities, zero crossings, and
// a cloud of random draws.
std::vector<double> ProbeValues(const std::vector<double>& cuts, Rng& rng) {
  std::vector<double> probes = {-kInf, kInf, 0.0, -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::max()};
  for (const double c : cuts) {
    probes.push_back(c);
    probes.push_back(std::nextafter(c, -kInf));
    probes.push_back(std::nextafter(c, kInf));
  }
  for (int i = 0; i < 200; ++i) probes.push_back(rng.Gaussian(0.0, 3.0));
  for (int i = 0; i < 50; ++i) probes.push_back(rng.Uniform(-1e12, 1e12));
  return probes;
}

// The lemma itself, checked exhaustively over probes × cut ranks, for
// binners fitted on growing samples.
TEST(QuantizerPropertyTest, FittedBinnerSatisfiesRankLemma) {
  Rng rng(42);
  for (int round = 0; round < 8; ++round) {
    const gbdt::FeatureBinner binner =
        FitHostileBinner(rng, 200 + 150 * static_cast<std::size_t>(round));
    for (std::size_t f = 0; f < 3; ++f) {
      const std::vector<double> cuts = FittedCuts(binner, f);
      for (const double v : ProbeValues(cuts, rng)) {
        const int bin = binner.BinOf(f, v);
        for (std::size_t c = 0; c < cuts.size(); ++c) {
          EXPECT_EQ(v <= cuts[c], bin <= static_cast<int>(c))
              << "f=" << f << " v=" << v << " cut[" << c << "]=" << cuts[c]
              << " bin=" << bin;
        }
      }
    }
  }
}

// Values exactly on a cut rank with it (the `<=` side of the split),
// the next double above already ranks one higher, ±Inf take the end
// bins, and NaN lands in bin 0.
TEST(QuantizerPropertyTest, BoundaryValuesPin) {
  Rng rng(43);
  const gbdt::FeatureBinner binner = FitHostileBinner(rng, 600);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t f = 0; f < 3; ++f) {
    const int last = binner.NumBins(f) - 1;
    ASSERT_GE(last, 1) << "feature " << f << " fitted a single bin";
    for (int b = 0; b < last; ++b) {
      const double edge = binner.UpperEdge(f, b);
      EXPECT_EQ(binner.BinOf(f, edge), b);
      EXPECT_EQ(binner.BinOf(f, std::nextafter(edge, -kInf)), b);
      EXPECT_EQ(binner.BinOf(f, std::nextafter(edge, kInf)), b + 1);
    }
    EXPECT_EQ(binner.UpperEdge(f, last), kInf);
    EXPECT_EQ(binner.BinOf(f, -kInf), 0);
    EXPECT_EQ(binner.BinOf(f, kInf), last);
    EXPECT_EQ(binner.BinOf(f, nan), 0);
  }
}

}  // namespace
}  // namespace spe
