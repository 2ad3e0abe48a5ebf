// Paper-faithfulness golden tests: pinned, seeded expectations for the
// quantities the paper reports — Table 2 checkerboard scores (AUCPRC /
// F1 / G-mean / MCC), the Fig. 3 per-bin sampling populations across the
// self-paced iterations, and the alpha schedule values of Algorithm 1.
// Expectations live in tests/golden/ (SPE_GOLDEN_DIR, compiled in) so a
// behaviour change shows up as a reviewable diff in version control.
//
// Regenerate after an intentional change with:
//
//   SPE_UPDATE_GOLDEN=1 ./paper_regression_test
//
// which rewrites the golden files in the *source* tree and passes.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/common/rng.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/core/self_paced_sampler.h"
#include "spe/data/synthetic.h"
#include "spe/metrics/metrics.h"
#include "spe/obs/metrics.h"

namespace spe {
namespace {

using GoldenMap = std::map<std::string, double>;

bool UpdateMode() { return std::getenv("SPE_UPDATE_GOLDEN") != nullptr; }

std::string GoldenPath(const char* name) {
  return std::string(SPE_GOLDEN_DIR) + "/" + name;
}

GoldenMap LoadGolden(const char* name) {
  std::ifstream in(GoldenPath(name));
  EXPECT_TRUE(in.good()) << "missing golden file " << GoldenPath(name)
                         << " — run with SPE_UPDATE_GOLDEN=1 to create it";
  GoldenMap golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string token;
    // strtod, not istream extraction: istream num_get rejects the
    // "inf" spelling the writer produces for the schedule's terminal
    // alpha.
    if (fields >> key >> token) golden[key] = std::strtod(token.c_str(), nullptr);
  }
  return golden;
}

void SaveGolden(const char* name, const GoldenMap& golden,
                const char* header) {
  std::ofstream out(GoldenPath(name));
  ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath(name);
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# " << header << "\n# Regenerate: SPE_UPDATE_GOLDEN=1 "
      << "./paper_regression_test\n";
  for (const auto& [key, value] : golden) out << key << " " << value << "\n";
}

// Compares actual against golden: every golden key must be present and
// within `tolerance`, and no unexpected keys may appear (a silently
// grown key set usually means the generator and the checker diverged).
void CompareToGolden(const char* name, const GoldenMap& actual,
                     double tolerance, const char* header) {
  if (UpdateMode()) {
    SaveGolden(name, actual, header);
    GTEST_SKIP() << "golden file " << name << " regenerated";
  }
  const GoldenMap golden = LoadGolden(name);
  EXPECT_EQ(golden.size(), actual.size()) << "key set changed for " << name;
  for (const auto& [key, expected] : golden) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << name << " lost key " << key;
    if (std::isinf(expected)) {
      EXPECT_EQ(it->second, expected) << name << ": " << key;
    } else {
      EXPECT_NEAR(it->second, expected, tolerance) << name << ": " << key;
    }
  }
}

// ---------------------------------------------------------------------
// Alpha schedule (Algorithm 1 line 7). Pure math on pinned inputs, so
// the tolerance is essentially exact.

TEST(PaperRegressionTest, AlphaScheduleMatchesGolden) {
  GoldenMap actual;
  for (std::size_t i = 1; i <= 10; ++i) {
    actual["tan_" + std::to_string(i) + "_of_10"] =
        SelfPacedEnsemble::AlphaAt(AlphaSchedule::kTan, i, 10);
    actual["linear_" + std::to_string(i) + "_of_10"] =
        SelfPacedEnsemble::AlphaAt(AlphaSchedule::kLinear, i, 10);
  }
  actual["tan_1_of_1"] = SelfPacedEnsemble::AlphaAt(AlphaSchedule::kTan, 1, 1);
  actual["zero_3_of_10"] =
      SelfPacedEnsemble::AlphaAt(AlphaSchedule::kZero, 3, 10);
  actual["infinity_3_of_10"] =
      SelfPacedEnsemble::AlphaAt(AlphaSchedule::kInfinity, 3, 10);
  CompareToGolden("alpha_schedule.golden", actual, 1e-12,
                  "Algorithm 1 alpha schedule, tan(progress*pi/2) on "
                  "progress=(i-1)/(n-1)");
}

// ---------------------------------------------------------------------
// Fig. 3: per-bin drawn populations across the self-paced iterations.
// The hardness distribution is a pinned two-component mixture (mostly
// trivial samples plus a hard tail — the shape the figure illustrates);
// the per-bin draw counts are integers from a seeded Rng, so the
// comparison is exact.

TEST(PaperRegressionTest, Fig3BinPopulationsMatchGolden) {
  Rng hardness_rng(123);
  std::vector<double> hardness(5000);
  for (double& h : hardness) {
    h = hardness_rng.Index(5) == 0 ? hardness_rng.Uniform(0.6, 1.0)
                                   : hardness_rng.Uniform(0.0, 0.2);
  }

  constexpr std::size_t kBins = 10;
  constexpr std::size_t kIterations = 10;
  constexpr std::size_t kTarget = 500;
  Rng draw_rng(7);
  GoldenMap actual;
  for (std::size_t i = 1; i <= kIterations; ++i) {
    const double alpha =
        SelfPacedEnsemble::AlphaAt(AlphaSchedule::kTan, i, kIterations);
    std::vector<std::size_t> population;
    const std::vector<std::size_t> pick = SelfPacedUnderSample(
        hardness, alpha, kBins, kTarget, draw_rng, &population);
    ASSERT_EQ(population.size(), kBins);
    std::size_t drawn = 0;
    for (std::size_t b = 0; b < kBins; ++b) {
      actual["iter" + std::to_string(i) + "_bin" + std::to_string(b)] =
          static_cast<double>(population[b]);
      drawn += population[b];
    }
    // The population report must account for exactly the rows picked.
    EXPECT_EQ(drawn, pick.size()) << "iteration " << i;
  }
  CompareToGolden("fig3_bin_population.golden", actual, 0.0,
                  "Fig. 3 per-bin draw counts, seeded mixture hardness");
}

// ---------------------------------------------------------------------
// Table 2 (checkerboard column): SPE10 scored on a held-out set from
// the paper's Sec. VI-A generator. Seeded end to end, and the repo's
// determinism contract makes the run thread-count-invariant, so the
// tolerance only has to absorb libm variation across toolchains.

TEST(PaperRegressionTest, CheckerboardTable2CellMatchesGolden) {
  CheckerboardConfig train_config;  // paper defaults: 1000/10000, IR = 10
  // Fig. 5's low-noise setting: with covariance 0.10 the 4x4 cells
  // overlap enough that the cell scores hover near 0.5 and the golden
  // would mostly pin label noise; 0.05 keeps the grid separable so the
  // pinned scores sit in the high-signal regime Table 2 reports.
  train_config.covariance = 0.05;
  CheckerboardConfig test_config = train_config;
  Rng rng(42);
  const Dataset train = MakeCheckerboard(train_config, rng);
  const Dataset test = MakeCheckerboard(test_config, rng);

  SelfPacedEnsembleConfig config;
  config.n_estimators = 10;
  config.seed = 42;
  SelfPacedEnsemble model(config,
                          std::make_unique<DecisionTree>(DecisionTreeConfig{}));
  model.Fit(train);
  const ScoreSummary scores =
      Evaluate(test.labels(), model.PredictProba(test));

  GoldenMap actual;
  actual["aucprc"] = scores.aucprc;
  actual["f1"] = scores.f1;
  actual["gmean"] = scores.gmean;
  actual["mcc"] = scores.mcc;
  CompareToGolden("checkerboard_table2.golden", actual, 5e-3,
                  "SPE10 on seeded 4x4 checkerboard (IR=10), Table 2 "
                  "criteria at threshold 0.5");

  // The scores must also clear the paper's qualitative bar: SPE beats
  // the random-guess AUCPRC baseline (prevalence ~ 1/11) by a wide
  // margin on this easy synthetic geometry.
  EXPECT_GT(scores.aucprc, 0.5);
  EXPECT_GT(scores.f1, 0.5);

  // Fit ran instrumented (obs defaults on): the final iteration's alpha
  // gauge must show the schedule's terminal +inf and the bin-population
  // gauges must be populated — the observable side of the same run.
  if (obs::Enabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    EXPECT_TRUE(std::isinf(registry.GetGauge("spe_fit_alpha").value()));
    double population = 0.0;
    for (std::size_t b = 0; b < config.num_bins; ++b) {
      population += registry
                        .GetGauge("spe_fit_bin_population{bin=\"" +
                                  std::to_string(b) + "\"}")
                        .value();
    }
    EXPECT_GT(population, 0.0);
  }
}

}  // namespace
}  // namespace spe
