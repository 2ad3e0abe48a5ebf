// `spe_bench fit`: the data → core → classifiers → io half of the path.
//
// Loads train.csv through LoadCsvCached kLoads times (cold: the
// sidecar is removed before each load, so every load parses and
// publishes it; warm: the sidecar is published once before timing and
// every load adopts it through mmap) and, interleaved with the loads,
// fits SPE over the workload's base learner --fits times, saves each
// artifact and scores the held-out test.csv. Every fit must produce the
// same artifact bytes and the same AUCPRC. Last, one fit of the partner
// learner gives the second artifact that the serve half hot-reloads
// against.
//
// Loads and fits are timed in CPU time of the whole process, each scaled
// by the HostSpeed samples taken just before and just after it (README.md,
// "Host speed"); their wall times go to the results file.
//
// With --trace 1 the fits alternate between spe::obs off and on: the
// untraced ones give the tracing overhead, the traced ones the per-layer
// numbers, read from the per-name span aggregates (never from the
// bounded trace ring) and checked against the bench's own clock through
// the public iteration callback. Layer calls the library makes no span
// for (standalone member fits, artifact save/load) are timed here, from
// outside, at the call into the layer's public function.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/common/rng.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/data/csv.h"
#include "spe/data/matrix.h"
#include "spe/data/mmap_cache.h"
#include "spe/io/model_io.h"
#include "spe/metrics/metrics.h"
#include "spe/obs/metrics.h"
#include "spe/obs/trace.h"

namespace spebench {
namespace {

// SPE10, the ensemble size the paper reports its main results with.
constexpr std::size_t kEstimators = 10;
// Timed LoadCsvCached calls per run; setup_s is their median.
constexpr int kLoads = 3;
// HostSpeed samples before each step (a load and a fit, or a fit) and
// after the last.
constexpr int kReferencesPerStep = 4;
// The fit stage spans must account for the traced fit wall time within
// this share (README.md, "Stage tolerance").
constexpr double kStageTolerancePct = 10.0;

std::unique_ptr<spe::Classifier> MakeBase(const std::string& kind) {
  if (kind == "dt") return std::make_unique<spe::DecisionTree>();
  if (kind == "gbdt") return std::make_unique<spe::Gbdt>();
  Fail("unknown base learner " + kind);
}

// Spans SelfPacedEnsemble::Fit records; bin_harmonize nests inside
// under_sample and is already part of it.
constexpr const char* kStageSpans[] = {
    "spe.fit.member_fit", "spe.fit.member_predict", "spe.fit.hardness",
    "spe.fit.under_sample", "spe.fit.hardness_baseline"};

double SpanSeconds(const std::map<std::string, spe::obs::SpanStats>& after,
                   const std::map<std::string, spe::obs::SpanStats>& before,
                   const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0.0;
  const auto b = before.find(name);
  const std::uint64_t base = b == before.end() ? 0 : b->second.total_us;
  return static_cast<double>(a->second.total_us - base) / 1e6;
}

struct FitRecord {
  double fit_s = 0.0;  // wall
  double cpu_s = 0.0;  // CPU time of the process, all threads
  double save_s = 0.0;
  double aucprc = 0.0;
  std::string artifact;
  bool traced = false;
  double loop_wall_s = 0.0;  // fit start -> last iteration callback
  double tail_wall_s = 0.0;  // last iteration callback -> fit return
  std::size_t iterations = 0;
  std::uint64_t materialize_bytes = 0;  // data-layer copies inside Fit
};

FitRecord FitOnce(const std::string& base, std::uint64_t seed,
                  const spe::Dataset& train, const spe::Dataset& test,
                  const std::string& artifact_path) {
  spe::SelfPacedEnsembleConfig config;
  config.n_estimators = kEstimators;
  config.seed = seed;
  spe::SelfPacedEnsemble model(config, MakeBase(base));
  FitRecord rec;
  Clock::time_point last_callback;
  model.set_iteration_callback([&](const spe::IterationInfo& info) {
    last_callback = Clock::now();
    rec.iterations = info.iteration;
  });
  const std::uint64_t copies = spe::GetDataCopyStats().materialize_bytes;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  model.Fit(train);
  const Clock::time_point t1 = Clock::now();
  rec.cpu_s = ProcessCpuSeconds() - cpu0;
  rec.materialize_bytes = spe::GetDataCopyStats().materialize_bytes - copies;
  rec.fit_s = std::chrono::duration<double>(t1 - t0).count();
  rec.loop_wall_s = std::chrono::duration<double>(last_callback - t0).count();
  rec.tail_wall_s = std::chrono::duration<double>(t1 - last_callback).count();
  const Clock::time_point s0 = Clock::now();
  spe::SaveModelBundleToFile(model, train.num_features(), artifact_path);
  rec.save_s = SecondsSince(s0);
  rec.artifact = ReadFileBytes(artifact_path);
  rec.aucprc = spe::AucPrc(test.labels(), model.PredictProba(test));
  return rec;
}

// rows / second of the median of `reps` timed calls of `fn` over `rows`.
template <typename Fn>
double RowsPerSecond(std::size_t rows, int reps, Fn&& fn) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    secs.push_back(SecondsSince(t0));
  }
  return static_cast<double>(rows) / Median(secs);
}

}  // namespace

int RunFit(const Flags& flags) {
  const std::string dir = flags.Get("dir");
  const std::string base = flags.Get("base");
  const std::string partner = flags.Get("partner");
  const bool warm = flags.Get("cache") == "warm";
  const int fits = static_cast<int>(flags.GetInt("fits"));
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  const bool trace = flags.GetInt("trace") != 0;
  const std::uint64_t run_steal = StealTicks();
  const Clock::time_point run_t0 = Clock::now();
  spe::obs::SetEnabled(false);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  auto check = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
      std::fprintf(stderr, "spebench: check failed: %s\n", what.c_str());
    }
  };

  // ---- data: LoadCsvCached -------------------------------------------
  const std::string csv = dir + "/train.csv";
  const std::size_t label_column = CountCsvColumns(csv) - 1;
  const double csv_mb =
      static_cast<double>(std::filesystem::file_size(csv)) / 1e6;
  const std::string sidecar = spe::SidecarPathFor(csv);
  double prime_s = 0.0;
  if (warm) {
    std::filesystem::remove(sidecar);
    const Clock::time_point t0 = Clock::now();
    spe::LoadCsvCached(csv, label_column);
    prime_s = SecondsSince(t0);
  }
  const spe::Dataset test = spe::LoadCsv(dir + "/test.csv", label_column);

  // ---- loads and repeated SPE fits, interleaved ---------------------------
  // Load, fit, load, fit, ..., then the remaining fits: a host stall of a
  // few seconds then hits one or two of each, not a run of consecutive
  // ones that would move the medians.
  HostSpeed speed;
  // Index of the first HostSpeed sample before each step, and after the
  // last: step i is scaled by samples [marks[i], marks[i + 2]).
  std::vector<std::size_t> marks;
  std::vector<double> load_s;
  std::vector<double> load_cpu_s;
  spe::SidecarStatus state_before = spe::SidecarStatus::kAbsent;
  spe::Dataset train;
  std::vector<FitRecord> records;
  std::map<std::string, spe::obs::SpanStats> spans_before;
  std::map<std::string, spe::obs::SpanStats> spans_after;
  std::uint64_t iterations_before = 0;
  bool spans_taken = false;
  const int total_fits = trace ? 2 * fits : fits;
  auto& iterations_counter = spe::obs::MetricsRegistry::Global().GetCounter(
      "spe_fit_iterations_total");
  for (int i = 0; i < std::max(kLoads, total_fits); ++i) {
    marks.push_back(speed.samples().size());
    for (int k = 0; k < kReferencesPerStep; ++k) speed.Sample();
    if (i < kLoads) {
      if (!warm) std::filesystem::remove(sidecar);
      state_before = spe::InspectSidecar(csv, label_column).status;
      check(state_before == (warm ? spe::SidecarStatus::kValid
                                  : spe::SidecarStatus::kAbsent),
            std::string("sidecar before load reads ") +
                spe::SidecarStatusName(state_before));
      train = spe::Dataset();  // drop the previous mapping/columns first
      const double cpu0 = ProcessCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      train = spe::LoadCsvCached(csv, label_column);
      load_s.push_back(SecondsSince(t0));
      load_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
      // A cold load published a sidecar; flush it so that its writeback
      // does not run under the next timed step.
      if (const int fd = open(sidecar.c_str(), O_RDONLY); fd >= 0) {
        fsync(fd);
        close(fd);
      }
    }
    if (i >= total_fits) continue;
    const bool traced = trace && i % 2 == 1;
    spe::obs::SetEnabled(traced);
    if (traced && !spans_taken) {
      spans_before = spe::obs::SpanAggregates();
      iterations_before = iterations_counter.value();
      spans_taken = true;
    }
    FitRecord rec = FitOnce(base, seed, train, test, dir + "/fit.model");
    rec.traced = traced;
    spe::obs::SetEnabled(false);
    if (!records.empty()) {
      check(rec.artifact == records.front().artifact,
            "fit " + std::to_string(i) + " artifact bytes differ from fit 0");
      check(rec.aucprc == records.front().aucprc,
            "fit " + std::to_string(i) + " AUCPRC differs from fit 0");
    } else {
      std::filesystem::rename(dir + "/fit.model", dir + "/primary.model");
    }
    records.push_back(std::move(rec));
  }
  spans_after = spe::obs::SpanAggregates();
  marks.push_back(speed.samples().size());
  for (int k = 0; k < kReferencesPerStep; ++k) speed.Sample();
  marks.push_back(speed.samples().size());
  auto factor = [&](std::size_t step) {
    return speed.Factor(marks[step], marks[step + 2]);
  };
  std::vector<double> load_scaled;
  for (std::size_t i = 0; i < load_cpu_s.size(); ++i) {
    load_scaled.push_back(load_cpu_s[i] * factor(i));
  }

  std::vector<double> fit_untraced;
  std::vector<double> fit_untraced_cpu;
  std::vector<double> fit_traced;
  std::vector<double> fit_traced_cpu;
  std::vector<double> fit_scaled;  // untraced
  std::vector<double> save_s;
  double loop_wall_s = 0.0;
  double tail_wall_s = 0.0;
  double materialize_bytes = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FitRecord& rec = records[i];
    (rec.traced ? fit_traced : fit_untraced).push_back(rec.fit_s);
    (rec.traced ? fit_traced_cpu : fit_untraced_cpu).push_back(rec.cpu_s);
    if (!rec.traced) fit_scaled.push_back(rec.cpu_s * factor(i));
    save_s.push_back(rec.save_s);
    if (rec.traced) {
      loop_wall_s += rec.loop_wall_s;
      tail_wall_s += rec.tail_wall_s;
      materialize_bytes += static_cast<double>(rec.materialize_bytes);
    }
  }

  // The partner artifact: same data, the other base learner.
  const FitRecord partner_rec =
      FitOnce(partner, seed, train, test, dir + "/partner.model");
  check(partner_rec.iterations == kEstimators, "partner fit iterations");

  JsonObject out;
  out.Num("setup_s", Median(load_scaled));
  out.Num("fit_cpu_s", Median(fit_scaled));
  out.Num("speed_factor", speed.Factor());
  out.Raw("reference_cpu_s", JsonArray(speed.samples()));
  out.Num("aucprc", records.front().aucprc);
  out.Num("partner_fit_s", partner_rec.fit_s);
  out.Num("partner_aucprc", partner_rec.aucprc);
  out.Num("fits", static_cast<double>(fits));
  out.Raw("fit_times_s", JsonArray(fit_untraced));
  out.Raw("fit_cpu_times_s", JsonArray(fit_untraced_cpu));
  out.Raw("load_times_s", JsonArray(load_s));
  out.Raw("load_cpu_times_s", JsonArray(load_cpu_s));
  out.Num("train_rows", static_cast<double>(train.num_rows()));

  if (trace) {
    JsonObject layers;
    // data
    layers.Num("data.load_s", Median(load_s));
    layers.Num("data.parse_mb_per_s", csv_mb / (warm ? prime_s : Median(load_s)));
    // Codes: 1 absent, 2 stale, 3 corrupt, 4 valid.
    layers.Num("data.sidecar_state", static_cast<double>(state_before) + 1.0);
    layers.Num("data.materialize_bytes",
               materialize_bytes / static_cast<double>(fit_traced.size()));
    // core: per-fit seconds from the span aggregates of the traced fits
    const double traced_fits = static_cast<double>(fit_traced.size());
    double fit_total = 0.0;
    for (const double s : fit_traced) fit_total += s;
    double stage_sum = 0.0;
    for (const char* name : kStageSpans) {
      const double s = SpanSeconds(spans_after, spans_before, name);
      stage_sum += s;
      std::string key = std::string("core.fit.") + (name + 8) + "_s";
      layers.Num(key, s / traced_fits);
    }
    const double self_s = fit_total - stage_sum;
    layers.Num("core.fit.self_s", self_s / traced_fits);
    layers.Num("core.fit.iterations",
               static_cast<double>(iterations_counter.value() -
                                   iterations_before) /
                   traced_fits);
    layers.Num("core.fit.accounted_pct", 100.0 * stage_sum / fit_total);
    // Wall time of the untraced fits: a fit that spreads the same work
    // over more threads moves this, not fit_cpu_s.
    layers.Num("core.fit.wall_s", Median(fit_untraced));
    // Cross-check against the bench's own clock: the loop stages all run
    // between Fit's start and the last iteration callback, the hardness
    // baseline after it. Either side exceeding its wall interval means
    // the aggregates double count.
    const double baseline =
        SpanSeconds(spans_after, spans_before, "spe.fit.hardness_baseline");
    const double slack = 0.002 * traced_fits;
    check(stage_sum - baseline <= loop_wall_s + slack,
          "fit stage spans exceed the callback-timed loop");
    check(baseline <= tail_wall_s + slack,
          "hardness_baseline span exceeds the time after the last callback");
    check(100.0 * self_s / fit_total <= kStageTolerancePct,
          "fit stages leave more than the stated tolerance unaccounted");
    layers.Num("obs.trace_overhead_pct",
               100.0 * (Median(fit_traced_cpu) / Median(fit_untraced_cpu) - 1.0));
    layers.Num("obs.fit_ring_dropped",
               static_cast<double>(spe::obs::TraceRing::Global().dropped()));

    // classifiers: standalone fits on a balanced subset shaped like one
    // SPE member (all positives + as many random negatives), and the
    // reference member PredictProba over the whole majority set.
    spe::Rng rng(seed);
    const std::vector<std::size_t> pos = train.PositiveIndices();
    const std::vector<std::size_t> neg = train.NegativeIndices();
    std::vector<std::size_t> subset = pos;
    for (const std::size_t k : rng.SampleWithoutReplacement(neg.size(), pos.size())) {
      subset.push_back(neg[k]);
    }
    const spe::DatasetView full(train);
    const spe::DatasetView balanced = full.WithIndices(subset);
    const spe::DatasetView majority = full.WithIndices(neg);
    for (const std::string kind : {"dt", "gbdt"}) {
      layers.Num("classifiers." + kind + ".fit_rows_per_s",
                 RowsPerSecond(subset.size(), 5, [&] {
                   MakeBase(kind)->Fit(balanced);
                 }));
    }
    std::unique_ptr<spe::Classifier> member = MakeBase(base);
    member->Fit(balanced);
    layers.Num("classifiers.predict_rows_per_s",
               RowsPerSecond(neg.size(), 3, [&] {
                 const std::vector<double> p = member->PredictProba(majority);
                 if (p.size() != neg.size()) Fail("short prediction");
               }));
    // io
    layers.Num("io.save_s", Median(save_s));
    std::vector<double> io_load_s;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t0 = Clock::now();
      const spe::ModelBundle bundle =
          spe::LoadModelBundleFromFile(dir + "/primary.model");
      io_load_s.push_back(SecondsSince(t0));
    }
    layers.Num("io.load_s", Median(io_load_s));
    layers.Num("io.artifact_bytes",
               static_cast<double>(records.front().artifact.size()));
    out.Raw("layers", layers.Render());
  }

  out.Num("peak_rss_mb", PeakRssMb() - HostSpeed::FootprintMb());
  out.Num("reference_footprint_mb", HostSpeed::FootprintMb());
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Raw("failures", JsonArray(failures));
  out.Num("host_steal_pct", 100.0 * StealShareSince(run_steal, run_t0));
  JsonObject stamp;
  AddHostStamp(stamp);
  out.Raw("stamp", stamp.Render());
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace spebench
