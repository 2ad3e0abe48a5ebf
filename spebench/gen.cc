// `spe_bench gen`: makes a workload's inputs from its seed.
//
// Runs in its own process so that its memory high-water mark is not
// charged to the fit process. Writes train.csv and test.csv (stratified
// split, header row, label last) into --dir. Values are printed
// in shortest round-trip form, so the parser reads back the exact
// doubles the generator drew.

#include <charconv>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "common.h"
#include "spe/common/rng.h"
#include "spe/data/simulated.h"
#include "spe/data/split.h"

namespace spebench {
namespace {

// Share of the rows held out as test.csv: the AUCPRC set and the rows the
// serve half sends.
constexpr double kTestFraction = 0.2;

void WriteCsv(const spe::Dataset& data, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) Fail("cannot write " + path);
  const std::size_t d = data.num_features();
  std::string buf;
  for (std::size_t c = 0; c < d; ++c) {
    buf += 'f';
    buf += std::to_string(c);
    buf += ',';
  }
  buf += "label\n";
  char num[32];
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      const auto res = std::to_chars(num, num + sizeof(num), data.At(r, c));
      buf.append(num, res.ptr);
      buf += ',';
    }
    buf += data.Label(r) != 0 ? "1\n" : "0\n";
    if (buf.size() > (1u << 20)) {
      std::fwrite(buf.data(), 1, buf.size(), f);
      buf.clear();
    }
  }
  std::fwrite(buf.data(), 1, buf.size(), f);
  // Flushed to disk here, so that writeback of a few hundred MB does not
  // run under the fit process's timed loads and fits.
  if (std::fflush(f) != 0 || fsync(fileno(f)) != 0 || std::fclose(f) != 0) {
    Fail("cannot write " + path);
  }
}

}  // namespace

int RunGen(const Flags& flags) {
  const std::string dataset = flags.Get("dataset");
  const double scale = flags.GetDouble("scale");
  const std::string dir = flags.Get("dir");
  spe::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed")));
  spe::Dataset data;
  if (dataset == "credit_fraud") {
    data = spe::MakeCreditFraudSim(rng, scale);
  } else if (dataset == "payment") {
    data = spe::MakePaymentSim(rng, scale);
  } else {
    Fail("unknown dataset " + dataset);
  }
  const spe::TrainTest split =
      spe::StratifiedSplit2(data, 1.0 - kTestFraction, rng);
  WriteCsv(split.train, dir + "/train.csv");
  WriteCsv(split.test, dir + "/test.csv");
  JsonObject out;
  out.Num("train_rows", static_cast<double>(split.train.num_rows()));
  out.Num("train_positives", static_cast<double>(split.train.CountPositives()));
  out.Num("test_rows", static_cast<double>(split.test.num_rows()));
  out.Num("features", static_cast<double>(data.num_features()));
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace spebench
