// Shared helpers of spe_bench: flags, clocks, order
// statistics, a flat JSON object writer, process memory and the host /
// build stamp.
#ifndef SPEBENCH_COMMON_H_
#define SPEBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spebench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);

/// `--key value` pairs after the subcommand. Unknown or missing keys
/// are the caller's business: Get aborts with a usage message when a
/// required key is absent.
class Flags {
 public:
  Flags(int argc, char** argv);
  std::string Get(const std::string& key) const;
  long GetInt(const std::string& key) const;
  double GetDouble(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Order statistic with linear interpolation, q in [0, 1]. Empty input
/// gives 0.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);
/// Mean of the smallest tenth of the values (at least one). For times
/// of a millisecond-scale operation on a shared host, which fall in a
/// fast mode and slower ones whose mix changes from run to run, this
/// follows the fast mode: the cost of the work when the host does not
/// get in the way.
double FastTenthMean(std::vector<double> values);

/// One JSON object of named numbers and strings, written in insertion
/// order. Numbers print with 17 significant digits so measured values
/// keep all their digits.
class JsonObject {
 public:
  void Num(const std::string& key, double value);
  void Str(const std::string& key, const std::string& value);
  void Raw(const std::string& key, const std::string& json);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonArray(const std::vector<double>& values);
std::string JsonArray(const std::vector<std::string>& values);

/// Hypervisor steal time of the whole machine so far, in clock ticks
/// (the steal column of /proc/stat; 0 where the kernel reports none).
std::uint64_t StealTicks();

/// Share of the machine's CPU time (all CPUs) the hypervisor stole
/// between (`steal_ticks`, `t0`) and now.
double StealShareSince(std::uint64_t steal_ticks, Clock::time_point t0);

/// CPU time (user + system) of this whole process and of the calling
/// thread, seconds. Time spent waiting for a CPU is not in it, nor, on a
/// kernel that accounts steal time, time the hypervisor stole.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// CPU time of each live thread of process `pid` so far, seconds, by
/// thread id (the first field of /proc/<pid>/task/<tid>/schedstat).
std::map<int, double> TaskCpuSeconds(int pid);

/// Host speed, from a fixed reference computation that belongs to the
/// benchmark, not to the program: parsing decimal text, sorting doubles
/// and a random pointer chase through 32 MB (the CSV parser's, the split
/// scans' and the tree walks' kinds of work), about 10 ms of CPU. On a
/// shared VM the CPU time of the same work drifts with the host (clock
/// frequency, other tenants on the same cores and caches) by up to 2x
/// between hours. The benchmark samples the reference beside its
/// measurements and scales CPU times to the speed of the host it was
/// tuned on (README.md, "Host speed").
class HostSpeed {
 public:
  /// Runs the reference once and records its thread CPU time.
  void Sample();
  /// kNominalS / the mean of samples [begin, end): a CPU time measured
  /// while those samples were taken, times this, is that time on a host
  /// where the reference takes kNominalS. Below 1 on a slower host.
  double Factor(std::size_t begin = 0, std::size_t end = SIZE_MAX) const;
  const std::vector<double>& samples() const { return samples_; }
  /// Resident size of the reference's inputs, made on the first Sample()
  /// and kept for the life of the process; 0 before. A peak RSS that
  /// should describe the program subtracts it.
  static double FootprintMb();

  /// Mean CPU time of the reference on the tuning host.
  static constexpr double kNominalS = 0.0110;

 private:
  std::vector<double> samples_;
};

/// Peak resident set (VmHWM) of process `pid` ("self" for this one), MB.
double PeakRssMb(const std::string& pid = "self");
/// Current resident set (VmRSS) of process `pid`, MB.
double RssMb(const std::string& pid = "self");

/// Host and build facts every result carries (see README.md, "Stamp").
void AddHostStamp(JsonObject& out);

/// Number of columns in the header line of a CSV file; aborts when the
/// file is empty.
std::size_t CountCsvColumns(const std::string& path);

/// Whole file as bytes; aborts when it cannot be read.
std::string ReadFileBytes(const std::string& path);

/// Prints "spebench: <message>" to stderr and exits with status 1.
[[noreturn]] void Fail(const std::string& message);

}  // namespace spebench

#endif  // SPEBENCH_COMMON_H_
