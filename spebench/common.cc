#include "common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

#include <dirent.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include "spe/kernels/flat_forest.h"

namespace spebench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Quoted(const std::string& s) {
  std::string out(1, '"');
  out += JsonEscape(s);
  out += '"';
  return out;
}

}  // namespace

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Flags::Flags(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      Fail("bad argument '" + arg + "' (expected --key value pairs)");
    }
    values_[arg.substr(2)] = argv[++i];
  }
}

std::string Flags::Get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) Fail("missing --" + key);
  return it->second;
}

long Flags::GetInt(const std::string& key) const {
  const std::string v = Get(key);
  char* end = nullptr;
  const long n = std::strtol(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') Fail("--" + key + " wants an integer");
  return n;
}

double Flags::GetDouble(const std::string& key) const {
  const std::string v = Get(key);
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') Fail("--" + key + " wants a number");
  return x;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}


double FastTenthMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  values.resize(std::max<std::size_t>(1, values.size() / 10));
  return Mean(values);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonArray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += Quoted(values[i]);
  }
  return out + "]";
}

void JsonObject::Num(const std::string& key, double value) {
  char buf[40];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  fields_.emplace_back(key, buf);
}

void JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quoted(value));
}

void JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ',';
    out += Quoted(fields_[i].first);
    out += ':';
    out += fields_[i].second;
  }
  return out + "}";
}

std::uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  in >> cpu;
  for (std::uint64_t& f : field) in >> f;
  return in ? field[7] : 0;
}

double StealShareSince(std::uint64_t steal_ticks, Clock::time_point t0) {
  const double cpu_ticks = SecondsSince(t0) *
                           static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)) *
                           static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(StealTicks() - steal_ticks) / cpu_ticks;
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

// Inputs of the host-speed reference, made once per process from a fixed
// xorshift stream and never timed.
struct ReferenceInputs {
  std::string text;                  // 25k decimal numbers, comma-separated
  std::vector<double> values;        // 32k doubles to sort
  std::vector<std::uint32_t> chain;  // a single random cycle over 8M slots
  double footprint_mb = 0.0;

  ReferenceInputs() {
    const double rss_before = RssMb();
    std::uint64_t x = 88172645463325252ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    char buf[32];
    for (int i = 0; i < 25000; ++i) {
      const double v = static_cast<double>(next() >> 11) * 0x1.0p-53 * 1000.0;
      const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
      text.append(buf, r.ptr);
      text += ',';
    }
    values.resize(1 << 15);
    for (double& v : values) v = static_cast<double>(next() >> 11);
    chain.resize(1 << 23);
    for (std::uint32_t i = 0; i < chain.size(); ++i) chain[i] = i;
    for (std::size_t i = chain.size() - 1; i > 0; --i) {
      std::swap(chain[i], chain[next() % (i + 1)]);
    }
    footprint_mb = RssMb() - rss_before;
  }
};

// Made on the first HostSpeed::Sample(), never freed.
const ReferenceInputs* g_reference_inputs = nullptr;

volatile double g_reference_sink = 0.0;

double StatusMb(const std::string& pid, const std::string& key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

std::map<int, double> TaskCpuSeconds(int pid) {
  std::map<int, double> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    double ns = 0.0;
    if (in >> ns) out[std::atoi(e->d_name)] = ns * 1e-9;
  }
  closedir(d);
  return out;
}

void HostSpeed::Sample() {
  if (g_reference_inputs == nullptr) g_reference_inputs = new ReferenceInputs();
  const ReferenceInputs& in = *g_reference_inputs;
  const double t0 = ThreadCpuSeconds();
  double sum = 0.0;
  const char* p = in.text.data();
  const char* const end = p + in.text.size();
  while (p < end) {
    double v = 0.0;
    p = std::from_chars(p, end, v).ptr + 1;
    sum += v;
  }
  std::vector<double> sorted = in.values;
  std::sort(sorted.begin(), sorted.end());
  sum += sorted[sorted.size() / 2];
  std::uint32_t j = 0;
  for (int i = 0; i < (1 << 15); ++i) j = in.chain[j];
  g_reference_sink = sum + j;
  samples_.push_back(ThreadCpuSeconds() - t0);
}

double HostSpeed::FootprintMb() {
  return g_reference_inputs == nullptr ? 0.0 : g_reference_inputs->footprint_mb;
}

double HostSpeed::Factor(std::size_t begin, std::size_t end) const {
  end = std::min(end, samples_.size());
  if (begin >= end) return 1.0;
  const std::vector<double> range(samples_.begin() + static_cast<std::ptrdiff_t>(begin),
                                  samples_.begin() + static_cast<std::ptrdiff_t>(end));
  return kNominalS / Mean(range);
}

double PeakRssMb(const std::string& pid) { return StatusMb(pid, "VmHWM:"); }

double RssMb(const std::string& pid) { return StatusMb(pid, "VmRSS:"); }

void AddHostStamp(JsonObject& out) {
  out.Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string mask = "unknown";
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    // Hex mask, lowest CPU in the lowest bit, as taskset prints it.
    std::string hex;
    for (int base = 0; base < CPU_SETSIZE; base += 4) {
      int nibble = 0;
      for (int b = 0; b < 4; ++b) {
        if (CPU_ISSET(base + b, &set)) nibble |= 1 << b;
      }
      hex.insert(hex.begin(), "0123456789abcdef"[nibble]);
    }
    const std::size_t first = hex.find_first_not_of('0');
    mask = "0x" + (first == std::string::npos ? "0" : hex.substr(first));
  }
  out.Str("affinity", mask);
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  out.Str("cpu_model", model);
  out.Str("simd_isa", spe::kernels::SimdIsa());
  out.Str("build_type", SPEBENCH_BUILD_TYPE);
  out.Str("cxx_flags", SPEBENCH_CXX_FLAGS);
  out.Str("compiler", SPEBENCH_COMPILER);
  out.Str("simd_option", SPEBENCH_SIMD_OPTION);
  const char* threads = std::getenv("SPE_THREADS");
  out.Str("spe_threads", threads != nullptr ? threads : "");
  const char* obs = std::getenv("SPE_OBS");
  out.Str("spe_obs", obs != nullptr ? obs : "");
}

std::size_t CountCsvColumns(const std::string& path) {
  std::ifstream in(path);
  std::string header;
  if (!std::getline(in, header)) Fail("empty csv " + path);
  return 1 + static_cast<std::size_t>(std::count(header.begin(), header.end(), ','));
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "spebench: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace spebench
