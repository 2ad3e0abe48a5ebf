// `spe_bench serve`: the artifact → lifecycle → kernels → serve → client
// half of the path, against the real spe_serve binary.
//
// Phases, in order, all over the binary wire protocol on loopback:
//   1. startup  spawn spe_serve on primary.model and time spawn →
//               first correct response (artifact probe, load, kernel
//               compile, listen), in wall time and in the server's CPU
//               time. This server stays up; at the start of every round
//               a second one is started and stopped kStartupsPerRound
//               times more, so that the start-up figure samples the
//               whole run, not one moment of it.
// Then kRounds rounds of the traffic phases, each round in this order:
//   2. fixed    open-loop single-row traffic at the fixed rate, timed
//               from each request's due send time: serve p50 / p99.
//               With --trace 1 it runs a second time against a second
//               spe_serve with spe::obs off: the tracing overhead.
//   3. reload   the fixed rate again while a control connection sends
//               `!reload` frames alternating partner.model and
//               primary.model at a fixed interval; each reload is timed
//               in wall time and in the CPU time of the server thread
//               that did it.
//   4. ladder   with --trace 1 only, one climb: the same traffic at each
//               rate of the ladder in turn; a rate passes when its p99
//               meets the limit with no failure and no growing backlog,
//               and the climb stops at the first rate that misses twice.
//               Last in the round, because its failing rate leaves the
//               server past saturation.
// Every response is checked bit-for-bit against the offline PredictProba
// of the artifact that was active: a request sent after a reload's OK
// must match the new version, a request in flight across a reload must
// match one of the two exactly, and a blend of the two is a failure.
//
// One traffic thread per connection: it sends every request that is due
// (open loop — a slow server does not slow the schedule), writes without
// blocking, and reads responses, which come back in request order.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "spe/data/csv.h"
#include "spe/io/model_io.h"
#include "spe/kernels/flat_forest.h"
#include "spe/lifecycle/model_registry.h"
#include "spe/serve/wire.h"

namespace spebench {
namespace {

// Scoring threads of spe_serve: the single-row path is bound by the event
// loop and the client, and one worker leaves the other CPUs to them.
constexpr int kWorkers = 1;
// Traffic connections, one client thread each; with the control
// connection at most nproc on a 4-CPU host.
constexpr int kConnections = 2;
// Timed server starts at the start of each round, beside the first one;
// serve_setup_cpu_ms is the FastTenthMean of their server CPU times.
constexpr int kStartupsPerRound = 40;
// Requests / second of the fixed-rate and reload phases: about a
// fifteenth of the knee, so that a host running at half speed still
// serves it without a queue.
constexpr double kFixedRps = 20000.0;
constexpr double kReloadIntervalMs = 50.0;
// Latency slice length (WindowedQuantile).
constexpr double kWindowS = 0.1;
// Rounds of fixed rate, reloads and one ladder climb.
constexpr int kRounds = 3;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- the served model, offline ---------------------------------------

struct Version {
  std::string path;
  std::vector<double> expected;  // offline PredictProba per test row
  std::string kernel;            // kernels::ActiveKernel of the artifact
};

Version LoadVersion(const std::string& path, const spe::Dataset& test) {
  Version v;
  v.path = std::filesystem::absolute(path).string();
  const spe::ModelBundle bundle = spe::LoadModelBundleFromFile(path);
  if (bundle.num_features != test.num_features()) {
    Fail(path + ": artifact width does not match test.csv");
  }
  v.expected = bundle.model->PredictProba(test);
  v.kernel = spe::kernels::ActiveKernel(*bundle.model);
  return v;
}

// ---- the server process ----------------------------------------------

int FreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (fd < 0 || bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Fail(std::string("cannot pick a port: ") + std::strerror(errno));
  }
  close(fd);
  return ntohs(addr.sin_port);
}

int ConnectTo(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Blocking read of one response frame.
bool ReadFrame(int fd, spe::wire::DecodedResponse& out) {
  unsigned char header[spe::wire::kHeaderBytes];
  auto read_exact = [fd](unsigned char* p, std::size_t n) {
    while (n > 0) {
      const ssize_t got = recv(fd, p, n, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      p += got;
      n -= static_cast<std::size_t>(got);
    }
    return true;
  };
  if (!read_exact(header, sizeof(header))) return false;
  const spe::wire::FrameHeader h = spe::wire::DecodeHeader(header);
  if (h.magic != spe::wire::kMagic || h.payload_len > spe::wire::kMaxPayloadBytes) {
    return false;
  }
  std::vector<unsigned char> payload(h.payload_len);
  if (!read_exact(payload.data(), payload.size())) return false;
  return spe::wire::DecodeResponse(h, payload.data(), out).empty();
}

// A control-connection round trip (kStats / kMetrics / kReload).
std::string Control(int fd, spe::wire::FrameType type,
                    const std::string& payload = "") {
  std::string frame;
  spe::wire::AppendControlRequest(frame, type, payload);
  spe::wire::DecodedResponse resp;
  if (!WriteAll(fd, frame) || !ReadFrame(fd, resp)) {
    Fail("control connection to spe_serve failed");
  }
  return resp.text;
}

// One spe_serve process, with spe::obs on or off (SPE_OBS) whatever the
// benchmark's own environment says.
class Server {
 public:
  Server(std::string binary, std::vector<std::string> args, std::string log,
         bool obs)
      : binary_(std::move(binary)),
        args_(std::move(args)),
        log_(std::move(log)),
        obs_(obs) {}
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { Stop(); }

  void Start(int port) {
    port_ = port;
    std::vector<std::string> argv = {binary_, "--port", std::to_string(port)};
    argv.insert(argv.end(), args_.begin(), args_.end());
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "SPE_OBS=", 8) != 0) env.emplace_back(*e);
    }
    env.emplace_back(obs_ ? "SPE_OBS=1" : "SPE_OBS=0");
    std::vector<char*> cargv;
    for (std::string& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    std::vector<char*> cenv;
    for (std::string& e : env) cenv.push_back(e.data());
    cenv.push_back(nullptr);
    const int log_fd = open(log_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    // vfork, not fork: fork copies the page tables of this process, whose
    // traffic samples reach hundreds of MB, and that copy would be timed
    // as server start-up. The child only makes system calls and execs.
    pid_ = vfork();
    if (pid_ < 0) Fail("vfork failed");
    if (pid_ == 0) {
      // The server must never outlive the benchmark.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (log_fd >= 0) {
        dup2(log_fd, STDOUT_FILENO);
        dup2(log_fd, STDERR_FILENO);
      }
      execve(binary_.c_str(), cargv.data(), cenv.data());
      _exit(127);
    }
    if (log_fd >= 0) close(log_fd);
  }

  /// SIGTERM (graceful drain) and wait; returns the exit status, or -1
  /// when it had to be killed.
  int Stop() {
    if (pid_ <= 0) return 0;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {  // 10 s
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      usleep(10'000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return -1;
  }

  /// True once the server has exited on its own (it is then reaped).
  bool Exited() {
    int status = 0;
    if (pid_ <= 0 || waitpid(pid_, &status, WNOHANG) != pid_) return false;
    pid_ = -1;
    return true;
  }

  int pid() const { return pid_; }
  int port() const { return port_; }

 private:
  std::string binary_;
  std::vector<std::string> args_;
  std::string log_;
  bool obs_ = false;
  int pid_ = -1;
  int port_ = 0;
};

// Starts `server` on a free port and waits for a correct answer to
// `probe`: seconds from spawn to that answer, or -1 when none came.
// `cpu_s` gets the CPU time all the server's threads had used by then.
double StartAndProbe(Server& server, const std::string& probe,
                     double expected, double* cpu_s = nullptr) {
  const Clock::time_point t0 = Clock::now();
  server.Start(FreePort());
  bool ready = false;
  while (!ready && SecondsSince(t0) < 20.0 && !server.Exited()) {
    const int fd = ConnectTo(server.port());
    if (fd < 0) {
      usleep(500);
      continue;
    }
    spe::wire::DecodedResponse resp;
    ready = WriteAll(fd, probe) && ReadFrame(fd, resp) &&
            resp.type == spe::wire::FrameType::kScoreOk &&
            std::memcmp(&resp.proba, &expected, sizeof(double)) == 0;
    close(fd);
    if (!ready) break;
  }
  const double wall_s = SecondsSince(t0);
  if (cpu_s != nullptr) {
    *cpu_s = 0.0;
    for (const auto& [tid, s] : TaskCpuSeconds(server.pid())) *cpu_s += s;
  }
  return ready ? wall_s : -1.0;
}

// ---- open-loop traffic -------------------------------------------------

struct Sample {
  std::uint32_t row = 0;
  std::uint8_t status = 0;  // 0 unanswered, 1 scored, 2 error response
  double proba = 0.0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
};

struct ConnResult {
  std::vector<Sample> samples;
  std::size_t outstanding_max = 0;
  bool aborted = false;                // backlog cap hit, sending cut short
  bool io_error = false;
};

struct TrafficSpec {
  int port = 0;
  double rate = 0.0;          // requests / second, all connections
  double seconds = 0.0;       // sending window
  std::int64_t start_ns = 0;  // common schedule origin
  // A growing backlog: more than this many requests in flight on one
  // connection stops the run's sending early and fails it.
  std::size_t backlog_cap = 0;
  std::uint64_t row_seed = 0;
};

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void RunConnection(const TrafficSpec& spec, int index, const double* rows,
                   std::size_t num_rows, std::size_t width, ConnResult& out) {
  const int fd = ConnectTo(spec.port);
  if (fd < 0) {
    out.io_error = true;
    return;
  }
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  const double interval_ns = 1e9 * kConnections / spec.rate;
  const std::int64_t end_ns =
      spec.start_ns + static_cast<std::int64_t>(spec.seconds * 1e9);
  const std::int64_t drain_deadline = end_ns + 5'000'000'000;
  std::uint64_t k = 0;  // requests scheduled on this connection
  auto due_of = [&](std::uint64_t i) {
    return spec.start_ns +
           static_cast<std::int64_t>((static_cast<double>(i) +
                                      static_cast<double>(index) /
                                          kConnections) *
                                     interval_ns);
  };
  out.samples.reserve(static_cast<std::size_t>(
      spec.rate * spec.seconds / kConnections * 1.05 + 16));
  std::deque<std::size_t> inflight;  // indices into samples, in send order
  std::string outbuf;
  std::size_t out_off = 0;
  std::vector<unsigned char> inbuf;
  std::size_t in_off = 0;
  bool sending = true;
  spe::wire::DecodedResponse resp;
  for (;;) {
    std::int64_t now = NowNs();
    if (sending) {
      while (due_of(k) <= now && due_of(k) < end_ns) {
        if (inflight.size() >= spec.backlog_cap) {
          out.aborted = true;
          break;
        }
        Sample s;
        s.row = static_cast<std::uint32_t>(
            Mix(spec.row_seed ^ (static_cast<std::uint64_t>(index) << 40) ^ k) %
            num_rows);
        s.due_ns = due_of(k);
        s.sent_ns = now;
        const std::uint64_t id = out.samples.size();
        spe::wire::AppendScoreRequest(outbuf, id, rows + s.row * width, width);
        inflight.push_back(out.samples.size());
        out.samples.push_back(s);
        ++k;
      }
      out.outstanding_max = std::max(out.outstanding_max, inflight.size());
      if (due_of(k) >= end_ns || out.aborted) {
        sending = false;
      }
    }
    while (out_off < outbuf.size()) {
      const ssize_t n = send(fd, outbuf.data() + out_off, outbuf.size() - out_off,
                             MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        out.io_error = true;
        break;
      }
    }
    if (out_off == outbuf.size()) {
      outbuf.clear();
      out_off = 0;
    }
    if (out.io_error || (!sending && inflight.empty())) break;
    if (now > drain_deadline) break;

    const std::int64_t wait_ns =
        sending ? std::max<std::int64_t>(0, due_of(k) - now) : 20'000'000;
    pollfd pfd{fd, static_cast<short>(POLLIN | (outbuf.empty() ? 0 : POLLOUT)), 0};
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (ppoll(&pfd, 1, &ts, nullptr) < 0 && errno != EINTR) {
      out.io_error = true;
      break;
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    std::size_t old = inbuf.size();
    inbuf.resize(old + 65536);
    const ssize_t got = recv(fd, inbuf.data() + old, 65536, 0);
    now = NowNs();
    if (got <= 0) {
      inbuf.resize(old);
      if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      out.io_error = true;
      break;
    }
    inbuf.resize(old + static_cast<std::size_t>(got));
    while (inbuf.size() - in_off >= spe::wire::kHeaderBytes) {
      const spe::wire::FrameHeader h =
          spe::wire::DecodeHeader(inbuf.data() + in_off);
      if (h.magic != spe::wire::kMagic ||
          h.payload_len > spe::wire::kMaxPayloadBytes) {
        out.io_error = true;
        break;
      }
      if (inbuf.size() - in_off < spe::wire::kHeaderBytes + h.payload_len) break;
      const std::string error = spe::wire::DecodeResponse(
          h, inbuf.data() + in_off + spe::wire::kHeaderBytes, resp);
      in_off += spe::wire::kHeaderBytes + h.payload_len;
      if (!error.empty() || inflight.empty() || resp.id != inflight.front()) {
        out.io_error = true;
        break;
      }
      Sample& s = out.samples[inflight.front()];
      inflight.pop_front();
      s.recv_ns = now;
      if (resp.type == spe::wire::FrameType::kScoreOk && !resp.degraded) {
        s.status = 1;
        s.proba = resp.proba;
      } else {
        s.status = 2;
      }
    }
    if (out.io_error) break;
    if (in_off > (1u << 20)) {
      inbuf.erase(inbuf.begin(), inbuf.begin() + static_cast<std::ptrdiff_t>(in_off));
      in_off = 0;
    }
  }
  close(fd);
}

struct Reload {
  std::int64_t sent_ns = 0;
  std::int64_t ok_ns = 0;
  double cpu_ms = 0.0;  // CPU time of the server thread that did it
  int target = 0;  // index into the versions
  bool ok = false;
};

// Which versions may have answered a request sent at `sent` and received
// at `recv`: the one active after the last reload that completed before
// it was sent, plus the target of any reload in flight meanwhile.
std::vector<int> AllowedVersions(const std::vector<Reload>& reloads,
                                 std::int64_t sent, std::int64_t recv) {
  int active = 0;
  std::vector<int> allowed;
  for (const Reload& r : reloads) {
    if (r.ok && r.ok_ns < sent) active = r.target;
  }
  allowed.push_back(active);
  for (const Reload& r : reloads) {
    if (r.sent_ns <= recv && (!r.ok || r.ok_ns >= sent)) allowed.push_back(r.target);
  }
  return allowed;
}

struct PhaseStats {
  std::size_t sent = 0;
  std::size_t answered = 0;
  std::size_t failed = 0;      // errors, unanswered, wrong answers
  std::size_t wrong = 0;       // scored, but not the served version's bits
  std::vector<double> latency_ms;  // from due time, answered requests
  std::vector<std::int64_t> due_offset_ns;  // parallel to latency_ms
  std::vector<double> lag_ms;      // send time - due time
  // Hypervisor steal ticks of the whole machine during each latency
  // slice (see WindowedQuantile).
  std::vector<std::uint64_t> slice_steal;
  double achieved_rps = 0.0;
  std::size_t outstanding_max = 0;
  bool growing_backlog = false;
  bool io_error = false;
};

PhaseStats RunTraffic(const TrafficSpec& spec, const double* rows,
                      std::size_t num_rows, std::size_t width,
                      const std::vector<Version>& versions,
                      const std::vector<Reload>* reloads,
                      const std::function<void()>& alongside = {}) {
  std::vector<ConnResult> results(static_cast<std::size_t>(kConnections));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(RunConnection, std::cref(spec), c, rows, num_rows,
                         width, std::ref(results[static_cast<std::size_t>(c)]));
  }
  // Steal counter at every slice boundary of the sending window.
  std::vector<std::uint64_t> steal_marks;
  const std::int64_t window_ns = static_cast<std::int64_t>(kWindowS * 1e9);
  threads.emplace_back([&] {
    for (std::int64_t t = spec.start_ns;
         t <= spec.start_ns + static_cast<std::int64_t>(spec.seconds * 1e9) +
                  window_ns;
         t += window_ns) {
      const std::int64_t wait = t - NowNs();
      if (wait > 0) usleep(static_cast<useconds_t>(wait / 1000));
      steal_marks.push_back(StealTicks());
    }
  });
  if (alongside) alongside();
  for (std::thread& t : threads) t.join();

  PhaseStats st;
  for (std::size_t i = 1; i < steal_marks.size(); ++i) {
    st.slice_steal.push_back(steal_marks[i] - steal_marks[i - 1]);
  }
  const std::vector<Reload> none;
  for (const ConnResult& r : results) {
    st.io_error = st.io_error || r.io_error;
    st.outstanding_max += r.outstanding_max;
    st.growing_backlog = st.growing_backlog || r.aborted;
    for (const Sample& s : r.samples) {
      ++st.sent;
      st.lag_ms.push_back(static_cast<double>(s.sent_ns - s.due_ns) / 1e6);
      if (s.status != 1) {
        ++st.failed;
        continue;
      }
      ++st.answered;
      st.latency_ms.push_back(static_cast<double>(s.recv_ns - s.due_ns) / 1e6);
      st.due_offset_ns.push_back(s.due_ns - spec.start_ns);
      bool match = false;
      for (const int v : AllowedVersions(reloads ? *reloads : none, s.sent_ns,
                                         s.recv_ns)) {
        match = match || std::memcmp(&s.proba, &versions[v].expected[s.row],
                                     sizeof(double)) == 0;
      }
      if (!match) {
        ++st.wrong;
        ++st.failed;
      }
    }
  }
  if (st.io_error) st.failed = std::max<std::size_t>(st.failed, 1);
  st.achieved_rps = static_cast<double>(st.answered) / spec.seconds;
  return st;
}

// A slice during which the hypervisor stole this many ticks (10 ms of
// one CPU each) measured the host, not the program.
constexpr std::uint64_t kStolenSliceTicks = 2;

// Quantile q of the latencies in each kWindowS slice of each chunk (by
// due time), then the median over all slices. One host stall of a few
// milliseconds then moves one slice, not the figure; a queue that grows
// moves every slice after it starts. Slices the hypervisor stole from
// are left out, unless all were. With `fast`, the figure is instead the
// FastTenthMean over all slices, stolen or not: the latency of the
// host's quiet tenth, which holds when the hypervisor steals from every
// slice of a run (at a quarter of the machine's CPU time stolen, the
// median slice p50 rose fivefold).
double WindowedQuantile(const std::vector<PhaseStats>& chunks, double q,
                        bool fast = false) {
  const std::int64_t window_ns = static_cast<std::int64_t>(kWindowS * 1e9);
  std::vector<double> per_slice;
  std::vector<double> stolen_slice;
  std::vector<double> every_slice;
  std::vector<double> all;
  for (const PhaseStats& st : chunks) {
    std::vector<std::vector<double>> slices;
    for (std::size_t i = 0; i < st.latency_ms.size(); ++i) {
      const std::size_t w = static_cast<std::size_t>(
          std::max<std::int64_t>(0, st.due_offset_ns[i]) / window_ns);
      if (w >= slices.size()) slices.resize(w + 1);
      slices[w].push_back(st.latency_ms[i]);
    }
    for (std::size_t w = 0; w < slices.size(); ++w) {
      // A slice needs ten samples beyond its quantile to report it.
      if (static_cast<double>(slices[w].size()) * (1.0 - q) < 10.0) continue;
      const bool stolen =
          w < st.slice_steal.size() && st.slice_steal[w] >= kStolenSliceTicks;
      (stolen ? stolen_slice : per_slice).push_back(Quantile(slices[w], q));
      every_slice.push_back(Quantile(slices[w], q));
    }
    all.insert(all.end(), st.latency_ms.begin(), st.latency_ms.end());
  }
  if (fast && !every_slice.empty()) return FastTenthMean(every_slice);
  if (!per_slice.empty()) return Median(per_slice);
  return stolen_slice.empty() ? Quantile(all, q) : Median(stolen_slice);
}

// Share of a chunk's slices the hypervisor stole from.
double StolenShare(const PhaseStats& st) {
  if (st.slice_steal.empty()) return 0.0;
  std::size_t stolen = 0;
  for (const std::uint64_t t : st.slice_steal) stolen += t >= kStolenSliceTicks;
  return static_cast<double>(stolen) / static_cast<double>(st.slice_steal.size());
}

// ---- exposition parsing -----------------------------------------------

// Value of the exposition line that starts with `key` followed by a
// space; -1 when absent.
double ExpositionValue(const std::string& text, const std::string& key) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ' ') {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return -1.0;
}

// Cumulative buckets of `name` as (upper bound, count); +Inf last.
std::vector<std::pair<double, double>> Buckets(const std::string& text,
                                               const std::string& name) {
  std::vector<std::pair<double, double>> out;
  std::istringstream in(text);
  std::string line;
  const std::string prefix = name + "_bucket{le=\"";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t q = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), q - prefix.size());
    const double bound = le == "+Inf" ? INFINITY : std::strtod(le.c_str(), nullptr);
    out.emplace_back(bound, std::strtod(line.c_str() + q + 3, nullptr));
  }
  return out;
}

// Quantile of the requests recorded between two exposition snapshots,
// interpolated linearly inside the histogram bucket that holds it.
double DeltaQuantile(const std::string& before, const std::string& after,
                     const std::string& name, double q) {
  const auto a = Buckets(after, name);
  const auto b = Buckets(before, name);
  auto count_at = [](const std::vector<std::pair<double, double>>& v, double bound) {
    double c = 0.0;
    for (const auto& [ub, n] : v) {
      if (ub <= bound) c = n;
    }
    return c;
  };
  if (a.empty()) return 0.0;
  const double total = a.back().second - (b.empty() ? 0.0 : b.back().second);
  if (total <= 0) return 0.0;
  const double target = q * total;
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [ub, n] : a) {
    const double cum = n - count_at(b, ub);
    if (cum >= target) {
      if (!std::isfinite(ub)) return lower;
      return lower + (ub - lower) * (target - below) / std::max(cum - below, 1.0);
    }
    lower = ub;
    below = cum;
  }
  return lower;
}

double JsonField(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

double SpanMeanUs(const std::string& exposition, const std::string& span) {
  const double count =
      ExpositionValue(exposition, "spe_span_count{span=\"" + span + "\"}");
  const double total =
      ExpositionValue(exposition, "spe_span_total_us{span=\"" + span + "\"}");
  return count > 0 ? total / count : 0.0;
}

}  // namespace

int RunServe(const Flags& flags) {
  const std::string dir = flags.Get("dir");
  const bool trace = flags.GetInt("trace") != 0;
  const double seconds = flags.GetDouble("seconds");
  const double p99_limit_ms = flags.GetDouble("p99-limit-ms");
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  std::vector<double> ladder;
  {
    std::istringstream in(flags.Get("ladder"));
    std::string item;
    while (std::getline(in, item, ',')) ladder.push_back(std::stod(item));
  }
  // Share of --seconds each traffic phase gets over all rounds: half
  // each to the fixed rate and to the reloads; with --trace 1, a fifth
  // each, and the rest to the ladder climbs (each rate of each climb an
  // equal slice, though a climb usually stops early). The climbs run
  // the host's CPUs flat out and leave a backlog behind them, so the
  // untraced run, whose figures are the end-to-end metrics, makes none.
  const double fixed_s = seconds * (trace ? 0.2 : 0.5);
  const double reload_s = seconds * (trace ? 0.2 : 0.5);
  const double ladder_s =
      seconds * 0.6 / static_cast<double>(kRounds * static_cast<int>(ladder.size()));
  const std::uint64_t run_steal = StealTicks();
  const Clock::time_point run_t0 = Clock::now();

  // Offline truth: the held-out rows, and each artifact's scores on them.
  const std::string test_csv = dir + "/test.csv";
  const spe::Dataset test = spe::LoadCsv(test_csv, CountCsvColumns(test_csv) - 1);
  const std::size_t width = test.num_features();
  std::vector<double> rows(test.num_rows() * width);
  for (std::size_t r = 0; r < test.num_rows(); ++r) {
    for (std::size_t c = 0; c < width; ++c) rows[r * width + c] = test.At(r, c);
  }
  const std::vector<Version> versions = {LoadVersion(dir + "/primary.model", test),
                                         LoadVersion(dir + "/partner.model", test)};

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& what, std::size_t count = 1) {
    failed += count;
    failures.push_back(what);
    std::fprintf(stderr, "spebench: check failed: %s\n", what.c_str());
  };

  // ---- 1. startup ------------------------------------------------------
  const std::vector<std::string> server_args = {
      "--model", versions[0].path, "--workers", std::to_string(kWorkers),
      "--stats-interval-ms", "0"};
  Server server(SPEBENCH_SERVE_PATH, server_args, dir + "/spe_serve.log", trace);
  // Sampled before every timed start and at every round boundary.
  HostSpeed speed;
  speed.Sample();
  std::vector<double> startup_s;
  std::vector<double> startup_cpu_s;
  std::string probe;
  spe::wire::AppendScoreRequest(probe, 1, rows.data(), width);
  ++attempted;
  startup_cpu_s.emplace_back();
  startup_s.push_back(StartAndProbe(server, probe, versions[0].expected[0],
                                    &startup_cpu_s.back()));
  if (startup_s.back() < 0) Fail("spe_serve did not start; see " + dir + "/spe_serve.log");
  Server restarted(SPEBENCH_SERVE_PATH, server_args, dir + "/spe_serve_startup.log", trace);
  auto time_startups = [&] {
    for (int i = 0; i < kStartupsPerRound; ++i) {
      speed.Sample();
      ++attempted;
      startup_cpu_s.emplace_back();
      startup_s.push_back(StartAndProbe(restarted, probe, versions[0].expected[0],
                                        &startup_cpu_s.back()));
      if (startup_s.back() < 0) {
        Fail("spe_serve did not start; see " + dir + "/spe_serve_startup.log");
      }
      if (restarted.Stop() != 0) fail("spe_serve did not drain cleanly");
    }
  };
  const int control = ConnectTo(server.port());
  if (control < 0) Fail("control connection refused");
  // The traced run's second server, with spe::obs off: the fixed rate
  // against both gives the tracing overhead of the serve path.
  Server untraced(SPEBENCH_SERVE_PATH, server_args,
                  dir + "/spe_serve_untraced.log", false);
  if (trace) {
    ++attempted;
    if (StartAndProbe(untraced, probe, versions[0].expected[0]) < 0) {
      Fail("untraced spe_serve did not start; see " + dir + "/spe_serve_untraced.log");
    }
  }

  TrafficSpec spec;
  spec.port = server.port();
  spec.row_seed = Mix(seed);
  auto run = [&](double rate, double secs, const std::vector<Reload>* reloads,
                 const std::function<void()>& alongside = {}) {
    spec.rate = rate;
    spec.seconds = secs;
    // A run stops sending once 20x the in-limit backlog is queued.
    spec.backlog_cap = static_cast<std::size_t>(
        256 + 20.0 * rate / kConnections * p99_limit_ms / 1e3);
    spec.start_ns = NowNs() + 20'000'000;
    spec.row_seed = Mix(spec.row_seed);
    PhaseStats st = RunTraffic(spec, rows.data(), test.num_rows(), width,
                               versions, reloads, alongside);
    attempted += st.sent;
    return st;
  };

  // ---- 2-4. rounds ------------------------------------------------------
  // The traffic phases run in kRounds rounds of fixed rate, reloads and
  // one ladder climb each. A host stall of a few seconds then lands in
  // one round's share of each phase, and every figure is a median over
  // all rounds.
  const double fixed_chunk_s = fixed_s / kRounds;
  const double reload_chunk_s = reload_s / kRounds;
  // Runs the fixed rate against the untraced server.
  auto run_untraced = [&](double secs) {
    spec.port = untraced.port();
    PhaseStats st = run(kFixedRps, secs, nullptr);
    spec.port = server.port();
    return st;
  };
  run(kFixedRps, 0.3, nullptr);  // warm-up: connections, caches
  if (trace) run_untraced(0.3);
  std::vector<PhaseStats> fixed;
  std::vector<PhaseStats> fixed_untraced;
  std::vector<PhaseStats> reloading;
  std::vector<double> server_p50_us;
  std::vector<double> server_p99_us;
  double batches = 0.0;
  double batch_rows = 0.0;
  // Reloads alternate between two artifacts of different cost, and the
  // times of either, wall and CPU alike, fall in two modes about 2x apart
  // whose mix shifts from run to run: a median jumps between the modes,
  // a mean moves with the mix. The figure is the mean over both targets
  // of each one's FastTenthMean, so both artifacts weigh the same.
  std::vector<double> reload_ms[2];
  std::vector<double> reload_cpu_ms[2];
  std::vector<std::string> reload_kernels;
  double server_rss_mb = 0.0;
  std::vector<double> climb_rps;       // climbs that ended on two misses
  std::vector<double> void_climb_rps;  // climbs the host stalled out
  std::string ladder_json = "[";
  for (int round = 0; round < kRounds; ++round) {
    speed.Sample();
    // -- start-up
    time_startups();

    // -- fixed rate
    const std::string before = Control(control, spe::wire::FrameType::kMetrics);
    fixed.push_back(run(kFixedRps, fixed_chunk_s, nullptr));
    const std::string after = Control(control, spe::wire::FrameType::kMetrics);
    server_p50_us.push_back(DeltaQuantile(before, after, "spe_serve_latency_us", 0.5));
    server_p99_us.push_back(DeltaQuantile(before, after, "spe_serve_latency_us", 0.99));
    batches += ExpositionValue(after, "spe_serve_batches_total") -
               ExpositionValue(before, "spe_serve_batches_total");
    batch_rows += ExpositionValue(after, "spe_serve_batch_rows_total") -
                  ExpositionValue(before, "spe_serve_batch_rows_total");
    if (fixed.back().failed > 0) {
      fail("fixed rate: " + std::to_string(fixed.back().failed) + " failed of " +
               std::to_string(fixed.back().sent),
           fixed.back().failed);
    }
    if (trace) {
      fixed_untraced.push_back(run_untraced(fixed_chunk_s));
      if (fixed_untraced.back().failed > 0) {
        fail("untraced fixed rate: " + std::to_string(fixed_untraced.back().failed) +
                 " failed of " + std::to_string(fixed_untraced.back().sent),
             fixed_untraced.back().failed);
      }
    }

    // -- reloads under traffic
    std::vector<Reload> reloads;
    reloading.push_back(run(kFixedRps, reload_chunk_s, &reloads, [&] {
      const std::int64_t end =
          spec.start_ns + static_cast<std::int64_t>(reload_chunk_s * 1e9);
      std::int64_t next = spec.start_ns + static_cast<std::int64_t>(
                                              kReloadIntervalMs * 5e5);
      int target = 1;
      // Ends on a reload back to the primary (target 0 is next while the
      // partner serves), so the ladder runs against the primary again.
      while (next < end - static_cast<std::int64_t>(kReloadIntervalMs * 5e5) ||
             target == 0) {
        const std::int64_t now = NowNs();
        if (now < next) {
          usleep(static_cast<useconds_t>((next - now) / 1000));
          continue;
        }
        Reload r;
        r.target = target;
        const std::map<int, double> cpu_before = TaskCpuSeconds(server.pid());
        r.sent_ns = NowNs();
        reloads.push_back(r);  // visible as in flight before the reply
        const std::string reply =
            Control(control, spe::wire::FrameType::kReload, versions[target].path);
        reloads.back().ok_ns = NowNs();
        // The reloader thread is the one that used the most CPU: the
        // event loop and the worker serve a few dozen requests meanwhile.
        for (const auto& [tid, cpu_s] : TaskCpuSeconds(server.pid())) {
          const auto before = cpu_before.find(tid);
          const double used = cpu_s - (before == cpu_before.end() ? 0.0 : before->second);
          reloads.back().cpu_ms = std::max(reloads.back().cpu_ms, used * 1e3);
        }
        reloads.back().ok = reply.rfind("OK reloaded", 0) == 0;
        const std::size_t k = reply.find(" kernel=");
        if (k != std::string::npos && reload_kernels.size() < 2) {
          reload_kernels.push_back(reply.substr(k + 8, reply.find(' ', k + 8) - k - 8));
        }
        target = 1 - target;
        next += static_cast<std::int64_t>(kReloadIntervalMs * 1e6);
      }
    }));
    for (const Reload& r : reloads) {
      ++attempted;
      if (!r.ok) {
        fail("a reload was refused");
        continue;
      }
      reload_ms[r.target].push_back(static_cast<double>(r.ok_ns - r.sent_ns) / 1e6);
      reload_cpu_ms[r.target].push_back(r.cpu_ms);
    }
    if (reloading.back().failed > 0) {
      fail("reload phase: " + std::to_string(reloading.back().failed) +
               " failed (" + std::to_string(reloading.back().wrong) +
               " wrong answers) of " + std::to_string(reloading.back().sent),
           reloading.back().failed);
    }
    // Read before any climb: a climb's failing rate buffers a backlog
    // whose size depends on how far past the knee it got.
    if (round == 0) server_rss_mb = PeakRssMb(std::to_string(server.pid()));

    // -- one climb of the ladder
    if (!trace) continue;
    double max_rps = 0.0;
    bool stalled = false;
    for (const double rate : ladder) {
      // A rate that misses gets one more try before the climb stops: a
      // single host stall should not end the climb, a saturated server
      // misses twice. A miss while the host got in the way says nothing
      // about the server and does not count, for up to two such tries:
      // when the generator itself ran late (its send-lag p99 past a fifth
      // of the limit, where it is a tenth of a millisecond when the host
      // is quiet) or the hypervisor stole from most of the slices.
      bool pass = false;
      double achieved = 0.0;
      int misses = 0;
      for (int attempt = 0; misses < 2 && !pass && attempt < 4; ++attempt) {
        const PhaseStats st = run(rate, ladder_s, nullptr);
        const double p99 = WindowedQuantile({st}, 0.99);
        const double lag_p99 = Quantile(st.lag_ms, 0.99);
        pass = st.failed == 0 && !st.growing_backlog && p99 <= p99_limit_ms;
        const bool late =
            !pass && (lag_p99 > p99_limit_ms / 5 || StolenShare(st) > 0.5);
        if (!pass && !late) ++misses;
        achieved = st.achieved_rps;
        if (st.failed > 0) {
          fail("ladder rate " + std::to_string(std::lround(rate)) + ": " +
                   std::to_string(st.failed) + " failed (" +
                   std::to_string(st.wrong) + " wrong answers)",
               st.failed);
        }
        JsonObject rung;
        rung.Num("round", round);
        rung.Num("rate", rate);
        rung.Num("attempt", attempt);
        rung.Num("achieved_rps", st.achieved_rps);
        rung.Num("p50_ms", Quantile(st.latency_ms, 0.5));
        rung.Num("p99_ms", p99);
        rung.Num("p99_whole_ms", Quantile(st.latency_ms, 0.99));
        rung.Num("sched_lag_p99_ms", lag_p99);
        rung.Num("failed", static_cast<double>(st.failed));
        rung.Str("verdict", pass   ? "pass"
                            : late ? "client_late"
                            : st.growing_backlog ? "backlog"
                                                 : "miss");
        if (ladder_json.size() > 1) ladder_json += ',';
        ladder_json += rung.Render();
      }
      if (!pass) {
        // Ended by the late-try budget, not by two misses: the host, not
        // the server, decided where this climb stopped.
        stalled = misses < 2;
        break;
      }
      max_rps = achieved;
    }
    (stalled ? void_climb_rps : climb_rps).push_back(max_rps);
  }
  speed.Sample();
  // A climb the host stalled out does not count, unless every climb was.
  if (climb_rps.empty()) climb_rps = void_climb_rps;
  ladder_json += "]";
  if (reload_ms[0].empty() || reload_ms[1].empty()) fail("a reload target never completed");
  auto concat = [](const std::vector<PhaseStats>& chunks,
                   std::vector<double> PhaseStats::*field) {
    std::vector<double> all;
    for (const PhaseStats& c : chunks) {
      all.insert(all.end(), (c.*field).begin(), (c.*field).end());
    }
    return all;
  };
  const std::vector<double> fixed_latency_ms = concat(fixed, &PhaseStats::latency_ms);

  const std::string stats_json = Control(control, spe::wire::FrameType::kStats);
  const std::string exposition = Control(control, spe::wire::FrameType::kMetrics);
  close(control);
  ++attempted;
  if (server.Stop() != 0) fail("spe_serve did not drain cleanly");
  if (trace && untraced.Stop() != 0) fail("untraced spe_serve did not drain cleanly");

  const double factor = speed.Factor();
  JsonObject out;
  out.Num("serve_setup_cpu_ms", FastTenthMean(startup_cpu_s) * 1e3 * factor);
  out.Num("serve_setup_wall_ms", FastTenthMean(startup_s) * 1e3);
  out.Raw("startup_times_s", JsonArray(startup_s));
  out.Raw("startup_cpu_s", JsonArray(startup_cpu_s));
  out.Num("speed_factor", factor);
  out.Raw("reference_cpu_s", JsonArray(speed.samples()));
  out.Num("serve_p50_ms", WindowedQuantile(fixed, 0.5, true));
  out.Num("serve_p50_median_ms", WindowedQuantile(fixed, 0.5));
  out.Num("serve_p99_ms", WindowedQuantile(fixed, 0.99));
  out.Num("serve_samples", static_cast<double>(fixed_latency_ms.size()));
  {
    double stolen = 0.0;
    for (const PhaseStats& c : fixed) stolen += StolenShare(c) / kRounds;
    out.Num("fixed_stolen_slice_share", stolen);
  }
  out.Num("serve_max_rps", Median(climb_rps));
  out.Raw("climb_max_rps", JsonArray(climb_rps));
  out.Raw("void_climb_max_rps", JsonArray(void_climb_rps));
  out.Num("reload_cpu_ms",
          (FastTenthMean(reload_cpu_ms[0]) + FastTenthMean(reload_cpu_ms[1])) / 2.0 *
              factor);
  out.Num("reload_wall_ms",
          (FastTenthMean(reload_ms[0]) + FastTenthMean(reload_ms[1])) / 2.0);
  out.Raw("reload_primary_ms", JsonArray(reload_ms[0]));
  out.Raw("reload_partner_ms", JsonArray(reload_ms[1]));
  out.Raw("reload_primary_cpu_ms", JsonArray(reload_cpu_ms[0]));
  out.Raw("reload_partner_cpu_ms", JsonArray(reload_cpu_ms[1]));
  out.Num("reloads", static_cast<double>(reload_ms[0].size() + reload_ms[1].size()));
  out.Num("serve_peak_rss_mb", server_rss_mb);
  out.Raw("ladder", ladder_json);

  if (trace) {
    JsonObject layers;
    // serve: client side, server histogram over the fixed-rate window,
    // and the server's own counters.
    layers.Num("serve.sched_lag_p99_ms",
               Quantile(concat(fixed, &PhaseStats::lag_ms), 0.99));
    layers.Num("serve.server_p50_us", Median(server_p50_us));
    layers.Num("serve.server_p99_us", Median(server_p99_us));
    const double mean_batch = batches > 0 ? batch_rows / batches : 1.0;
    layers.Num("serve.mean_batch_size", mean_batch);
    layers.Num("serve.score_batch_us", SpanMeanUs(exposition, "serve.score_batch"));
    std::size_t backlog_max = 0;
    for (const PhaseStats& c : fixed) backlog_max = std::max(backlog_max, c.outstanding_max);
    layers.Num("serve.backlog_max", static_cast<double>(backlog_max));
    layers.Num("serve.p99_ms", WindowedQuantile(fixed, 0.99));
    layers.Num("serve.p99_whole_ms", Quantile(fixed_latency_ms, 0.99));
    layers.Num("serve.max_rps", Median(climb_rps));
    layers.Num("serve.setup_wall_ms", FastTenthMean(startup_s) * 1e3);
    layers.Num("serve.reload_wall_ms",
               (FastTenthMean(reload_ms[0]) + FastTenthMean(reload_ms[1])) / 2.0);
    layers.Num("serve.reload_p99_ms", WindowedQuantile(reloading, 0.99));
    layers.Num("serve.shed", JsonField(stats_json, "shed"));
    layers.Num("serve.deadline_expired", JsonField(stats_json, "deadline_expired"));
    layers.Num("serve.degraded_rows", JsonField(stats_json, "degraded_rows"));
    layers.Num("obs.serve_trace_overhead_pct",
               100.0 * (WindowedQuantile(fixed, 0.5) /
                            WindowedQuantile(fixed_untraced, 0.5) -
                        1.0));
    layers.Num("obs.serve_ring_dropped", ExpositionValue(exposition, "spe_spans_dropped"));
    layers.Num("lifecycle.server_load_ms", SpanMeanUs(exposition, "lifecycle.load") / 1e3);

    // kernels: compile and batch scoring, called from here.
    const spe::ModelBundle bundle = spe::LoadModelBundleFromFile(versions[0].path);
    const auto* voting = dynamic_cast<const spe::VotingEnsembleModel*>(bundle.model.get());
    if (voting == nullptr) Fail("primary.model is not a voting ensemble");
    std::vector<double> compile_ms;
    std::unique_ptr<const spe::kernels::FlatForest> forest;
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      forest = spe::kernels::FlatForest::Compile(voting->members());
      compile_ms.push_back(SecondsSince(t0) * 1e3);
    }
    if (forest == nullptr) Fail("primary.model does not compile to the flat kernel");
    layers.Num("kernels.compile_ms", Median(compile_ms));
    layers.Num("kernels.nodes", static_cast<double>(forest->num_nodes()));
    const std::size_t batch = std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(mean_batch)));
    std::vector<double> scores(batch);
    std::size_t scored = 0;
    std::size_t at = 0;
    const Clock::time_point k0 = Clock::now();
    while (SecondsSince(k0) < 0.3) {
      if (at + batch > test.num_rows()) at = 0;
      forest->PredictPrefixInto(
          spe::DatasetView::FromRows(rows.data() + at * width, batch, width),
          forest->num_members(), scores);
      at += batch;
      scored += batch;
    }
    layers.Num("kernels.rows_per_s", static_cast<double>(scored) / SecondsSince(k0));

    // lifecycle: registry load (probe + decode + compile) and activate.
    spe::lifecycle::ModelRegistry registry;
    std::vector<double> load_ms;
    std::vector<std::shared_ptr<const spe::lifecycle::ModelVersion>> loaded;
    for (int i = 0; i < 4; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto result = registry.LoadFromFile(versions[i % 2].path);
      load_ms.push_back(SecondsSince(t0) * 1e3);
      if (!result.ok()) Fail("registry load failed: " + result.error);
      loaded.push_back(result.version);
    }
    std::vector<double> activate_us;
    for (int i = 0; i < 20; ++i) {
      const Clock::time_point t0 = Clock::now();
      const std::string error = registry.Activate(loaded[static_cast<std::size_t>(i) % 2]);
      activate_us.push_back(SecondsSince(t0) * 1e6);
      if (!error.empty()) Fail("activate failed: " + error);
    }
    layers.Num("lifecycle.load_ms", Median(load_ms));
    layers.Num("lifecycle.activate_us", Median(activate_us));
    out.Raw("layers", layers.Render());
  }

  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Raw("failures", JsonArray(failures));
  out.Num("host_steal_pct", 100.0 * StealShareSince(run_steal, run_t0));
  JsonObject stamp;
  AddHostStamp(stamp);
  stamp.Num("workers", kWorkers);
  stamp.Num("connections", kConnections);
  stamp.Str("kernel_primary", versions[0].kernel);
  stamp.Str("kernel_partner", versions[1].kernel);
  stamp.Raw("kernel_reloaded", JsonArray(reload_kernels));
  out.Raw("stamp", stamp.Render());
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace spebench
