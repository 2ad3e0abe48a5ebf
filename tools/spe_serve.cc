// spe_serve — online scoring server over a saved model.
//
//   spe_serve --model FILE [--stdio | --port P] [--host ADDR]
//             [--max-batch N] [--max-delay-us U]
//             [--workers W] [--queue-capacity C] [--overflow block|shed]
//             [--default-deadline-ms D] [--degrade-high H --degrade-low L
//              --degrade-prefix K] [--max-connections M]
//             [--stats-interval-ms MS] [--metrics-dump FILE]
//             [--shadow FILE] [--shadow-sample N]
//             [--drift-threshold PSI] [--drift-min-count N]
//
// Speaks the newline-delimited CSV/JSON protocol of spe/serve/
// line_protocol.h and the length-prefixed binary frame protocol of
// spe/serve/wire.h, negotiated per connection by the first byte (0xA6
// selects binary). --stdio serves exactly one text "connection" on
// stdin/stdout (what tests and shell pipelines use); --port serves
// concurrent TCP connections (up to --max-connections) on a
// single-threaded epoll event loop (spe/serve/event_loop.h) that
// funnels every connection into one shared BatchScorer, so
// cross-connection traffic coalesces into common micro-batches.
//
// Robustness: requests may carry "deadline_ms" (JSON) or inherit
// --default-deadline-ms; a request that is still queued past its
// deadline is answered DEADLINE_EXCEEDED without being scored. Under
// backlog past --degrade-high, batches are scored with only the first
// --degrade-prefix ensemble members (responses marked "degraded":true)
// until the backlog drains to --degrade-low.
//
// Model lifecycle: the scorer serves through a versioned model registry
// (spe/lifecycle/model_registry.h). A `!reload [PATH]` protocol line or
// a SIGHUP hot-swaps the served model: the candidate artifact is
// decoded (read and checksummed once) and kernel-compiled on a
// dedicated lifecycle thread, then atomically activated — in-flight
// requests finish on the old version, no request is dropped, and a bad
// candidate is refused with an ERR line while the old model keeps
// serving. --shadow loads a second version that re-scores a sample of
// live batches for prediction diffing, and models saved with a
// training hardness histogram (v3 bundles) get live drift detection
// (docs/lifecycle.md).
//
// Shutdown drains: on SIGINT/SIGTERM (or stdin EOF) the listener stops
// accepting, connections stop reading, every accepted request is still
// scored and written, and a final stats snapshot goes to stderr. Both
// signals behave identically in both --stdio and --port mode: they are
// handled on a dedicated signal thread (sigwait), so a SIGTERM from an
// orchestrator gets the same graceful drain as an interactive Ctrl-C.
//
// Exit codes follow spe/common/exit_codes.h: 0 ok (including a drained
// shutdown), 1 runtime error, 2 usage, 3 I/O failure, 4 corrupt
// artifact, 5 injected fault (docs/robustness.md).

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "spe/common/exit_codes.h"
#include "spe/common/parse.h"
#include "spe/io/model_io.h"
#include "spe/lifecycle/model_registry.h"
#include "spe/obs/metrics.h"
#include "spe/serve/batch_scorer.h"
#include "spe/serve/event_loop.h"
#include "spe/serve/line_protocol.h"
#include "spe/serve/server_stats.h"

namespace {

[[noreturn]] void Usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(
      stderr,
      "usage: spe_serve --model FILE [--stdio | --port P] [options]\n"
      "  --model FILE          saved model (spe_cli train --model FILE)\n"
      "  --stdio               serve one session on stdin/stdout\n"
      "  --port P              listen for TCP connections on port P\n"
      "  --host ADDR           bind address (default 127.0.0.1)\n"
      "  --max-batch N         rows per model dispatch (default 256)\n"
      "  --max-delay-us U      micro-batch fill deadline (default 200)\n"
      "  --workers W           scoring threads (default: hardware)\n"
      "  --queue-capacity C    pending-request bound (default 4096)\n"
      "  --overflow block|shed backpressure policy (default block)\n"
      "  --default-deadline-ms D\n"
      "                        deadline for requests that do not carry\n"
      "                        \"deadline_ms\"; expired-in-queue requests\n"
      "                        get DEADLINE_EXCEEDED (0 = none, default)\n"
      "  --degrade-high H      backlog at which scoring degrades to an\n"
      "                        ensemble prefix (0 = never, default)\n"
      "  --degrade-low L       backlog at which full scoring resumes\n"
      "                        (default 0; must be < H)\n"
      "  --degrade-prefix K    ensemble members used while degraded\n"
      "                        (default 1)\n"
      "  --max-connections M   concurrent TCP connections; further\n"
      "                        connects are refused with an error line\n"
      "                        (default 256, 0 = unlimited)\n"
      "  --stats-interval-ms M periodic stats line to stderr (0 = off,\n"
      "                        default 10000 for --port, 0 for --stdio)\n"
      "  --metrics-dump FILE   write the final metrics exposition to FILE\n"
      "                        after the server drains (FILE must be\n"
      "                        writable at startup — fail fast, not after\n"
      "                        a day of traffic)\n"
      "  --shadow FILE         also load FILE as a shadow version: it\n"
      "                        scores a sample of live batches and the\n"
      "                        prediction diffs are exported as\n"
      "                        spe_lifecycle_shadow_* metrics\n"
      "  --shadow-sample N     shadow every Nth batch (default 8,\n"
      "                        0 disables shadow scoring)\n"
      "  --drift-threshold P   PSI above which hardness-distribution\n"
      "                        drift alerts (default 0.25)\n"
      "  --drift-min-count N   live rows required before a drift verdict\n"
      "                        (default 512)\n"
      "protocol: one request per line — CSV features (`0.2,1.5`) or JSON\n"
      "(`{\"id\":1,\"features\":[0.2,1.5],\"deadline_ms\":50}`); `STATS`\n"
      "returns a one-line stats snapshot; `!stats` returns the metrics\n"
      "exposition (multi-line, ends with `# EOF`); `!reload [PATH]`\n"
      "hot-swaps the served model to PATH (default: the --model artifact,\n"
      "re-read) and answers OK/ERR once the swap happened — in-flight\n"
      "requests finish on the old version, none are dropped; SIGHUP\n"
      "triggers the same reload of the --model path; responses come back\n"
      "in request order. Degraded-mode JSON responses carry "
      "\"degraded\":true.\n"
      "fault injection: set SPE_FAULTS=score_delay_ms=..,"
      "model_io_fail_rate=..,seed=.. (docs/serving.md)\n");
  std::exit(2);
}

/// Checked flag accessor: missing -> fallback; present but not an
/// integer in [min, max] -> usage error (atoi-style silent garbage is
/// exactly what this replaces).
long GetIntFlag(const std::map<std::string, std::string>& flags,
                const std::string& key, long fallback, long min, long max) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const auto v = spe::ParseInt64(it->second);
  if (!v || *v < min || *v > max) {
    const std::string message = "--" + key + " expects an integer in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "], got '" + it->second +
                                "'";
    Usage(message.c_str());
  }
  return static_cast<long>(*v);
}

double GetDoubleFlag(const std::map<std::string, std::string>& flags,
                     const std::string& key, double fallback, double min) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const auto v = spe::ParseFiniteDouble(it->second);
  if (!v || *v < min) {
    const std::string message = "--" + key + " expects a number >= " +
                                std::to_string(min) + ", got '" + it->second +
                                "'";
    Usage(message.c_str());
  }
  return *v;
}

// Signal plumbing. SIGINT/SIGTERM/SIGHUP are blocked in every thread
// (pthread_sigmask before any thread is spawned) and consumed by one
// dedicated signal thread via sigwait — no async-signal-safety puzzles,
// and SIGTERM gets the exact same graceful drain as SIGINT in both
// serving modes. SIGUSR1 keeps a handler, deliberately installed
// *without* SA_RESTART: its only job is to make the stdio reader's
// blocked read(2) return EINTR so fgets gives up.
std::atomic<int> g_listen_fd{-1};
std::atomic<bool> g_draining{false};
std::atomic<bool> g_sighup{false};

// The stdio reader registers itself so the signal thread can poke it.
pthread_t g_stdio_reader;
std::atomic<bool> g_stdio_reader_set{false};
std::atomic<bool> g_stdio_done{false};

void HandleWakeSignal(int /*sig*/) {
  // No-op by design: delivery alone interrupts the reader's read(2).
}

void SignalWaitLoop() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGHUP);
  for (;;) {
    int sig = 0;
    if (sigwait(&set, &sig) != 0) continue;
    if (sig == SIGHUP) {
      // Just a flag flip; the lifecycle thread polls it.
      g_sighup.store(true, std::memory_order_relaxed);
      continue;
    }
    // SIGINT / SIGTERM: one graceful drain. A repeat signal is ignored —
    // the drain already answers everything accepted, and exiting early
    // would drop those responses.
    if (g_draining.exchange(true)) continue;
    std::fprintf(stderr, "spe_serve: received %s, draining...\n",
                 sig == SIGTERM ? "SIGTERM" : "SIGINT");
    // TCP mode: shutdown (not close) pops the blocked accept() with an
    // error while keeping the fd valid for main to close; close() alone
    // would not wake a blocked accept on Linux.
    const int fd = g_listen_fd.load(std::memory_order_acquire);
    if (fd >= 0) shutdown(fd, SHUT_RDWR);
    // stdio mode: fgets(stdin) watches no flag, so poke the reader with
    // SIGUSR1 until it reports done. The retry loop closes the race
    // where a poke lands between the reader's drain-check and its next
    // read(2) — the next poke interrupts that read.
    while (g_stdio_reader_set.load(std::memory_order_acquire) &&
           !g_stdio_done.load(std::memory_order_acquire)) {
      pthread_kill(g_stdio_reader, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

/// Serializes model reloads onto one lifecycle thread. Loading and
/// kernel compilation happen here — never on a scoring worker and never
/// on a connection's reader thread — so a reload (even a slow or failing
/// one) cannot stall scoring. Requests come from `!reload` lines (each
/// gets a future resolving to its OK/ERR response line) and from SIGHUP
/// (fire-and-forget; the outcome is logged to stderr).
class ReloadCoordinator {
 public:
  ReloadCoordinator(std::shared_ptr<spe::lifecycle::ModelRegistry> registry,
                    std::string default_path)
      : registry_(std::move(registry)),
        default_path_(std::move(default_path)),
        reloads_total_(spe::obs::MetricsRegistry::Global().GetCounter(
            "spe_lifecycle_reloads_total")),
        reload_failures_total_(spe::obs::MetricsRegistry::Global().GetCounter(
            "spe_lifecycle_reload_failures_total")),
        worker_([this] { Loop(); }) {}

  ~ReloadCoordinator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  /// Enqueues a reload of `path` ("" = the --model artifact). The
  /// future resolves to the protocol response line.
  std::future<std::string> Request(std::string path) {
    Job job;
    job.path = path.empty() ? default_path_ : std::move(path);
    std::future<std::string> future = job.done.get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
    }
    cv_.notify_all();
    return future;
  }

  /// Callback flavor for the event loop: `done` is invoked with the
  /// response line on the lifecycle thread once the swap happened.
  void RequestAsync(std::string path, std::function<void(std::string)> done) {
    Job job;
    job.path = path.empty() ? default_path_ : std::move(path);
    job.callback = std::move(done);
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
    }
    cv_.notify_all();
  }

 private:
  struct Job {
    std::string path;
    std::promise<std::string> done;
    std::function<void(std::string)> callback;  // event-loop jobs
    bool log_only = false;  // SIGHUP jobs have no client to answer
  };

  void Loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        // The timeout doubles as the SIGHUP poll interval: the handler
        // may only flip an atomic, so someone has to look at it.
        cv_.wait_for(lock, std::chrono::milliseconds(200),
                     [&] { return stop_ || !jobs_.empty(); });
        if (g_sighup.exchange(false, std::memory_order_relaxed)) {
          Job hup;
          hup.path = default_path_;
          hup.log_only = true;
          jobs_.push_back(std::move(hup));
        }
        if (jobs_.empty()) {
          if (stop_) break;
          continue;
        }
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      const std::string response = Reload(job.path);
      if (job.log_only) {
        std::fprintf(stderr, "spe_serve: SIGHUP reload: %s\n",
                     response.c_str());
      } else if (job.callback) {
        job.callback(response);
      } else {
        job.done.set_value(response);
      }
    }
  }

  std::string Reload(const std::string& path) {
    spe::lifecycle::ModelRegistry::LoadResult result =
        registry_->LoadFromFile(path);
    if (!result.ok()) {
      reload_failures_total_.Add();
      return "ERR reload failed: " + result.error;
    }
    const std::string error = registry_->Activate(result.version);
    if (!error.empty()) {
      reload_failures_total_.Add();
      return "ERR reload refused: " + error;
    }
    reloads_total_.Add();
    return "OK reloaded version " +
           std::to_string(result.version->version()) + " from " + path +
           " kernel=" + result.version->kernel() +
           (result.version->drift() != nullptr ? " drift=on" : " drift=off");
  }

  const std::shared_ptr<spe::lifecycle::ModelRegistry> registry_;
  const std::string default_path_;
  spe::obs::Counter& reloads_total_;
  spe::obs::Counter& reload_failures_total_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool stop_ = false;
  std::thread worker_;
};

/// Reads one newline-terminated request line into `line`, enforcing the
/// protocol's line-length cap without ever buffering an oversized line
/// whole: the overflow is consumed and discarded in fixed-size chunks.
/// Returns false on EOF with nothing read; sets `oversized` when the
/// line exceeded the cap (its content is then meaningless).
bool ReadBoundedLine(std::FILE* in, std::string& line, bool& oversized) {
  line.clear();
  oversized = false;
  char chunk[4096];
  while (std::fgets(chunk, sizeof(chunk), in) != nullptr) {
    const std::size_t len = std::strlen(chunk);
    const bool eol = len > 0 && chunk[len - 1] == '\n';
    if (!oversized) {
      line.append(chunk, len);
      if (line.size() > spe::kMaxRequestLineBytes + 2) {
        // +2: allow the CR/LF of a line exactly at the cap.
        oversized = true;
        line.clear();
      }
    }
    if (eol) return true;
  }
  return oversized || !line.empty();
}

/// One protocol session on a FILE* pair. The calling thread reads,
/// parses and submits; a writer thread emits responses in request
/// order. Returns when `in` hits EOF and every response is written.
/// `default_deadline_ms` <= 0 means "no deadline unless the request
/// sets one".
void ServeSession(std::FILE* in, std::FILE* out, spe::BatchScorer& scorer,
                  ReloadCoordinator& reloader, double default_deadline_ms) {
  struct Pending {
    spe::ServeRequest request;
    std::future<spe::ScoreResult> future;       // valid only for kScore
    std::future<std::string> reload_response;   // valid only for kReload
  };
  std::deque<Pending> pending;
  std::mutex mu;
  std::condition_variable cv;
  bool done_reading = false;
  // Requests read but not yet answered (queued here or being written).
  // The reload barrier below waits on this, not on pending.empty():
  // the writer pops an item before resolving its future, so an empty
  // queue can still have one request in flight inside the scorer.
  std::size_t inflight = 0;

  std::thread writer([&] {
    for (;;) {
      Pending item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || done_reading; });
        if (pending.empty()) break;
        item = std::move(pending.front());
        pending.pop_front();
      }
      cv.notify_all();  // reader may be waiting on the backlog bound
      std::string response;
      switch (item.request.kind) {
        case spe::RequestKind::kScore:
          try {
            const spe::ScoreResult result = item.future.get();
            response = spe::FormatScoreResponse(item.request, result.proba,
                                                result.degraded);
          } catch (const std::exception& e) {
            response = spe::FormatErrorResponse(item.request, e.what());
          }
          break;
        case spe::RequestKind::kStats:
          response = spe::ToJson(scorer.stats().Snapshot());
          break;
        case spe::RequestKind::kMetrics:
          // Multi-line exposition; its "# EOF" line is the framing the
          // client watches for, the writer adds the final newline.
          response = spe::obs::MetricsRegistry::Global().RenderText();
          while (!response.empty() && response.back() == '\n') {
            response.pop_back();
          }
          break;
        case spe::RequestKind::kReload:
          // Waiting here (the writer thread) is what makes the OK/ERR
          // line land in request order without ever pausing scoring:
          // requests already submitted keep flowing through the
          // workers, and responses queued behind this one are for
          // requests that were *read* after the reload was requested.
          response = item.reload_response.get();
          break;
        case spe::RequestKind::kInvalid:
          response = spe::FormatErrorResponse(item.request,
                                              item.request.error);
          break;
        case spe::RequestKind::kEmpty:
          continue;  // never queued
      }
      std::fputs(response.c_str(), out);
      std::fputc('\n', out);
      std::fflush(out);
      {
        std::lock_guard<std::mutex> lock(mu);
        --inflight;
      }
      cv.notify_all();
    }
  });

  std::string line;
  bool oversized = false;
  for (;;) {
    if (g_draining.load(std::memory_order_acquire)) break;
    if (!ReadBoundedLine(in, line, oversized)) break;
    // A drain signal may interrupt fgets mid-line (SIGUSR1 → EINTR);
    // scoring that truncated request would answer garbage, so a line
    // without its newline is dropped once draining. Outside a drain a
    // final unterminated line (EOF without '\n') still counts.
    const bool complete =
        oversized || (!line.empty() && line.back() == '\n');
    if (!complete && g_draining.load(std::memory_order_acquire)) break;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    Pending item;
    if (oversized) {
      item.request.kind = spe::RequestKind::kInvalid;
      item.request.error = "request line exceeds " +
                           std::to_string(spe::kMaxRequestLineBytes) +
                           " bytes";
    } else {
      item.request = spe::ParseRequestLine(line);
    }
    if (item.request.kind == spe::RequestKind::kEmpty) continue;
    if (item.request.kind == spe::RequestKind::kReload) {
      // Barrier semantics within this connection: every request read
      // *before* the `!reload` line is answered — scored on the
      // pre-swap version — before the swap is even requested, and
      // requests after it score on the outcome of the reload (new
      // version, or old one if it was refused). The drain matters:
      // rows still queued inside the scorer at swap time would
      // otherwise score on the new version, making the swap boundary
      // nondeterministic for the one client that asked for it. Both
      // waits block only this session's reader — other connections
      // keep scoring on the version their batches snapshotted, so the
      // swap still drops nothing.
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return inflight == 0; });
      }
      item.reload_response = reloader.Request(item.request.reload_path);
      item.reload_response.wait();
    }
    if (item.request.kind == spe::RequestKind::kScore) {
      if (item.request.features.size() != scorer.num_features()) {
        item.request.kind = spe::RequestKind::kInvalid;
        item.request.error =
            "expected " + std::to_string(scorer.num_features()) +
            " features, got " + std::to_string(item.request.features.size());
      } else {
        const double deadline_ms = item.request.deadline_ms >= 0
                                       ? item.request.deadline_ms
                                       : default_deadline_ms;
        auto deadline = spe::BatchScorer::kNoDeadline;
        if (item.request.deadline_ms >= 0 || default_deadline_ms > 0) {
          deadline = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             deadline_ms));
        }
        item.future =
            scorer.Submit(std::move(item.request.features), deadline);
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      // Bound the per-session response backlog so a client that writes
      // but never reads cannot grow memory without limit.
      cv.wait(lock, [&] { return pending.size() < 16384; });
      pending.push_back(std::move(item));
      ++inflight;
    }
    cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_reading = true;
  }
  cv.notify_all();
  writer.join();
}

int RunStdio(spe::BatchScorer& scorer, ReloadCoordinator& reloader,
             double default_deadline_ms) {
  // Register with the signal thread before reading, and re-check the
  // drain flag after: a signal that fired in between was handled by a
  // poke loop that saw no reader, so the check is what honors it.
  g_stdio_reader = pthread_self();
  g_stdio_reader_set.store(true, std::memory_order_release);
  if (!g_draining.load(std::memory_order_acquire)) {
    ServeSession(stdin, stdout, scorer, reloader, default_deadline_ms);
  }
  g_stdio_done.store(true, std::memory_order_release);
  scorer.Shutdown();
  std::fprintf(stderr, "%s\n", spe::ToJson(scorer.stats().Snapshot()).c_str());
  return 0;
}

int RunTcp(spe::BatchScorer& scorer, ReloadCoordinator& reloader,
           const std::string& host, int port, double default_deadline_ms,
           std::size_t max_connections) {
  spe::serve::EventLoopConfig config;
  config.max_connections = max_connections;
  config.default_deadline_ms = default_deadline_ms;
  spe::serve::EventLoop loop(
      scorer, config,
      [&reloader](std::string path, std::function<void(std::string)> done) {
        reloader.RequestAsync(std::move(path), std::move(done));
      });
  const std::string error = loop.Listen(host, port);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_listen_fd.store(loop.listen_fd(), std::memory_order_release);
  // A signal that landed before the store found no fd to shut down;
  // honor it now rather than serving forever.
  if (g_draining.load(std::memory_order_acquire)) loop.RequestDrain();
  std::fprintf(stderr, "spe_serve: listening on %s:%d\n", host.c_str(),
               loop.port());
  // The signal thread drains the loop the same way it drained the old
  // blocking accept(2): shutdown(2) on the listener, which the loop
  // observes as a failing accept. Run() returns once every accepted
  // request is answered and every connection closed.
  loop.Run();
  g_listen_fd.store(-1, std::memory_order_release);
  std::fprintf(stderr, "spe_serve: draining...\n");
  const auto& counters = loop.counters();
  if (counters.refused.load(std::memory_order_relaxed) > 0) {
    std::fprintf(stderr, "spe_serve: refused %llu connections at capacity\n",
                 static_cast<unsigned long long>(
                     counters.refused.load(std::memory_order_relaxed)));
  }
  scorer.Shutdown();
  std::fprintf(stderr, "%s\n", spe::ToJson(scorer.stats().Snapshot()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Signal setup must precede every thread spawn (scorer workers, the
  // reload coordinator, the stats reporter, session threads) so they
  // all inherit the blocked mask and only the signal thread ever sees
  // SIGINT/SIGTERM/SIGHUP. The thread is detached: at a signal-free
  // shutdown (stdin EOF) it is still parked in sigwait, and process
  // exit reaps it — it touches only globals, never the stack.
  sigset_t blocked;
  sigemptyset(&blocked);
  sigaddset(&blocked, SIGINT);
  sigaddset(&blocked, SIGTERM);
  sigaddset(&blocked, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &blocked, nullptr);
  {
    struct sigaction wake {};
    wake.sa_handler = HandleWakeSignal;
    sigemptyset(&wake.sa_mask);
    wake.sa_flags = 0;  // no SA_RESTART: the EINTR is the whole point
    sigaction(SIGUSR1, &wake, nullptr);
  }
  std::signal(SIGPIPE, SIG_IGN);
  std::thread(SignalWaitLoop).detach();

  // Every flag this binary reads; anything else is a usage error rather
  // than a silently ignored typo or a knob this build no longer has.
  static const std::set<std::string> kKnownFlags = {
      "model", "stdio", "port", "host", "max-batch",
      "max-delay-us", "workers", "queue-capacity", "overflow",
      "default-deadline-ms", "degrade-high", "degrade-low", "degrade-prefix",
      "max-connections", "stats-interval-ms", "metrics-dump", "shadow",
      "shadow-sample", "drift-threshold", "drift-min-count"};
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage(("unexpected argument: " + arg).c_str());
    const std::string key = arg.substr(2);
    if (kKnownFlags.count(key) == 0) Usage(("unknown flag " + arg).c_str());
    std::string value = "1";
    if (key != "stdio") {
      if (i + 1 >= argc) Usage(("missing value for --" + key).c_str());
      value = argv[++i];
    }
    // A silently ignored repeat is how a fat-fingered restart script
    // serves yesterday's queue capacity; make duplicates loud.
    if (!flags.emplace(key, value).second) {
      Usage(("duplicate flag --" + key).c_str());
    }
  }
  const auto get = [&](const std::string& k, const std::string& fallback) {
    const auto it = flags.find(k);
    return it == flags.end() ? fallback : it->second;
  };

  const std::string model_path = get("model", "");
  if (model_path.empty()) Usage("--model is required");
  const bool use_stdio = flags.count("stdio") > 0;
  const int port = static_cast<int>(GetIntFlag(flags, "port", 0, 1, 65535));
  if (use_stdio == (port > 0)) Usage("pass exactly one of --stdio / --port");

  spe::BatchScorerConfig config;
  config.max_batch_size = static_cast<std::size_t>(
      GetIntFlag(flags, "max-batch", 256, 1, 1 << 20));
  config.max_batch_delay_us = static_cast<std::size_t>(
      GetIntFlag(flags, "max-delay-us", 200, 0, 60'000'000));
  config.num_workers =
      static_cast<std::size_t>(GetIntFlag(flags, "workers", 0, 0, 4096));
  config.queue_capacity = static_cast<std::size_t>(
      GetIntFlag(flags, "queue-capacity", 4096, 1, 1 << 26));
  const std::string overflow = get("overflow", "block");
  if (overflow == "shed") {
    config.overflow = spe::OverflowPolicy::kShed;
  } else if (overflow != "block") {
    Usage("--overflow must be block or shed");
  }
  config.degrade_high_watermark = static_cast<std::size_t>(
      GetIntFlag(flags, "degrade-high", 0, 0, 1 << 26));
  config.degrade_low_watermark = static_cast<std::size_t>(
      GetIntFlag(flags, "degrade-low", 0, 0, 1 << 26));
  config.degrade_prefix = static_cast<std::size_t>(
      GetIntFlag(flags, "degrade-prefix", 1, 1, 1 << 20));
  if (config.degrade_high_watermark > 0 &&
      config.degrade_low_watermark >= config.degrade_high_watermark) {
    Usage("--degrade-low must be below --degrade-high");
  }
  const double default_deadline_ms =
      GetDoubleFlag(flags, "default-deadline-ms", 0.0, 0.0);
  const std::size_t max_connections = static_cast<std::size_t>(
      GetIntFlag(flags, "max-connections", 256, 0, 1 << 20));
  config.shadow_every = static_cast<std::size_t>(
      GetIntFlag(flags, "shadow-sample", 8, 0, 1 << 20));

  // Fail fast on an unwritable dump target: discovering it only at
  // drain time throws away the run's metrics after the fact.
  const std::string dump_path = get("metrics-dump", "");
  if (!dump_path.empty()) {
    std::FILE* probe = std::fopen(dump_path.c_str(), "a");
    if (probe == nullptr) {
      Usage(("--metrics-dump path is not writable: " + dump_path).c_str());
    }
    std::fclose(probe);
  }

  spe::lifecycle::DriftConfig drift;
  drift.psi_threshold = GetDoubleFlag(flags, "drift-threshold", 0.25, 1e-9);
  drift.min_samples = static_cast<std::uint64_t>(
      GetIntFlag(flags, "drift-min-count", 512, 1, 1L << 40));

  // The artifact's header carries the row width the server enforces.
  auto registry = std::make_shared<spe::lifecycle::ModelRegistry>(drift);
  {
    const auto loaded = registry->LoadFromFile(model_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: cannot load --model %s: %s\n",
                   model_path.c_str(), loaded.error.c_str());
      return spe::ClassifyArtifactErrorExit(loaded.error_kind);
    }
    const std::string error = registry->Activate(loaded.version);
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return spe::kExitRuntime;
    }
  }
  const std::string shadow_path = get("shadow", "");
  if (!shadow_path.empty()) {
    const auto loaded = registry->LoadFromFile(shadow_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: cannot load --shadow %s: %s\n",
                   shadow_path.c_str(), loaded.error.c_str());
      return spe::ClassifyArtifactErrorExit(loaded.error_kind);
    }
    if (loaded.version->num_features() !=
        registry->active()->num_features()) {
      std::fprintf(stderr,
                   "error: --shadow feature width %zu does not match the "
                   "model's %zu\n",
                   loaded.version->num_features(),
                   registry->active()->num_features());
      return 1;
    }
    registry->SetShadow(loaded.version);
  }

  spe::BatchScorer scorer(registry, config);
  ReloadCoordinator reloader(registry, model_path);
  const long interval_ms =
      GetIntFlag(flags, "stats-interval-ms", use_stdio ? 0 : 10000, 0,
                 86'400'000);
  std::unique_ptr<spe::StatsReporter> reporter;
  if (interval_ms > 0) {
    reporter = std::make_unique<spe::StatsReporter>(
        scorer.stats(), std::cerr, std::chrono::milliseconds(interval_ms));
  }
  const int rc = use_stdio
                     ? RunStdio(scorer, reloader, default_deadline_ms)
                     : RunTcp(scorer, reloader, get("host", "127.0.0.1"),
                              port, default_deadline_ms, max_connections);
  // Drained: every accepted request is counted, so the dump is final.
  if (!dump_path.empty()) {
    std::FILE* f = std::fopen(dump_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write --metrics-dump %s\n",
                   dump_path.c_str());
      return spe::kExitIo;
    }
    const std::string text = spe::obs::MetricsRegistry::Global().RenderText();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return rc;
}
