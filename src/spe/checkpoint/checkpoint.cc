#include "spe/checkpoint/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "spe/common/crc32.h"
#include "spe/common/fault.h"
#include "spe/common/model_format.h"
#include "spe/io/model_io.h"

namespace spe {
namespace checkpoint {
namespace {

constexpr const char* kMagic = "spe-checkpoint";
constexpr int kVersion = 1;

std::string FormatDouble(double value) {
  // %.17g round-trips doubles exactly (model_io.cc idiom) — best_auc
  // must come back bit-identical or a resumed early-stop run could pick
  // a different prefix than the uninterrupted one.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool Expect(std::istream& is, std::string_view keyword) {
  std::string token;
  is >> token;
  return !is.fail() && token == keyword;
}

// Byte-counted read so SaveClassifier blobs round-trip verbatim. The
// count is bounded by the bytes left before anything is allocated.
bool ReadCountedBytes(std::istream& is, std::size_t count, std::string* out) {
  if (is.get() != '\n') return false;  // the newline ending the count
  if (count > model_format::RemainingBytes(is)) return false;
  out->resize(count);
  is.read(out->data(), static_cast<std::streamsize>(count));
  return !is.fail();
}

// ---------------------------------------------------------------------
// Member log: a sequence of byte-counted records, `bootstrap` (at most
// one, first) then `member` per trained member in vote order. The log
// carries no integrity data of its own — the manifest CRCs the exact
// prefix it vouches for, and a torn tail past that prefix is ignored.
// ---------------------------------------------------------------------

void AppendRecord(std::string* out, const char* kind,
                  const std::string& blob) {
  char header[48];
  std::snprintf(header, sizeof(header), "%s %zu\n", kind, blob.size());
  *out += header;
  *out += blob;
}

std::string BuildMemberLog(const std::string& bootstrap_blob,
                           const std::vector<std::string>& member_blobs) {
  std::size_t total = bootstrap_blob.size() + 64;
  for (const std::string& blob : member_blobs) total += blob.size() + 32;
  std::string out;
  out.reserve(total);
  if (!bootstrap_blob.empty()) AppendRecord(&out, "bootstrap", bootstrap_blob);
  for (const std::string& blob : member_blobs) {
    AppendRecord(&out, "member", blob);
  }
  return out;
}

// Parses the log prefix the manifest vouched for. The CRC already
// matched, so a failure here means a writer/reader bug, not bit rot —
// but stay non-aborting and report it like any other corruption.
bool ParseMemberLog(const std::string& log, LoadResult* result) {
  std::istringstream is(log);
  bool first = true;
  while (static_cast<std::size_t>(is.tellg()) < log.size()) {
    std::string kind;
    std::size_t size = 0;
    if (!(is >> kind) || !(is >> size)) return false;
    std::string blob;
    if (!ReadCountedBytes(is, size, &blob)) return false;
    if (kind != "bootstrap" && kind != "member") return false;
    // The bootstrap blob is decoded too, though only resume uses it: a
    // malformed one refuses the checkpoint here instead of aborting the
    // replay.
    std::unique_ptr<Classifier> model;
    try {
      std::istringstream blob_in(blob);
      model = DecodeClassifier(blob_in);
    } catch (const ModelFormatError&) {
      return false;
    }
    if (kind == "member") {
      result->members.Add(std::move(model));
    } else {
      if (!first || !result->core.bootstrap_blob.empty()) return false;
      result->core.bootstrap_blob = std::move(blob);
    }
    first = false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Manifest: scalars, RNG state, early-stop state, and the (byte count,
// CRC-32) of the member-log prefix this checkpoint commits to.
// ---------------------------------------------------------------------

std::string SerializeManifest(const TrainerStateCore& core,
                              std::uint64_t log_bytes,
                              std::uint32_t log_crc) {
  std::ostringstream os;
  os << "spe-train-state 2\n";
  os << "config_fingerprint " << core.config_fingerprint
     << " data_fingerprint " << core.data_fingerprint << "\n";
  os << "n_estimators " << core.n_estimators << " include_bootstrap "
     << (core.include_bootstrap ? 1 : 0) << " next_iteration "
     << core.next_iteration << " prob_count " << core.prob_count << "\n";
  os << "rng " << core.rng_state << "\n";
  os << "validation " << (core.has_validation ? 1 : 0) << "\n";
  if (core.has_validation) {
    os << "best_auc " << FormatDouble(core.best_auc) << " best_size "
       << core.best_size << " scored_members " << core.scored_members << "\n";
  }
  char log_line[64];
  std::snprintf(log_line, sizeof(log_line), "log_bytes %llu log_crc %08x\n",
                static_cast<unsigned long long>(log_bytes), log_crc);
  os << log_line;
  return os.str();
}

// Parses the manifest payload; on success fills `core` (except the
// bootstrap blob, which lives in the log) and the log prefix pin.
void ParseManifest(const std::string& payload, LoadResult* result,
                   std::uint64_t* log_bytes, std::uint32_t* log_crc) {
  std::istringstream is(payload);
  TrainerStateCore& core = result->core;
  const auto fail = [result](const char* what) {
    result->error = std::string("checkpoint payload malformed: ") + what;
  };
  int version = 0;
  if (!Expect(is, "spe-train-state") || !(is >> version) || version != 2) {
    return fail("bad payload header");
  }
  int include_bootstrap = 0;
  if (!Expect(is, "config_fingerprint") || !(is >> core.config_fingerprint) ||
      !Expect(is, "data_fingerprint") || !(is >> core.data_fingerprint) ||
      !Expect(is, "n_estimators") || !(is >> core.n_estimators) ||
      !Expect(is, "include_bootstrap") || !(is >> include_bootstrap) ||
      !Expect(is, "next_iteration") || !(is >> core.next_iteration) ||
      !Expect(is, "prob_count") || !(is >> core.prob_count)) {
    return fail("bad scalar block");
  }
  core.include_bootstrap = include_bootstrap != 0;
  if (!Expect(is, "rng")) return fail("missing rng state");
  std::getline(is, core.rng_state);
  if (!core.rng_state.empty() && core.rng_state.front() == ' ') {
    core.rng_state.erase(0, 1);
  }
  if (core.rng_state.empty()) return fail("empty rng state");
  int has_validation = 0;
  if (!Expect(is, "validation") || !(is >> has_validation)) {
    return fail("bad validation flag");
  }
  core.has_validation = has_validation != 0;
  if (core.has_validation) {
    if (!Expect(is, "best_auc") || !(is >> core.best_auc) ||
        !Expect(is, "best_size") || !(is >> core.best_size) ||
        !Expect(is, "scored_members") || !(is >> core.scored_members)) {
      return fail("bad validation block");
    }
  }
  std::string crc_hex;
  if (!Expect(is, "log_bytes") || !(is >> *log_bytes) ||
      !Expect(is, "log_crc") || !(is >> crc_hex) || crc_hex.size() != 8) {
    return fail("bad member-log pin");
  }
  *log_crc = static_cast<std::uint32_t>(
      std::strtoul(crc_hex.c_str(), nullptr, 16));
}

std::vector<std::string> SerializeMembers(const VotingEnsemble& members) {
  std::vector<std::string> blobs;
  blobs.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::ostringstream os;
    SaveClassifier(members.member(i), os);
    blobs.push_back(os.str());
  }
  return blobs;
}

std::string EnvelopeHeader(const std::string& payload) {
  char header[80];
  std::snprintf(header, sizeof(header), "%s %d payload_bytes %zu crc32 %08x\n",
                kMagic, kVersion, payload.size(), Crc32(payload));
  return header;
}

// Replace a file wholesale via sibling tmp + rename(2): the rename is
// atomic, so the path always holds either the complete old or the
// complete new bytes.
void ReplaceFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
    if (!os.good()) throw TransientIoError("cannot write " + tmp);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os.good()) throw TransientIoError("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw TransientIoError("cannot write " + path + " (rename failed)");
  }
}

// Positional in-place write at `offset`, which makes a retried attempt
// idempotent and can only disturb bytes past the prefix earlier commit
// records vouch for.
void WriteAt(const std::string& path, const std::string& bytes,
             std::uint64_t offset) {
  std::fstream os(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!os.good()) throw TransientIoError("cannot open " + path);
  os.seekp(static_cast<std::streamoff>(offset));
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  if (!os.good()) throw TransientIoError("cannot write " + path);
}

// One checkpoint publish: land `log_chunk` in the member log, then the
// manifest commit record — the completed record is the commit point, so
// a crash at any instant leaves the previous (record, log-prefix) pair
// fully intact. Offset-zero writes replace the whole file via tmp +
// rename (a stale file from an older run must not survive into a new
// run's history); later writes land in place at their offset — on a
// crash they leave at most a torn tail past the previously committed
// prefix, which the loader ignores.
void PublishToDisk(const std::string& manifest_record,
                   std::uint64_t manifest_offset,
                   const std::string& manifest_path,
                   const std::string& log_chunk, std::uint64_t log_offset,
                   const RetryPolicy& retry) {
  const std::string log_path = MemberLogPath(manifest_path);
  RetryWithBackoff(retry, "checkpoint write " + manifest_path, [&] {
    if (Faults().ShouldFailArtifactWrite()) {
      throw TransientIoError(
          "injected fault: transient checkpoint write failed for " +
              manifest_path,
          /*injected=*/true);
    }
    if (log_offset == 0) {
      ReplaceFile(log_path, log_chunk);
    } else if (!log_chunk.empty()) {
      WriteAt(log_path, log_chunk, log_offset);
    }
    if (manifest_offset == 0) {
      ReplaceFile(manifest_path, manifest_record);
    } else {
      WriteAt(manifest_path, manifest_record, manifest_offset);
    }
  });
}

}  // namespace

std::string CheckpointPath(const std::string& directory) {
  return directory + "/spe_train.ckpt";
}

std::string MemberLogPath(const std::string& checkpoint_path) {
  return checkpoint_path + ".members";
}

void SaveTrainerStateToFile(const TrainerStateCore& core,
                            const VotingEnsemble& members,
                            const std::string& path,
                            const RetryPolicy& retry) {
  SaveTrainerStateToFile(core, SerializeMembers(members), path, retry);
}

void SaveTrainerStateToFile(const TrainerStateCore& core,
                            const std::vector<std::string>& member_blobs,
                            const std::string& path,
                            const RetryPolicy& retry) {
  // Serialize once; only the writes are retried.
  const std::string log = BuildMemberLog(core.bootstrap_blob, member_blobs);
  const std::string payload =
      SerializeManifest(core, log.size(), Crc32(log));
  PublishToDisk(EnvelopeHeader(payload) + payload, /*manifest_offset=*/0,
                path, log, /*log_offset=*/0, retry);
}

AsyncCheckpointPublisher::AsyncCheckpointPublisher(std::string checkpoint_path,
                                                   RetryPolicy retry)
    : manifest_path_(std::move(checkpoint_path)),
      log_path_(MemberLogPath(manifest_path_)),
      retry_(retry) {}

AsyncCheckpointPublisher::~AsyncCheckpointPublisher() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();  // finishes any in-flight job
  if (error_ != nullptr) {
    std::fprintf(stderr,
                 "[spe] a checkpoint publish failed and the error was never "
                 "collected; the on-disk checkpoint may be stale\n");
  }
}

void AsyncCheckpointPublisher::BeginLog(
    const std::string& bootstrap_blob,
    const std::vector<std::string>& member_blobs, bool adopt_existing,
    std::uint64_t adopted_manifest_bytes) {
  const std::string records = BuildMemberLog(bootstrap_blob, member_blobs);
  log_crc_ = Crc32(records);
  log_bytes_ = records.size();
  if (adopt_existing) {
    // These exact bytes are already on disk — the loaded manifest CRC'd
    // them — as is the manifest record prefix the load settled on. Drop
    // any torn tail the crash left past either; harmless if it fails
    // (the newest valid record bounds what the loader may read).
    committed_log_bytes_ = log_bytes_;
    committed_manifest_bytes_ = adopted_manifest_bytes;
    staged_.clear();
    std::error_code ec;
    std::filesystem::resize_file(log_path_, log_bytes_, ec);
    std::filesystem::resize_file(manifest_path_, adopted_manifest_bytes, ec);
  } else {
    committed_log_bytes_ = 0;
    committed_manifest_bytes_ = 0;
    staged_ = records;
  }
}

void AsyncCheckpointPublisher::AppendMember(const std::string& blob) {
  const std::size_t before = staged_.size();
  AppendRecord(&staged_, "member", blob);
  log_crc_ = Crc32Update(
      log_crc_, std::string_view(staged_).substr(before));
  log_bytes_ += staged_.size() - before;
}

void AsyncCheckpointPublisher::Publish(const TrainerStateCore& core) {
  const std::string payload = SerializeManifest(core, log_bytes_, log_crc_);
  std::string manifest = EnvelopeHeader(payload) + payload;
  std::exception_ptr pending;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (!worker_.joinable()) {
      worker_ = std::thread(&AsyncCheckpointPublisher::Loop, this);
    }
    pending = error_;
    error_ = nullptr;
    if (pending == nullptr) {
      if (has_job_) {
        // Coalesce: the queued-but-unstarted checkpoint is superseded by
        // this one. Its chunk covers [job_offset_, old committed) and
        // the new staging covers [old committed, log_bytes_), so the
        // concatenation is one contiguous chunk — and the superseded
        // commit record is simply never written; this one lands at its
        // offset instead. Publish therefore never blocks the training
        // thread; durability points go through Drain().
        job_chunk_ += staged_;
      } else {
        job_manifest_offset_ = committed_manifest_bytes_;
        job_chunk_ = std::move(staged_);
        job_offset_ = committed_log_bytes_;
        has_job_ = true;
      }
      committed_manifest_bytes_ = job_manifest_offset_ + manifest.size();
      job_manifest_ = std::move(manifest);
      staged_.clear();
      committed_log_bytes_ = log_bytes_;
    }
  }
  cv_.notify_all();
  if (pending != nullptr) std::rethrow_exception(pending);
}

void AsyncCheckpointPublisher::Drain() {
  std::exception_ptr pending;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return !has_job_ && !busy_; });
    pending = error_;
    error_ = nullptr;
  }
  if (pending != nullptr) std::rethrow_exception(pending);
}

void AsyncCheckpointPublisher::Loop() {
  for (;;) {
    std::string manifest;
    std::uint64_t manifest_offset = 0;
    std::string chunk;
    std::uint64_t offset = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return has_job_ || stop_; });
      if (!has_job_) return;  // stop requested with nothing pending
      manifest = std::move(job_manifest_);
      manifest_offset = job_manifest_offset_;
      chunk = std::move(job_chunk_);
      offset = job_offset_;
      has_job_ = false;
      busy_ = true;
    }
    std::exception_ptr err;
    try {
      PublishToDisk(manifest, manifest_offset, manifest_path_, chunk, offset,
                    retry_);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      busy_ = false;
      if (err != nullptr && error_ == nullptr) error_ = err;
    }
    cv_.notify_all();
  }
}

LoadResult LoadTrainerStateFromFile(const std::string& path,
                                    const RetryPolicy& retry) {
  LoadResult result;
  bool absent = false;
  const auto read_file = [&](const std::string& p) -> std::string {
    return RetryWithBackoff(retry, "checkpoint read " + p,
                            [&]() -> std::string {
      if (Faults().ShouldFailArtifactRead()) {
        throw TransientIoError(
            "injected fault: transient checkpoint read failed for " + p,
            /*injected=*/true);
      }
      std::ifstream is(p, std::ios::binary);
      if (!is.good()) {
        absent = true;
        return std::string();
      }
      absent = false;
      std::ostringstream buf;
      buf << is.rdbuf();
      if (is.bad()) throw TransientIoError("cannot read " + p);
      return buf.str();
    });
  };
  const std::string content = read_file(path);
  if (absent) {
    result.missing = true;
    result.error = "cannot open " + path;
    return result;
  }
  // Scan the manifest's commit records and settle on the newest complete
  // valid one. A record cut short by end-of-file is a torn append from a
  // crash — normal; fall back to the record before it. Anything else
  // wrong (bad magic, malformed header, CRC mismatch on a complete
  // payload) cannot come from a torn append, because crashed appends
  // only ever leave prefixes — refuse it as corruption instead of
  // silently resuming older state.
  std::string last_payload;
  bool any_valid = false;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // torn header line at the tail
    std::istringstream header(content.substr(pos, nl - pos));
    std::string magic;
    int version = 0;
    std::size_t payload_bytes = 0;
    std::string crc_hex;
    if (!(header >> magic) || magic != kMagic) {
      result.error =
          any_valid
              ? "checkpoint corrupted: malformed record after a valid "
                "checkpoint"
              : "checkpoint has bad magic (not an spe-checkpoint file)";
      return result;
    }
    if (!(header >> version) || version != kVersion ||
        !Expect(header, "payload_bytes") || !(header >> payload_bytes) ||
        !Expect(header, "crc32") || !(header >> crc_hex)) {
      result.error = any_valid
                         ? "checkpoint corrupted: malformed record after a "
                           "valid checkpoint"
                         : "checkpoint header malformed";
      return result;
    }
    const std::size_t payload_start = nl + 1;
    if (content.size() < payload_start + payload_bytes) break;  // torn append
    const std::string payload = content.substr(payload_start, payload_bytes);
    char expected_hex[16];
    std::snprintf(expected_hex, sizeof(expected_hex), "%08x", Crc32(payload));
    if (crc_hex != expected_hex) {
      result.error = "checkpoint corrupted: crc32 mismatch";
      return result;
    }
    last_payload = payload;
    any_valid = true;
    pos = payload_start + payload_bytes;
    result.manifest_bytes = pos;
  }
  if (!any_valid) {
    result.error = content.empty()
                       ? "checkpoint has bad magic (not an spe-checkpoint file)"
                       : "checkpoint truncated: payload shorter than advertised";
    return result;
  }
  std::uint64_t log_bytes = 0;
  std::uint32_t log_crc = 0;
  ParseManifest(last_payload, &result, &log_bytes, &log_crc);
  if (!result.error.empty()) return result;

  std::string log = read_file(MemberLogPath(path));
  if (absent) {
    if (log_bytes == 0) return result;  // empty log was never written
    result.error = "checkpoint member log is missing";
    return result;
  }
  if (log.size() < log_bytes) {
    result.error =
        "checkpoint member log truncated: shorter than the manifest vouches "
        "for";
    return result;
  }
  log.resize(log_bytes);  // a torn tail past the vouched prefix is normal
  if (Crc32(log) != log_crc) {
    result.error = "checkpoint member log corrupted: crc32 mismatch";
    return result;
  }
  if (!ParseMemberLog(log, &result)) {
    result.error = "checkpoint payload malformed: bad member log record";
  }
  return result;
}

std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t value) {
  // SplitMix64 finalizer over (seed, value): cheap, order-dependent,
  // and well-mixed — fingerprints only need to make collisions between
  // *related* configs (one field nudged) vanishingly unlikely.
  value += 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ull;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebull;
  return seed ^ (value ^ (value >> 31));
}

namespace {

// Order-sensitive 64-bit fold over raw bytes: xor-multiply per 8-byte
// word, length-tagged tail. Runs at memory speed, unlike the table-walk
// CRC kernel — this is on the hot path of every checkpointed Fit, and
// the fingerprint only ever compares against itself, so collision
// resistance (not error-model guarantees) is what matters.
std::uint64_t FoldBytes(std::uint64_t h, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  const char* const end = p + size;
  std::uint64_t w = 0;
  for (; p + sizeof(w) <= end; p += sizeof(w)) {
    std::memcpy(&w, p, sizeof(w));
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
  }
  w = 0;
  if (p < end) std::memcpy(&w, p, static_cast<std::size_t>(end - p));
  return HashCombine(h ^ size, w);
}

}  // namespace

std::uint64_t DatasetFingerprint(const DatasetView& data) {
  data.CheckAlive();
  std::uint64_t h = HashCombine(0x7370652d64617461ull, data.num_rows());
  h = HashCombine(h, data.num_features());
  if (data.num_rows() > 0) {
    // Columnar fold: identity views hash each feature's contiguous
    // slice directly; indexed and row-major views gather the column
    // into scratch first so equal contents hash equal regardless of
    // the view's mode.
    const DataMatrix* parent = data.identity() ? data.parent() : nullptr;
    std::vector<double> col_scratch;
    for (std::size_t j = 0; j < data.num_features(); ++j) {
      if (parent != nullptr) {
        const std::span<const double> col = parent->Column(j);
        h = FoldBytes(h, col.data(), col.size_bytes());
      } else {
        col_scratch.resize(data.num_rows());
        for (std::size_t i = 0; i < data.num_rows(); ++i) {
          col_scratch[i] = data.At(i, j);
        }
        h = FoldBytes(h, col_scratch.data(),
                      col_scratch.size() * sizeof(double));
      }
    }
  }
  const std::vector<int> labels = data.LabelsVector();
  h = FoldBytes(h, labels.data(), labels.size() * sizeof(int));
  return h;
}

}  // namespace checkpoint
}  // namespace spe
