#ifndef SPE_DATA_MMAP_CACHE_H_
#define SPE_DATA_MMAP_CACHE_H_

#include <cstddef>
#include <string>

#include "spe/data/dataset.h"

namespace spe {

/// Parse-once mmap-reuse cache for CSV datasets.
///
/// The first LoadCsvCached for a CSV parses it and streams a
/// column-major binary sidecar next to it (`<path>.spmc`, atomic
/// tmp+rename publish) straight from the parsed columns, without an
/// in-memory copy of the image. Subsequent loads map the sidecar
/// read-only, verify its CRC once, and adopt its columns zero-copy into
/// the Dataset's DataMatrix — no parse, no materialization; the OS pages
/// features in on demand. Labels are always copied out eagerly (4
/// bytes/row) so `labels()` stays a plain vector.
///
/// Sidecar layout (little-endian, version 1):
///
///   offset  size             field
///   0       4                magic "SPMC"
///   4       4                format version (u32, = 1)
///   8       8                num_rows (u64)
///   16      8                num_features (u64)
///   24      8                label_column (u64)
///   32      1                has_header flag (u8)
///   33      8                source file size in bytes (u64)
///   41      8                source file mtime, ns since epoch (u64)
///   49      d                feature kinds, one byte each (0=num, 1=cat)
///   ..      pad              zero padding to the next 8-byte boundary
///   ..      d * rows * 8     feature columns, column-contiguous f64
///   ..      rows * 4         labels, i32
///   end-4   4                CRC-32 (u32) of every preceding byte
///
/// Staleness is a fingerprint check: source size + mtime + label_column
/// + has_header must all match, else the sidecar is rewritten from a
/// fresh parse. CRC mismatch, short file, or bad magic are reported as
/// corrupt and likewise fall back to the parser — a damaged cache can
/// slow a load down but never wrong it.
enum class SidecarStatus { kAbsent, kStale, kCorrupt, kValid };

/// Human-readable spelling: "absent" / "stale" / "corrupt" / "valid".
const char* SidecarStatusName(SidecarStatus status);

struct SidecarInfo {
  SidecarStatus status = SidecarStatus::kAbsent;
  std::string sidecar_path;
  std::string detail;       // one-line reason for the status
  std::size_t num_rows = 0;      // valid sidecars only
  std::size_t num_features = 0;  // valid sidecars only
};

/// `<csv_path>.spmc`.
std::string SidecarPathFor(const std::string& csv_path);

/// Classifies the sidecar for `csv_path` without loading the dataset
/// (CRC is verified, so kValid means the bytes are trustworthy). Used by
/// `spe_cli inspect` to make cache staleness debuggable offline.
SidecarInfo InspectSidecar(const std::string& csv_path,
                           std::size_t label_column, bool has_header = true);

/// LoadCsv with the sidecar cache in front: mmap-adopts a valid sidecar,
/// otherwise parses the CSV and (best effort) publishes a fresh sidecar
/// for next time. Identical resulting values either way. A malformed
/// CSV throws DataFormatError (csv.h) and publishes nothing.
Dataset LoadCsvCached(const std::string& path, std::size_t label_column,
                      bool has_header = true);

/// Writes the sidecar for `data` as parsed from `csv_path` (fingerprint
/// taken from the file's current size/mtime). Returns false on IO error
/// — callers treat the cache as optional.
bool WriteSidecar(const Dataset& data, const std::string& csv_path,
                  std::size_t label_column, bool has_header = true);

}  // namespace spe

#endif  // SPE_DATA_MMAP_CACHE_H_
