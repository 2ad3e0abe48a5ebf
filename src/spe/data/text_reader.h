#ifndef SPE_DATA_TEXT_READER_H_
#define SPE_DATA_TEXT_READER_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace spe {

/// Malformed content in a data file (CSV or LIBSVM): a field that is not
/// a number, a number out of double's range, a bad label, a row of the
/// wrong width. The message starts with "path:line: ". Distinct from
/// TransientIoError because retrying cannot heal it; spe_cli maps it to
/// exit 4 (kExitCorruptArtifact).
class DataFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Size of each read() into the reused line buffer. A line longer than
/// this carries over and grows the buffer until it fits.
inline constexpr std::size_t kTextReadChunkBytes = std::size_t{1} << 20;

/// Reads a text file line by line through one reused buffer, filled in
/// kTextReadChunkBytes reads; a line split across two reads is carried
/// over to the next one. Lines end at '\n'; one trailing '\r' is
/// dropped (CRLF files), and a missing final newline still ends the
/// last line. The file is read once, front to back, with no per-line
/// allocation.
class TextLineReader {
 public:
  /// Aborts (CHECK) with "cannot open <path>" when the file cannot be
  /// opened: callers that want an exit code check readability first.
  explicit TextLineReader(const std::string& path);
  ~TextLineReader();
  TextLineReader(const TextLineReader&) = delete;
  TextLineReader& operator=(const TextLineReader&) = delete;

  /// Sets `line` to the next line, without its terminator, and returns
  /// true; false at end of file. The view is valid until the next call.
  /// A read error throws TransientIoError.
  bool Next(std::string_view* line);

  /// 1-based number of the line Next returned last.
  std::size_t line_number() const { return line_number_; }
  /// Size of the file when it was opened (0 for pipes and the like).
  std::uint64_t file_size() const { return file_size_; }

  /// Throws DataFormatError "<path>:<line>: <what>".
  [[noreturn]] void Fail(std::string_view what) const;

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t file_size_ = 0;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  // start of the unread part of buf_
  std::size_t scan_ = 0;   // [begin_, scan_) is known to hold no '\n'
  std::size_t end_ = 0;    // end of the bytes read into buf_
  bool eof_ = false;
  std::size_t line_number_ = 0;
};

/// Field grammar shared by the CSV and LIBSVM readers. Surrounding
/// spaces and tabs are ignored; everything else in the field must be
/// part of the number. Each returns nullptr on success, else the reason
/// the field is refused ("empty field", "not a number", ...).

/// A decimal or scientific number with an optional sign ('+' allowed),
/// or a nan/inf/infinity spelling (any case). Hex floats and trailing
/// junk ("1.5x") are refused, and so is a finite spelling whose value
/// lies outside double's range in either direction ("1e400", "1e-400").
const char* ParseNumberField(std::string_view field, double* out);

/// A base-10 integer with an optional sign ('+' allowed) that fits a
/// long long. "1.0" and "1e0" are refused.
const char* ParseIntegerField(std::string_view field, long long* out);

/// `field` for an error message: quoted, cut to a readable length.
std::string QuoteField(std::string_view field);

}  // namespace spe

#endif  // SPE_DATA_TEXT_READER_H_
