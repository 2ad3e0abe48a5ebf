#include "spe/data/text_reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

#include "spe/common/check.h"
#include "spe/common/parse.h"
#include "spe/common/retry.h"

namespace spe {
namespace {

std::string_view TrimBlanks(std::string_view field) {
  while (!field.empty() && (field.front() == ' ' || field.front() == '\t')) {
    field.remove_prefix(1);
  }
  while (!field.empty() && (field.back() == ' ' || field.back() == '\t')) {
    field.remove_suffix(1);
  }
  return field;
}

}  // namespace

TextLineReader::TextLineReader(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  SPE_CHECK(fd_ >= 0) << "cannot open " << path;
  struct stat st{};
  if (::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode)) {
    file_size_ = static_cast<std::uint64_t>(st.st_size);
  }
  buf_.resize(kTextReadChunkBytes);
}

TextLineReader::~TextLineReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool TextLineReader::Next(std::string_view* line) {
  for (;;) {
    const char* base = buf_.data();
    const void* nl = std::memchr(base + scan_, '\n', end_ - scan_);
    std::size_t stop = 0;  // one past the line's last byte
    std::size_t next = 0;  // where the following line starts
    if (nl != nullptr) {
      stop = static_cast<std::size_t>(static_cast<const char*>(nl) - base);
      next = stop + 1;
    } else if (eof_) {
      if (begin_ == end_) return false;
      stop = next = end_;  // last line, no final newline
    } else {
      // Carry the partial line to the front and read the next chunk
      // after it, growing the buffer only when the line outgrows it.
      const std::size_t partial = end_ - begin_;
      if (begin_ > 0) {
        std::memmove(buf_.data(), buf_.data() + begin_, partial);
        begin_ = 0;
        end_ = partial;
      }
      scan_ = end_;
      if (buf_.size() - end_ < kTextReadChunkBytes) {
        buf_.resize(end_ + kTextReadChunkBytes);
      }
      const ssize_t n = ::read(fd_, buf_.data() + end_, kTextReadChunkBytes);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw TransientIoError("cannot read " + path_ + ": " +
                               std::strerror(errno));
      }
      if (n == 0) eof_ = true;
      end_ += static_cast<std::size_t>(n);
      continue;
    }
    std::size_t length = stop - begin_;
    if (length > 0 && base[stop - 1] == '\r') --length;
    *line = std::string_view(base + begin_, length);
    begin_ = scan_ = next;
    ++line_number_;
    return true;
  }
}

void TextLineReader::Fail(std::string_view what) const {
  throw DataFormatError(path_ + ":" + std::to_string(line_number_) + ": " +
                        std::string(what));
}

const char* ParseNumberField(std::string_view field, double* out) {
  field = TrimBlanks(field);
  if (field.empty()) return "empty field";
  std::size_t i = 0;
  bool out_of_range = false;
  if (!ParseDoublePrefix(field, i, out, &out_of_range) || i != field.size()) {
    return "not a number";
  }
  if (out_of_range) return "number out of range";
  return nullptr;
}

const char* ParseIntegerField(std::string_view field, long long* out) {
  field = TrimBlanks(field);
  if (field.empty()) return "empty field";
  // from_chars takes '-' but not '+': skip one '+', and refuse a sign
  // after it ("+-1").
  if (field.front() == '+') {
    field.remove_prefix(1);
    if (!field.empty() && field.front() == '-') return "not an integer";
  }
  const char* end = field.data() + field.size();
  const std::from_chars_result r = std::from_chars(field.data(), end, *out);
  if (r.ec == std::errc::result_out_of_range) return "integer out of range";
  if (r.ec != std::errc() || r.ptr != end) return "not an integer";
  return nullptr;
}

std::string QuoteField(std::string_view field) {
  constexpr std::size_t kMaxShown = 40;
  std::string quoted = "'";
  quoted.append(field.substr(0, kMaxShown));
  if (field.size() > kMaxShown) quoted.append("...");
  quoted.push_back('\'');
  return quoted;
}

}  // namespace spe
