#include "spe/serve/wire.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace spe::wire {
namespace {

static_assert(sizeof(double) == 8 && sizeof(float) == 4,
              "wire format assumes IEEE-754 f64/f32");

constexpr bool kLittle = std::endian::native == std::endian::little;

void AppendU32(std::string& out, std::uint32_t v) {
  unsigned char b[4];
  b[0] = static_cast<unsigned char>(v);
  b[1] = static_cast<unsigned char>(v >> 8);
  b[2] = static_cast<unsigned char>(v >> 16);
  b[3] = static_cast<unsigned char>(v >> 24);
  out.append(reinterpret_cast<const char*>(b), 4);
}

void AppendU64(std::string& out, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  out.append(reinterpret_cast<const char*>(b), 8);
}

void AppendF64(std::string& out, double v) {
  AppendU64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t ReadU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t ReadU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

double ReadF64(const unsigned char* p) {
  return std::bit_cast<double>(ReadU64(p));
}

float ReadF32(const unsigned char* p) {
  return std::bit_cast<float>(ReadU32(p));
}

}  // namespace

FrameHeader DecodeHeader(const unsigned char* bytes) {
  FrameHeader h;
  h.magic = bytes[0];
  h.version = bytes[1];
  h.flags = bytes[2];
  h.type = bytes[3];
  h.payload_len = ReadU32(bytes + 4);
  return h;
}

std::string ValidateRequestHeader(const FrameHeader& h) {
  if (h.magic != kMagic) return "bad frame magic";
  if (h.version != kVersion) {
    return "unsupported frame version " + std::to_string(h.version);
  }
  if (h.payload_len > kMaxPayloadBytes) {
    return "frame payload exceeds " + std::to_string(kMaxPayloadBytes) +
           " bytes";
  }
  switch (static_cast<FrameType>(h.type)) {
    case FrameType::kScore: {
      std::size_t floor = 8;  // id
      if (h.flags & kFlagDeadline) floor += 8;
      if (h.payload_len < floor) return "score frame payload too short";
      return "";
    }
    case FrameType::kStats:
    case FrameType::kMetrics:
    case FrameType::kReload:
      return "";
    default:
      return "unknown frame type " + std::to_string(h.type);
  }
}

bool IsFramingLost(std::string_view error) {
  return error.rfind("bad frame magic", 0) == 0 ||
         error.rfind("unsupported frame version", 0) == 0;
}

std::string DecodeScorePayload(const FrameHeader& h,
                               const unsigned char* payload, ScoreFrame& out,
                               std::vector<double>& features) {
  const unsigned char* p = payload;
  std::size_t remaining = h.payload_len;
  out.id = ReadU64(p);
  p += 8;
  remaining -= 8;
  out.deadline_ms = -1.0;
  if (h.flags & kFlagDeadline) {
    const double d = ReadF64(p);
    p += 8;
    remaining -= 8;
    if (!std::isfinite(d) || d < 0.0) {
      return "\"deadline_ms\" must be a non-negative number";
    }
    out.deadline_ms = d;
  }
  const std::size_t elem = (h.flags & kFlagF32) ? 4 : 8;
  if (remaining % elem != 0) {
    return "feature payload is not a whole number of " +
           std::to_string(elem * 8) + "-bit values";
  }
  const std::size_t count = remaining / elem;
  features.resize(count);
  if (h.flags & kFlagF32) {
    for (std::size_t i = 0; i < count; ++i) {
      features[i] = static_cast<double>(ReadF32(p + 4 * i));
    }
  } else if constexpr (kLittle) {
    // The zero-parse hot path: wire layout == scoring layout. An id-only
    // frame leaves `features` empty, and a memcpy into its null data()
    // is undefined even for zero bytes.
    if (remaining != 0) std::memcpy(features.data(), p, remaining);
  } else {
    for (std::size_t i = 0; i < count; ++i) features[i] = ReadF64(p + 8 * i);
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::isfinite(features[i])) {
      return "non-finite value at column " + std::to_string(i + 1);
    }
  }
  return "";
}

void AppendHeader(std::string& out, FrameType type, unsigned char flags,
                  std::uint32_t payload_len) {
  out.push_back(static_cast<char>(kMagic));
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(flags));
  out.push_back(static_cast<char>(type));
  AppendU32(out, payload_len);
}

void AppendScoreRequest(std::string& out, std::uint64_t id,
                        const double* features, std::size_t count, bool f32,
                        double deadline_ms) {
  unsigned char flags = 0;
  std::size_t len = 8 + count * (f32 ? 4 : 8);
  if (f32) flags |= kFlagF32;
  if (deadline_ms >= 0.0) {
    flags |= kFlagDeadline;
    len += 8;
  }
  AppendHeader(out, FrameType::kScore, flags,
               static_cast<std::uint32_t>(len));
  AppendU64(out, id);
  if (deadline_ms >= 0.0) AppendF64(out, deadline_ms);
  if (f32) {
    for (std::size_t i = 0; i < count; ++i) {
      AppendU32(out,
                std::bit_cast<std::uint32_t>(static_cast<float>(features[i])));
    }
  } else if constexpr (kLittle) {
    out.append(reinterpret_cast<const char*>(features), count * 8);
  } else {
    for (std::size_t i = 0; i < count; ++i) AppendF64(out, features[i]);
  }
}

void AppendControlRequest(std::string& out, FrameType type,
                          std::string_view payload) {
  AppendHeader(out, type, 0, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
}

void AppendScoreResponse(std::string& out, std::uint64_t id, double proba,
                         bool degraded) {
  AppendHeader(out, FrameType::kScoreOk, degraded ? kFlagDegraded : 0, 16);
  AppendU64(out, id);
  AppendF64(out, proba);
}

void AppendErrorResponse(std::string& out, std::uint64_t id,
                         std::string_view message) {
  // A message that would blow the frame cap is truncated, not refused:
  // the error is the payload, and the client needs to see it.
  if (message.size() > kMaxPayloadBytes - 8) {
    message = message.substr(0, kMaxPayloadBytes - 8);
  }
  AppendHeader(out, FrameType::kError, 0,
               static_cast<std::uint32_t>(8 + message.size()));
  AppendU64(out, id);
  out.append(message);
}

void AppendTextResponse(std::string& out, std::string_view text) {
  if (text.size() > kMaxPayloadBytes) text = text.substr(0, kMaxPayloadBytes);
  AppendHeader(out, FrameType::kText, 0,
               static_cast<std::uint32_t>(text.size()));
  out.append(text);
}

std::string DecodeResponse(const FrameHeader& h, const unsigned char* payload,
                           DecodedResponse& out) {
  out.degraded = (h.flags & kFlagDegraded) != 0;
  out.type = static_cast<FrameType>(h.type);
  switch (out.type) {
    case FrameType::kScoreOk:
      if (h.payload_len != 16) return "malformed score response";
      out.id = ReadU64(payload);
      out.proba = ReadF64(payload + 8);
      return "";
    case FrameType::kError:
      if (h.payload_len < 8) return "malformed error response";
      out.id = ReadU64(payload);
      out.text.assign(reinterpret_cast<const char*>(payload) + 8,
                      h.payload_len - 8);
      return "";
    case FrameType::kText:
      out.id = 0;
      out.text.assign(reinterpret_cast<const char*>(payload), h.payload_len);
      return "";
    default:
      return "unknown response frame type " + std::to_string(h.type);
  }
}

}  // namespace spe::wire
