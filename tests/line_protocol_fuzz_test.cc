// Fuzz-ish property test for both serve protocols: 10k seeded random
// byte strings — embedded NULs, overlong lines, malformed JSON/CSV,
// NaN/Inf spellings — go through ParseRequestLine, and random /
// mutated binary frames go through the wire decoders. Neither parser
// may ever crash or trip UB (run this under SPE_SANITIZE=address/
// undefined/thread builds — it carries the `sanitize` ctest label), and
// every rejection must land in its documented error taxonomy, so a
// refactor cannot silently invent new failure modes mid-protocol.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "spe/common/rng.h"
#include "spe/serve/line_protocol.h"
#include "spe/serve/wire.h"

namespace spe {
namespace {

// Every error ParseRequestLine can produce starts with one of these.
// Adding a message is fine (extend the list); renaming one is a
// wire-visible behaviour change that must be deliberate.
const char* const kErrorTaxonomy[] = {
    "expected '{'",
    "expected object key",
    "expected ':'",
    "\"features\" must be an array",
    "bad number in \"features\"",
    "non-finite value in \"features\"",
    "expected ',' or ']' in \"features\"",
    "\"deadline_ms\" must be a non-negative number",
    "unterminated string",
    "unsupported value for key",
    "\"id\" longer than",
    "missing \"features\"",
    "expected ',' or '}'",
    "bad number at column",
    "non-finite value at column",
    "expected ','",
    "request line exceeds",
};

bool InTaxonomy(const std::string& error) {
  for (const char* prefix : kErrorTaxonomy) {
    if (error.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

void CheckParseInvariants(std::string_view line) {
  const ServeRequest request = ParseRequestLine(line);
  switch (request.kind) {
    case RequestKind::kScore:
      EXPECT_TRUE(request.error.empty());
      for (const double v : request.features) {
        EXPECT_TRUE(std::isfinite(v)) << "parser let a non-finite through";
      }
      EXPECT_LE(request.id.size(), kMaxIdBytes + 2);  // quotes included
      break;
    case RequestKind::kStats:
    case RequestKind::kMetrics:
    case RequestKind::kEmpty:
      EXPECT_TRUE(request.error.empty());
      EXPECT_TRUE(request.features.empty());
      break;
    case RequestKind::kReload:
      EXPECT_TRUE(request.error.empty());
      EXPECT_TRUE(request.features.empty());
      // The path is verbatim operator input but never contains the
      // surrounding whitespace.
      if (!request.reload_path.empty()) {
        EXPECT_FALSE(
            std::isspace(static_cast<unsigned char>(request.reload_path.front())));
        EXPECT_FALSE(
            std::isspace(static_cast<unsigned char>(request.reload_path.back())));
      }
      break;
    case RequestKind::kInvalid:
      EXPECT_FALSE(request.error.empty());
      EXPECT_TRUE(InTaxonomy(request.error))
          << "error outside the documented taxonomy: " << request.error;
      // The error response must render without throwing, in either
      // shape.
      EXPECT_FALSE(FormatErrorResponse(request, request.error).empty());
      break;
  }
}

TEST(LineProtocolFuzzTest, RandomBytesNeverCrashAndErrorsStayInTaxonomy) {
  Rng rng(20260807);
  // Byte palette biased toward protocol-significant characters so the
  // random walk actually reaches deep parser states, plus raw bytes
  // (including NUL) for the torture component.
  const std::string palette =
      "{}[]:,\"0123456789.eE+-naifNAIFxy \t_features id deadline_ms";
  for (int iter = 0; iter < 10000; ++iter) {
    const std::size_t len = rng.Index(161);
    std::string line;
    line.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      if (rng.Index(5) == 0) {
        line.push_back(static_cast<char>(rng.Index(256)));
      } else {
        line.push_back(palette[rng.Index(palette.size())]);
      }
    }
    CheckParseInvariants(line);
  }
}

TEST(LineProtocolFuzzTest, MutatedValidRequestsNeverCrash) {
  Rng rng(7);
  const std::string seed_requests[] = {
      "{\"id\":17,\"features\":[0.5,-1.25,3e2],\"deadline_ms\":50}",
      "{\"id\":\"abc\",\"features\":[1,2,3]}",
      "0.5,1.25,-3,4e-2",
      "STATS",
      "!stats",
  };
  for (int iter = 0; iter < 10000; ++iter) {
    std::string line = seed_requests[rng.Index(std::size(seed_requests))];
    // 1-4 random point mutations: overwrite, insert, or delete.
    const std::size_t mutations = 1 + rng.Index(4);
    for (std::size_t m = 0; m < mutations && !line.empty(); ++m) {
      const std::size_t pos = rng.Index(line.size());
      switch (rng.Index(3)) {
        case 0:
          line[pos] = static_cast<char>(rng.Index(256));
          break;
        case 1:
          line.insert(line.begin() + pos,
                      static_cast<char>(rng.Index(256)));
          break;
        default:
          line.erase(line.begin() + pos);
          break;
      }
    }
    CheckParseInvariants(line);
  }
}

TEST(LineProtocolFuzzTest, NonFiniteSpellingsAreRejectedNotParsed) {
  for (const char* line :
       {"nan", "NaN,1", "1,inf", "-inf,0", "1,Infinity",
        "{\"features\":[nan]}", "{\"features\":[1,-inf]}",
        "{\"features\":[1e999]}", "1e999,2"}) {
    const ServeRequest request = ParseRequestLine(line);
    EXPECT_EQ(request.kind, RequestKind::kInvalid) << line;
    EXPECT_TRUE(InTaxonomy(request.error)) << request.error;
  }
}

TEST(LineProtocolFuzzTest, OverlongLineIsRejectedUpFront) {
  const std::string line(kMaxRequestLineBytes + 1, '5');
  const ServeRequest request = ParseRequestLine(line);
  EXPECT_EQ(request.kind, RequestKind::kInvalid);
  EXPECT_EQ(request.error.rfind("request line exceeds", 0), 0u);
  // One byte under the cap parses (as a giant CSV number -> invalid
  // because it overflows, or valid — either way, no crash).
  CheckParseInvariants(std::string(kMaxRequestLineBytes - 1, '1'));
}

TEST(LineProtocolFuzzTest, EmbeddedNulsDoNotTruncateParsing) {
  const std::string nul_line = std::string("1,2\0,3", 6);
  const ServeRequest request = ParseRequestLine(nul_line);
  // A NUL inside a CSV number is malformed, not an early terminator.
  EXPECT_EQ(request.kind, RequestKind::kInvalid);
  EXPECT_TRUE(InTaxonomy(request.error)) << request.error;
  const std::string nul_json =
      std::string("{\"features\":[1\0]}", 17);
  CheckParseInvariants(nul_json);
}

// ---- binary wire protocol ------------------------------------------

// Every refusal the binary request decoders can produce starts with one
// of these. Two entries ("deadline_ms", "non-finite value at column")
// are deliberately shared with the text taxonomy: the same defect must
// read the same over either protocol.
const char* const kBinaryTaxonomy[] = {
    "bad frame magic",
    "unsupported frame version",
    "frame payload exceeds",
    "score frame payload too short",
    "unknown frame type",
    "\"deadline_ms\" must be a non-negative number",
    "feature payload is not a whole number of",
    "non-finite value at column",
};

bool InBinaryTaxonomy(const std::string& error) {
  for (const char* prefix : kBinaryTaxonomy) {
    if (error.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Runs one raw frame (header + payload bytes) through the same decode
/// sequence the event loop uses and checks the invariants.
void CheckFrameInvariants(const unsigned char* header_bytes,
                          const std::vector<unsigned char>& payload) {
  const wire::FrameHeader header = wire::DecodeHeader(header_bytes);
  const std::string header_error = wire::ValidateRequestHeader(header);
  if (!header_error.empty()) {
    EXPECT_TRUE(InBinaryTaxonomy(header_error)) << header_error;
    // Framing is lost exactly when resynchronization is impossible —
    // bad magic or unknown version, never for a refused payload.
    if (header.magic != wire::kMagic ||
        header.version != wire::kVersion) {
      EXPECT_TRUE(wire::IsFramingLost(header_error)) << header_error;
    } else {
      EXPECT_FALSE(wire::IsFramingLost(header_error)) << header_error;
    }
    return;
  }
  // Validated headers always fit the cap, so the transport's buffering
  // is bounded.
  EXPECT_LE(header.payload_len, wire::kMaxPayloadBytes);
  if (static_cast<wire::FrameType>(header.type) != wire::FrameType::kScore) {
    return;  // control payloads are opaque bytes, nothing to decode
  }
  ASSERT_GE(payload.size(), header.payload_len);
  wire::ScoreFrame frame;
  std::vector<double> features;
  const std::string error =
      wire::DecodeScorePayload(header, payload.data(), frame, features);
  if (!error.empty()) {
    EXPECT_TRUE(InBinaryTaxonomy(error)) << error;
    return;
  }
  for (const double v : features) {
    EXPECT_TRUE(std::isfinite(v)) << "decoder let a non-finite through";
  }
  EXPECT_TRUE(frame.deadline_ms >= 0.0 || frame.deadline_ms == -1.0);
}

TEST(WireFuzzTest, RandomHeadersAndPayloadsNeverCrash) {
  Rng rng(20260808);
  for (int iter = 0; iter < 10000; ++iter) {
    unsigned char header_bytes[wire::kHeaderBytes];
    // Bias toward well-formed prefixes so the walk reaches payload
    // decoding, not just the magic check.
    header_bytes[0] = rng.Index(2) ? wire::kMagic
                                   : static_cast<unsigned char>(rng.Index(256));
    header_bytes[1] = rng.Index(2) ? wire::kVersion
                                   : static_cast<unsigned char>(rng.Index(256));
    header_bytes[2] = static_cast<unsigned char>(rng.Index(8));  // flags
    header_bytes[3] = rng.Index(2) ? static_cast<unsigned char>(1 + rng.Index(4))
                                   : static_cast<unsigned char>(rng.Index(256));
    // Keep declared lengths small enough to materialize the payload.
    const std::uint32_t len = static_cast<std::uint32_t>(rng.Index(128));
    header_bytes[4] = static_cast<unsigned char>(len);
    header_bytes[5] = static_cast<unsigned char>(len >> 8);
    header_bytes[6] = static_cast<unsigned char>(len >> 16);
    header_bytes[7] = static_cast<unsigned char>(len >> 24);
    std::vector<unsigned char> payload(len);
    for (auto& b : payload) b = static_cast<unsigned char>(rng.Index(256));
    CheckFrameInvariants(header_bytes, payload);
  }
}

TEST(WireFuzzTest, MutatedValidFramesNeverCrash) {
  Rng rng(31);
  for (int iter = 0; iter < 10000; ++iter) {
    std::string frame;
    const double features[] = {0.5, -1.25, 3e2};
    const bool f32 = rng.Index(2) == 0;
    const double deadline = rng.Index(2) == 0 ? 50.0 : -1.0;
    wire::AppendScoreRequest(frame, rng.Index(1000), features, 3, f32,
                             deadline);
    const std::size_t mutations = 1 + rng.Index(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      frame[rng.Index(frame.size())] = static_cast<char>(rng.Index(256));
    }
    // A mutation in the length field may declare more payload than the
    // mutated frame carries; feed it what a transport would have read.
    const auto* bytes = reinterpret_cast<const unsigned char*>(frame.data());
    const wire::FrameHeader header = wire::DecodeHeader(bytes);
    std::vector<unsigned char> payload(
        bytes + wire::kHeaderBytes,
        bytes + frame.size());
    if (header.payload_len <= wire::kMaxPayloadBytes) {
      // Over-cap declarations are refused at the header, so only
      // in-cap payloads ever need to exist.
      payload.resize(
          std::max<std::size_t>(payload.size(), header.payload_len));
    }
    CheckFrameInvariants(bytes, payload);
  }
}

TEST(WireFuzzTest, ScoreRequestRoundTripsExactly) {
  const double features[] = {0.5, -1.25, 3e2, 1e-300};
  std::string frame;
  wire::AppendScoreRequest(frame, 77, features, 4, /*f32=*/false,
                           /*deadline_ms=*/12.5);
  const auto* bytes = reinterpret_cast<const unsigned char*>(frame.data());
  const wire::FrameHeader header = wire::DecodeHeader(bytes);
  ASSERT_EQ(wire::ValidateRequestHeader(header), "");
  wire::ScoreFrame decoded;
  std::vector<double> out;
  ASSERT_EQ(wire::DecodeScorePayload(header, bytes + wire::kHeaderBytes,
                                     decoded, out),
            "");
  EXPECT_EQ(decoded.id, 77u);
  EXPECT_EQ(decoded.deadline_ms, 12.5);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], features[i]) << "f64 features must round-trip bitwise";
  }
  // f32 widens to the rounded value, not the original.
  frame.clear();
  wire::AppendScoreRequest(frame, 1, features, 4, /*f32=*/true);
  const auto* b32 = reinterpret_cast<const unsigned char*>(frame.data());
  const wire::FrameHeader h32 = wire::DecodeHeader(b32);
  ASSERT_EQ(wire::ValidateRequestHeader(h32), "");
  ASSERT_EQ(wire::DecodeScorePayload(h32, b32 + wire::kHeaderBytes, decoded,
                                     out),
            "");
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], static_cast<double>(static_cast<float>(features[i])));
  }
}

// An id-only score frame (payload_len 8) carries zero features. Decoded
// into a fresh vector — whose data() is null — it must yield an empty
// row with no undefined behaviour (run under UBSan via the sanitize
// label).
TEST(WireFuzzTest, IdOnlyFrameDecodesToZeroFeatures) {
  std::string frame;
  wire::AppendHeader(frame, wire::FrameType::kScore, 0, 8);
  const std::uint64_t id = 41;
  for (int i = 0; i < 8; ++i) frame.push_back(static_cast<char>(id >> (8 * i)));
  const auto* bytes = reinterpret_cast<const unsigned char*>(frame.data());
  const wire::FrameHeader header = wire::DecodeHeader(bytes);
  ASSERT_EQ(header.payload_len, 8u);
  ASSERT_EQ(wire::ValidateRequestHeader(header), "");
  wire::ScoreFrame decoded;
  std::vector<double> out;
  ASSERT_EQ(out.data(), nullptr);
  EXPECT_EQ(wire::DecodeScorePayload(header, bytes + wire::kHeaderBytes,
                                     decoded, out),
            "");
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(decoded.id, id);
  EXPECT_EQ(decoded.deadline_ms, -1.0);
}

TEST(WireFuzzTest, NonFiniteAndMisalignedBinaryPayloadsAreRefused) {
  // NaN feature: same taxonomy line as the text protocol.
  const double bad[] = {1.0, std::nan("")};
  std::string frame;
  wire::AppendScoreRequest(frame, 5, bad, 2);
  const auto* bytes = reinterpret_cast<const unsigned char*>(frame.data());
  wire::FrameHeader header = wire::DecodeHeader(bytes);
  wire::ScoreFrame decoded;
  std::vector<double> out;
  EXPECT_EQ(wire::DecodeScorePayload(header, bytes + wire::kHeaderBytes,
                                     decoded, out),
            "non-finite value at column 2");
  // A payload that is not a whole number of values.
  frame.clear();
  wire::AppendHeader(frame, wire::FrameType::kScore, 0, 8 + 12);
  frame.append(20, '\0');
  const auto* misaligned = reinterpret_cast<const unsigned char*>(frame.data());
  header = wire::DecodeHeader(misaligned);
  ASSERT_EQ(wire::ValidateRequestHeader(header), "");
  EXPECT_EQ(wire::DecodeScorePayload(header, misaligned + wire::kHeaderBytes,
                                     decoded, out),
            "feature payload is not a whole number of 64-bit values");
  // Negative deadline.
  frame.clear();
  const double row[] = {1.0};
  wire::AppendScoreRequest(frame, 5, row, 1, false, 0.0);
  frame[2] |= wire::kFlagDeadline;
  // Overwrite the deadline field (bytes 8..16 of the payload) with -1.
  const double negative = -1.0;
  std::memcpy(frame.data() + wire::kHeaderBytes + 8, &negative, 8);
  const auto* nd = reinterpret_cast<const unsigned char*>(frame.data());
  header = wire::DecodeHeader(nd);
  ASSERT_EQ(wire::ValidateRequestHeader(header), "");
  EXPECT_EQ(wire::DecodeScorePayload(header, nd + wire::kHeaderBytes, decoded,
                                     out),
            "\"deadline_ms\" must be a non-negative number");
}

TEST(WireFuzzTest, ResponsesRoundTripThroughDecodeResponse) {
  std::string out;
  wire::AppendScoreResponse(out, 9, 0.123456789, /*degraded=*/true);
  wire::AppendErrorResponse(out, 3, "expected 2 features, got 3");
  wire::AppendTextResponse(out, "OK reloaded version 2");
  const auto* p = reinterpret_cast<const unsigned char*>(out.data());
  std::size_t at = 0;
  wire::DecodedResponse r;
  wire::FrameHeader h = wire::DecodeHeader(p + at);
  at += wire::kHeaderBytes;
  ASSERT_EQ(wire::DecodeResponse(h, p + at, r), "");
  EXPECT_EQ(r.type, wire::FrameType::kScoreOk);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.id, 9u);
  EXPECT_EQ(r.proba, 0.123456789);
  at += h.payload_len;
  h = wire::DecodeHeader(p + at);
  at += wire::kHeaderBytes;
  ASSERT_EQ(wire::DecodeResponse(h, p + at, r), "");
  EXPECT_EQ(r.type, wire::FrameType::kError);
  EXPECT_EQ(r.id, 3u);
  EXPECT_EQ(r.text, "expected 2 features, got 3");
  at += h.payload_len;
  h = wire::DecodeHeader(p + at);
  at += wire::kHeaderBytes;
  ASSERT_EQ(wire::DecodeResponse(h, p + at, r), "");
  EXPECT_EQ(r.type, wire::FrameType::kText);
  EXPECT_EQ(r.text, "OK reloaded version 2");
  EXPECT_EQ(at + h.payload_len, out.size());
}

}  // namespace
}  // namespace spe
