// Wire framing for the refinement service: length-prefixed binary frames
// over a byte stream. Every frame is a fixed 20-byte header followed by
// `payload_len` payload bytes:
//
//   offset  size  field
//   0       4     magic 0x31465258 ("XRF1", little-endian u32)
//   4       1     version (currently 1)
//   5       1     frame type (FrameType)
//   6       2     flags (kFrameFlag*)
//   8       8     request id (echoed verbatim in the response)
//   16      4     payload length, <= kMaxPayloadLen
//
// The payload encodings reuse the storage serde helpers (little-endian
// fixed ints, LEB128 varints, length-prefixed strings). Every decoder
// treats its input as hostile: all reads are bounds-checked, claimed
// counts are clamped before any reserve (the posting decoder's reserve-bomb
// rule), and a frame that decodes OK re-encodes to the same bytes — the
// fixpoint the fuzz_frame harness checks.
#ifndef XREFINE_SERVER_FRAME_H_
#define XREFINE_SERVER_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xrefine::server {

inline constexpr uint32_t kFrameMagic = 0x31465258;  // "XRF1"
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderSize = 20;
/// Hard cap on one frame's payload. A hostile length field past this is a
/// protocol error, never an allocation.
inline constexpr uint32_t kMaxPayloadLen = 1u << 20;

enum class FrameType : uint8_t {
  kRefineRequest = 1,   // client -> server: query text + per-call options
  kRefineResponse = 2,  // server -> client: ranked refined queries
  kError = 3,           // server -> client: typed refusal / failure
  kRetryAfter = 4,      // server -> client: shed under load, retry later
  kPing = 5,            // client -> server: liveness probe
  kPong = 6,            // server -> client: liveness answer
  kStatsRequest = 7,    // client -> server: observability pull
  kStatsResponse = 8,   // server -> client: metrics registry JSON
};

/// True for the types a decoder should accept at all.
bool ValidFrameType(uint8_t type);

/// Response was served by the degraded engine (admission gate downgrade).
inline constexpr uint16_t kFrameFlagDegraded = 1u << 0;

struct FrameHeader {
  uint8_t version = kFrameVersion;
  FrameType type = FrameType::kPing;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

/// Appends the 20 header bytes to `dst`.
void EncodeFrameHeader(const FrameHeader& header, std::string* dst);

/// Decodes exactly kFrameHeaderSize bytes. Non-OK on short input, bad
/// magic, unsupported version, unknown type, or a payload length above
/// kMaxPayloadLen.
[[nodiscard]] Status DecodeFrameHeader(std::string_view bytes,
                                       FrameHeader* out);

// --- kRefineRequest ---------------------------------------------------------

struct RefineRequest {
  /// Client-imposed deadline for the whole query; 0 = none.
  uint32_t deadline_ms = 0;
  /// Raw query text; the server tokenises.
  std::string query;
};

std::string EncodeRefineRequestFrame(uint64_t request_id,
                                     const RefineRequest& request);
[[nodiscard]] Status DecodeRefineRequest(std::string_view payload,
                                         RefineRequest* out);

// --- kRefineResponse --------------------------------------------------------

struct RefineResponse {
  /// Mirrors kFrameFlagDegraded; filled from the header on decode.
  bool degraded = false;
  bool needs_refinement = true;
  uint64_t prepare_us = 0;
  uint64_t scan_us = 0;
  uint64_t rank_us = 0;
  struct Entry {
    std::string query;
    double score = 0;
    uint32_t result_count = 0;
  };
  std::vector<Entry> refined;
};

std::string EncodeRefineResponseFrame(uint64_t request_id,
                                      const RefineResponse& response);
[[nodiscard]] Status DecodeRefineResponse(std::string_view payload,
                                          RefineResponse* out);

// --- kError -----------------------------------------------------------------

/// The error payload is the refusal's status: one code byte + message.
std::string EncodeErrorFrame(uint64_t request_id, const Status& error);
[[nodiscard]] Status DecodeError(std::string_view payload, Status* out);

// --- kRetryAfter ------------------------------------------------------------

struct RetryAfter {
  uint32_t retry_after_ms = 0;
  /// Queue depth at shed time, for client-side telemetry.
  uint32_t queue_depth = 0;
};

std::string EncodeRetryAfterFrame(uint64_t request_id, const RetryAfter& ra);
[[nodiscard]] Status DecodeRetryAfter(std::string_view payload,
                                      RetryAfter* out);

// --- payload-free frames & stats --------------------------------------------

/// kPing / kPong / kStatsRequest.
std::string EncodeEmptyFrame(FrameType type, uint64_t request_id);

/// kStatsResponse: the payload is the metrics registry JSON verbatim.
std::string EncodeStatsResponseFrame(uint64_t request_id,
                                     std::string_view json);

}  // namespace xrefine::server

#endif  // XREFINE_SERVER_FRAME_H_
