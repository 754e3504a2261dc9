// HNP1 wire protocol (DESIGN.md §11): the length-prefixed binary query
// protocol habf_server speaks, modeled on the iproto framing loop and
// inheriting the HBF1 container's validation discipline (DESIGN.md §10) —
// every length is checked against the bytes actually present BEFORE any
// allocation, every frame body is CRC32-guarded, and a framing violation is
// a connection-fatal protocol error, never a crash or an over-read
// (tests/protocol_fuzz_test.cc drives the hostile cases under ASan/UBSan).
//
// Connection lifetime:
//
//   handshake:  client sends  u32 magic "HNP1" | u32 version (= 1)
//               server echoes u32 magic "HNP1" | u32 version    on success,
//               closes the connection on any mismatch (the stream cannot be
//               trusted to frame anything after a bad hello).
//   frames:     both directions, back to back, pipelining allowed:
//
//     u32 len    — byte length of the body that follows the crc field
//                  (request_id + op + payload); kMinFrameBodyBytes <= len
//                  <= max_frame_bytes (default kMaxFrameBytes = 2^20)
//     u32 crc    — CRC32 (hashing/crc32.h) over exactly those `len` bytes
//     body:  u64 request_id | u8 op | payload
//
// Ops and payloads (all integers little-endian):
//
//   kOpQuery (1), client->server:
//     u32 key_count | key_count x (u32 key_len | key bytes)
//   kOpQueryResponse (2), server->client:
//     u8 status | u32 key_count | ceil(key_count / 8) bitmap bytes
//     (bit i, LSB-first within byte i/8: key i may be in the set)
//   kOpError (3), server->client:
//     u8 code | u32 message_len | message bytes
//   kOpInsert (4) / kOpRemove (5), client->server: key-batch payload as in
//     kOpQuery; applied in order against a mutable (dynamic) backend.
//   kOpMutateResponse (6), server->client:
//     u8 status | u64 applied_count
//   kOpStats (7), client->server: empty payload (anything else is a payload
//     error). Acts as an ordering barrier like a mutation.
//   kOpStatsResponse (8), server->client:
//     u32 entry_count | entry_count x (u16 name_len | name bytes | u64 value)
//     Self-describing name/value counters so new counters never need a
//     protocol version bump; clients ignore names they don't know.
//
// Error attribution: a *framing* error (bad length bound, CRC mismatch)
// cannot be pinned on a request, so the server answers request_id 0 with
// kOpError and closes the connection — the stream has lost frame sync. A
// *payload* error inside a well-framed request (unknown op, malformed key
// batch) answers that frame's request_id with kOpError and the connection
// stays usable: the frame boundary was sound, so the next frame parses.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/filter_interface.h"

namespace habf {
namespace net {

/// Handshake magic "HNP1" (HABF Network Protocol v1), little-endian.
inline constexpr uint32_t kProtocolMagic = 0x31504E48;  // "HNP1"
inline constexpr uint32_t kProtocolVersion = 1;
inline constexpr size_t kHandshakeBytes = 8;

/// Frame header: u32 len | u32 crc.
inline constexpr size_t kFrameHeaderBytes = 8;
/// Minimum body: u64 request_id + u8 op (an empty payload is legal framing;
/// whether the op accepts it is a payload-level question).
inline constexpr size_t kMinFrameBodyBytes = 9;
/// Default ceiling on the frame body. A hostile or corrupt length above the
/// cap is rejected from the 8 header bytes alone — before the decoder
/// buffers (or allocates) anything for the body.
inline constexpr size_t kMaxFrameBytes = size_t{1} << 20;

/// Frame ops.
inline constexpr uint8_t kOpQuery = 1;
inline constexpr uint8_t kOpQueryResponse = 2;
inline constexpr uint8_t kOpError = 3;
inline constexpr uint8_t kOpInsert = 4;
inline constexpr uint8_t kOpRemove = 5;
inline constexpr uint8_t kOpMutateResponse = 6;
inline constexpr uint8_t kOpStats = 7;
inline constexpr uint8_t kOpStatsResponse = 8;

/// kOpError codes.
inline constexpr uint8_t kErrBadFrame = 1;     // framing/CRC; connection closes
inline constexpr uint8_t kErrBadOp = 2;        // unknown op
inline constexpr uint8_t kErrBadPayload = 3;   // malformed op payload
inline constexpr uint8_t kErrUnsupported = 4;  // mutation refused: static
                                               // backend, or the WAL failed
inline constexpr uint8_t kErrDraining = 5;     // server shutting down

/// kOpQueryResponse / kOpMutateResponse status byte.
inline constexpr uint8_t kStatusOk = 0;

/// One decoded frame. `payload` views the decoder's internal buffer: valid
/// until the next Feed() (Next() never moves the buffer), which is exactly
/// the coalescing window — a connection parses every buffered frame, answers
/// the whole batch, and only then reads (Feeds) again.
struct Frame {
  uint64_t request_id = 0;
  uint8_t op = 0;
  std::string_view payload;
};

/// Incremental frame decoder over a byte stream. Feed() appends raw socket
/// bytes; Next() yields complete frames until the buffer runs dry
/// (kNeedMore) or the stream violates the framing (kError, terminal: the
/// connection must close, matching the error-attribution rule above).
///
/// Validation order mirrors SectionReader: the length bounds are checked
/// from the 8 header bytes alone, so a frame claiming 2^31 bytes is
/// rejected immediately — the decoder never waits for, buffers, or
/// allocates the claimed length. The CRC is checked once the body is
/// resident, before the frame is handed to any payload parser.
class FrameDecoder {
 public:
  enum class Status { kFrame, kNeedMore, kError };

  explicit FrameDecoder(size_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends stream bytes. Compacts the consumed prefix first, so any Frame
  /// views from earlier Next() calls are invalidated by Feed — never by
  /// Next itself.
  void Feed(std::string_view bytes);

  /// Decodes the next complete frame. On kError, `*error` names the
  /// violation and the decoder is permanently failed (every later call
  /// returns kError): frame sync is unrecoverable within a connection.
  Status Next(Frame* frame, std::string* error);

  /// Bytes buffered and not yet consumed by Next().
  size_t buffered() const { return buffer_.size() - pos_; }

  bool failed() const { return failed_; }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// --- encoding ---------------------------------------------------------------

/// The 8 handshake bytes either side sends.
std::string EncodeHandshake();

/// Validates an 8-byte hello. False with *error naming magic vs version.
bool ParseHandshake(std::string_view bytes, std::string* error);

/// Appends one complete frame (header + CRC'd body) to `*out`, in place.
/// `payload` must not view `*out`: the append may reallocate it.
void AppendFrame(std::string* out, uint64_t request_id, uint8_t op,
                 std::string_view payload);

/// Appends the key-batch payload of kOpQuery / kOpInsert / kOpRemove.
void AppendKeyBatchPayload(std::string* out, KeySpan keys);

/// Appends the kOpQueryResponse payload for `count` answers.
void AppendQueryResponsePayload(std::string* out, const uint8_t* answers,
                                size_t count);

/// Appends the kOpError payload.
void AppendErrorPayload(std::string* out, uint8_t code,
                        std::string_view message);

/// Appends the kOpMutateResponse payload.
void AppendMutateResponsePayload(std::string* out, uint8_t status,
                                 uint64_t applied);

/// Appends the kOpStatsResponse payload: named u64 counters, in order.
void AppendStatsResponsePayload(
    std::string* out,
    const std::vector<std::pair<std::string_view, uint64_t>>& entries);

// --- payload parsing --------------------------------------------------------
//
// Every parser is total over arbitrary bytes: it either fills its output
// from a well-formed payload (consuming it exactly — trailing bytes are an
// error) or returns false with a diagnostic, allocating nothing beyond what
// the validated counts justify.

/// Parses a key-batch payload into views over `payload` (zero copies; the
/// views live as long as the payload bytes). Duplicate and empty keys are
/// legal — the batch is answered positionally.
bool ParseKeyBatchPayload(std::string_view payload,
                          std::vector<std::string_view>* keys,
                          std::string* error);

/// A parsed kOpQueryResponse. `bitmap` views the payload bytes.
struct QueryResponseView {
  uint8_t status = 0;
  size_t key_count = 0;
  std::string_view bitmap;

  /// Answer bit for key `i` (i < key_count).
  bool Bit(size_t i) const {
    return (static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1;
  }
};

bool ParseQueryResponsePayload(std::string_view payload,
                               QueryResponseView* out, std::string* error);

/// A parsed kOpError. `message` views the payload bytes.
struct ErrorView {
  uint8_t code = 0;
  std::string_view message;
};

bool ParseErrorPayload(std::string_view payload, ErrorView* out,
                       std::string* error);

/// A parsed kOpMutateResponse.
struct MutateResponseView {
  uint8_t status = 0;
  uint64_t applied = 0;
};

bool ParseMutateResponsePayload(std::string_view payload,
                                MutateResponseView* out, std::string* error);

/// One parsed kOpStatsResponse entry. `name` views the payload bytes.
struct StatsEntryView {
  std::string_view name;
  uint64_t value = 0;
};

bool ParseStatsResponsePayload(std::string_view payload,
                               std::vector<StatsEntryView>* entries,
                               std::string* error);

}  // namespace net
}  // namespace habf
