// Hostile-input blitz for the HNP1 wire protocol (net/protocol.h) and the
// serving front end (net/server.h), per the error-attribution contract in
// protocol.h: framing violations (length bounds, CRC) are connection-fatal
// and answered to request_id 0; payload violations inside a sound frame are
// answered to that frame's id and the connection survives. The decoder half
// runs over raw bytes (truncation at every byte, single-bit flips at every
// position, random split boundaries); the wire half replays the same
// hostility through a live loopback server and asserts the advertised
// kOpError codes — all of it clean under ASan/UBSan, which is the point.

#include "net/protocol.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter_store.h"
#include "core/habf.h"
#include "core/sharded_filter.h"
#include "net/client.h"
#include "net/server.h"
#include "util/rng.h"

namespace habf {
namespace net {
namespace {

std::string EncodeQueryFrame(uint64_t request_id,
                             const std::vector<std::string>& keys) {
  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::string payload;
  AppendKeyBatchPayload(&payload, KeySpan(views.data(), views.size()));
  std::string out;
  AppendFrame(&out, request_id, kOpQuery, payload);
  return out;
}

/// Drains every complete frame currently decodable, copying payloads (the
/// views die on the next Feed).
FrameDecoder::Status DrainFrames(FrameDecoder* decoder,
                                 std::vector<OwnedFrame>* frames,
                                 std::string* error) {
  for (;;) {
    Frame frame;
    const FrameDecoder::Status status = decoder->Next(&frame, error);
    if (status != FrameDecoder::Status::kFrame) return status;
    frames->push_back(
        {frame.request_id, frame.op, std::string(frame.payload)});
  }
}

// --- encoder: golden wire bytes ---------------------------------------------

std::string Bytes(std::initializer_list<uint8_t> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

// Pinned wire bytes: a change to the framing or the CRC that alters a
// single byte breaks every peer built before it, and fails here by name.
TEST(FrameEncoding, QueryFrameBytesAreGolden) {
  const std::string expected = Bytes({
      0x27, 0x00, 0x00, 0x00,                          // body length 39
      0xBF, 0xB8, 0xAC, 0x59,                          // CRC-32 of the body
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // request id
      0x01,                                            // kOpQuery
      0x03, 0x00, 0x00, 0x00,                          // 3 keys
      0x05, 0x00, 0x00, 0x00, 0x61, 0x6C, 0x70, 0x68, 0x61,  // "alpha"
      0x04, 0x00, 0x00, 0x00, 0x62, 0x65, 0x74, 0x61,        // "beta"
      0x05, 0x00, 0x00, 0x00, 0x67, 0x61, 0x6D, 0x6D, 0x61,  // "gamma"
  });
  EXPECT_EQ(EncodeQueryFrame(0x0102030405060708ull, {"alpha", "beta", "gamma"}),
            expected);
}

TEST(FrameEncoding, StatsFrameBytesAreGoldenAndAppendKeepsThePrefix) {
  const std::string expected = Bytes({
      0x09, 0x00, 0x00, 0x00,                          // body length 9
      0x30, 0x89, 0xB2, 0x6F,                          // CRC-32 of the body
      0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request id 42
      0x07,                                            // kOpStats
  });
  std::string out = "prefix";
  AppendFrame(&out, 42, kOpStats, std::string_view());
  EXPECT_EQ(out, "prefix" + expected);
}

// --- decoder: truncation, corruption, splits --------------------------------

TEST(FrameDecoderFuzz, TruncationAtEveryByteNeverErrsNorFabricates) {
  std::string stream;
  stream += EncodeQueryFrame(1, {"alpha", "beta"});
  stream += EncodeQueryFrame(2, {});
  stream += EncodeQueryFrame(3, {"a-rather-longer-key-to-cross-buckets"});
  const std::vector<size_t> frame_ends = {
      EncodeQueryFrame(1, {"alpha", "beta"}).size(),
      EncodeQueryFrame(1, {"alpha", "beta"}).size() +
          EncodeQueryFrame(2, {}).size(),
      stream.size()};

  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(std::string_view(stream).substr(0, cut));
    std::vector<OwnedFrame> frames;
    std::string error;
    const FrameDecoder::Status status = DrainFrames(&decoder, &frames, &error);
    // A truncated valid stream is never a framing error — only incomplete.
    ASSERT_EQ(status, FrameDecoder::Status::kNeedMore)
        << "cut at byte " << cut << ": " << error;
    size_t expect_frames = 0;
    for (const size_t end : frame_ends) expect_frames += (cut >= end) ? 1 : 0;
    ASSERT_EQ(frames.size(), expect_frames) << "cut at byte " << cut;

    // Feeding the remainder always completes the stream identically.
    decoder.Feed(std::string_view(stream).substr(cut));
    ASSERT_EQ(DrainFrames(&decoder, &frames, &error),
              FrameDecoder::Status::kNeedMore)
        << error;
    ASSERT_EQ(frames.size(), 3u) << "cut at byte " << cut;
    EXPECT_EQ(frames[0].request_id, 1u);
    EXPECT_EQ(frames[1].request_id, 2u);
    EXPECT_EQ(frames[2].request_id, 3u);
  }
}

TEST(FrameDecoderFuzz, SingleBitFlipAtEveryPositionNeverYieldsAFrame) {
  const std::string frame = EncodeQueryFrame(7, {"key-a", "key-b"});
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string corrupt = frame;
    corrupt[bit / 8] = static_cast<char>(
        static_cast<uint8_t>(corrupt[bit / 8]) ^ (1u << (bit % 8)));
    FrameDecoder decoder;
    decoder.Feed(corrupt);
    Frame out;
    std::string error;
    const FrameDecoder::Status status = decoder.Next(&out, &error);
    // Any flip lands in the length (bound violation or short/long read →
    // CRC mismatch or kNeedMore), the CRC field, or the CRC'd body: the
    // decoder must never hand a frame out of this stream.
    EXPECT_NE(status, FrameDecoder::Status::kFrame) << "bit " << bit;
    if (status == FrameDecoder::Status::kError) {
      EXPECT_TRUE(decoder.failed());
      EXPECT_FALSE(error.empty());
      // Permanent failure: even pristine bytes are refused afterwards.
      decoder.Feed(frame);
      EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kError);
    }
  }
}

TEST(FrameDecoderFuzz, OversizedLengthRejectedFromHeaderAlone) {
  for (const uint32_t len :
       {static_cast<uint32_t>(kMaxFrameBytes) + 1, uint32_t{0x7fffffff},
        uint32_t{0xffffffff}}) {
    std::string header(8, '\0');
    std::memcpy(header.data(), &len, 4);  // crc field left zero
    FrameDecoder decoder;
    decoder.Feed(header);  // body never arrives — the bound check can't wait
    Frame out;
    std::string error;
    EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kError)
        << "len " << len;
    EXPECT_NE(error.find("length"), std::string::npos) << error;
  }
}

TEST(FrameDecoderFuzz, BelowMinimumLengthRejected) {
  for (uint32_t len = 0; len < kMinFrameBodyBytes; ++len) {
    std::string bytes(8 + len, '\0');
    std::memcpy(bytes.data(), &len, 4);
    FrameDecoder decoder;
    decoder.Feed(bytes);
    Frame out;
    std::string error;
    EXPECT_EQ(decoder.Next(&out, &error), FrameDecoder::Status::kError)
        << "len " << len;
  }
}

TEST(FrameDecoderFuzz, CustomCapIsEnforced) {
  const std::string frame = EncodeQueryFrame(1, {"0123456789abcdef"});
  FrameDecoder tight(/*max_frame_bytes=*/16);  // body is > 16 bytes
  tight.Feed(frame);
  Frame out;
  std::string error;
  EXPECT_EQ(tight.Next(&out, &error), FrameDecoder::Status::kError);
}

TEST(FrameDecoderFuzz, PipelinedStreamSplitAtRandomBoundaries) {
  std::vector<std::string> expect_payload;
  std::string stream;
  for (uint64_t id = 1; id <= 24; ++id) {
    std::vector<std::string> keys;
    for (uint64_t k = 0; k < id % 5; ++k) {
      keys.push_back("key-" + std::to_string(id) + "-" + std::to_string(k));
    }
    const std::string frame = EncodeQueryFrame(id, keys);
    expect_payload.push_back(frame.substr(kFrameHeaderBytes));
    stream += frame;
  }

  Xoshiro256 rng(20260808);
  for (int round = 0; round < 64; ++round) {
    FrameDecoder decoder;
    std::vector<OwnedFrame> frames;
    std::string error;
    size_t pos = 0;
    while (pos < stream.size()) {
      const size_t chunk =
          1 + static_cast<size_t>(rng.NextBounded(
                  std::min<uint64_t>(97, stream.size() - pos)));
      decoder.Feed(std::string_view(stream).substr(pos, chunk));
      pos += chunk;
      ASSERT_EQ(DrainFrames(&decoder, &frames, &error),
                FrameDecoder::Status::kNeedMore)
          << error;
    }
    ASSERT_EQ(frames.size(), 24u) << "round " << round;
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].request_id, i + 1);
      EXPECT_EQ(frames[i].op, kOpQuery);
      // Byte-identical body regardless of how the reads were split.
      std::string body(8, '\0');
      std::memcpy(body.data(), &frames[i].request_id, 8);
      body.push_back(static_cast<char>(frames[i].op));
      body += frames[i].payload;
      EXPECT_EQ(body, expect_payload[i]) << "frame " << i;
    }
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameDecoderFuzz, RandomGarbageNeverCrashes) {
  Xoshiro256 rng(424242);
  for (int round = 0; round < 256; ++round) {
    FrameDecoder decoder;
    std::string garbage(1 + rng.NextBounded(256), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next());
    size_t pos = 0;
    while (pos < garbage.size()) {
      const size_t chunk = 1 + static_cast<size_t>(rng.NextBounded(
                                   garbage.size() - pos));
      decoder.Feed(std::string_view(garbage).substr(pos, chunk));
      pos += chunk;
      Frame out;
      std::string error;
      FrameDecoder::Status status;
      while ((status = decoder.Next(&out, &error)) ==
             FrameDecoder::Status::kFrame) {
        // Astronomically unlikely (a random 32-bit CRC must match), but a
        // decoded frame from garbage is legal as long as it is in-bounds.
        EXPECT_LE(out.payload.size() + kMinFrameBodyBytes, kMaxFrameBytes);
      }
      if (status == FrameDecoder::Status::kError) break;
    }
  }
}

// --- payload parsers over hostile bytes -------------------------------------

TEST(PayloadFuzz, KeyBatchCountLieRejectedBeforeAllocation) {
  // Claims 2^32-1 keys with 4 bytes of payload: the parser must reject from
  // the arithmetic bound, never reserve for the claimed count.
  std::string payload(4, '\0');
  const uint32_t count = 0xffffffff;
  std::memcpy(payload.data(), &count, 4);
  std::vector<std::string_view> keys;
  std::string error;
  EXPECT_FALSE(ParseKeyBatchPayload(payload, &keys, &error));
  EXPECT_FALSE(error.empty());
}

TEST(PayloadFuzz, KeyBatchTruncationAtEveryByteRejected) {
  std::string payload;
  {
    const std::vector<std::string> keys = {"one", "", "three"};
    std::vector<std::string_view> views(keys.begin(), keys.end());
    AppendKeyBatchPayload(&payload, KeySpan(views.data(), views.size()));
  }
  std::vector<std::string_view> keys;
  std::string error;
  ASSERT_TRUE(ParseKeyBatchPayload(payload, &keys, &error)) << error;
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[1], "");

  for (size_t cut = 0; cut < payload.size(); ++cut) {
    keys.clear();
    EXPECT_FALSE(ParseKeyBatchPayload(
        std::string_view(payload).substr(0, cut), &keys, &error))
        << "cut " << cut;
  }
  // Trailing bytes are an error too: payloads must be consumed exactly.
  keys.clear();
  EXPECT_FALSE(ParseKeyBatchPayload(payload + "x", &keys, &error));
}

TEST(PayloadFuzz, ResponseParsersTotalOverTruncation) {
  std::string query_response;
  const uint8_t answers[5] = {1, 0, 1, 1, 0};
  AppendQueryResponsePayload(&query_response, answers, 5);
  std::string error_payload;
  AppendErrorPayload(&error_payload, kErrBadPayload, "boom");
  std::string mutate_payload;
  AppendMutateResponsePayload(&mutate_payload, kStatusOk, 17);

  std::string error;
  for (size_t cut = 0; cut < query_response.size(); ++cut) {
    QueryResponseView view;
    EXPECT_FALSE(ParseQueryResponsePayload(
        std::string_view(query_response).substr(0, cut), &view, &error));
  }
  for (size_t cut = 0; cut < error_payload.size(); ++cut) {
    ErrorView view;
    EXPECT_FALSE(ParseErrorPayload(
        std::string_view(error_payload).substr(0, cut), &view, &error));
  }
  for (size_t cut = 0; cut < mutate_payload.size(); ++cut) {
    MutateResponseView view;
    EXPECT_FALSE(ParseMutateResponsePayload(
        std::string_view(mutate_payload).substr(0, cut), &view, &error));
  }

  // And the untruncated forms round-trip.
  QueryResponseView qr;
  ASSERT_TRUE(ParseQueryResponsePayload(query_response, &qr, &error)) << error;
  EXPECT_EQ(qr.key_count, 5u);
  EXPECT_TRUE(qr.Bit(0));
  EXPECT_FALSE(qr.Bit(4));
  ErrorView ev;
  ASSERT_TRUE(ParseErrorPayload(error_payload, &ev, &error)) << error;
  EXPECT_EQ(ev.code, kErrBadPayload);
  EXPECT_EQ(ev.message, "boom");
  MutateResponseView mv;
  ASSERT_TRUE(ParseMutateResponsePayload(mutate_payload, &mv, &error));
  EXPECT_EQ(mv.applied, 17u);
}

// --- live server under hostile clients --------------------------------------

/// RAII raw socket that skips BlockingClient entirely — for hostility that
/// has to start before (or instead of) a valid handshake.
class RawSocket {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Half-closes the write side: the server sees EOF after our bytes.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until EOF; returns everything the server sent.
  std::string ReadToEof() {
    std::string all;
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return all;
      all.append(buffer, static_cast<size_t>(n));
    }
  }

  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  int fd_ = -1;
};

class ServerFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 400; ++i) {
      members_.push_back("fuzz-member-" + std::to_string(i));
    }
    HabfOptions options;
    options.total_bits = 1 << 15;
    ShardedBuildOptions sharding;
    sharding.num_shards = 2;
    store_.Publish(BuildShardedHabf(members_, {}, options, sharding));
    backend_ =
        std::make_unique<StoreBackend<ShardedFilter<Habf>>>(&store_);
    server_ = std::make_unique<Server>(backend_.get(), ServerOptions{});
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  /// The server must still accept and answer after whatever the test did.
  void ExpectServerStillServes() {
    BlockingClient probe;
    std::string error;
    ASSERT_TRUE(probe.Connect("127.0.0.1", server_->port(), &error)) << error;
    const std::vector<std::string_view> keys = {members_[0]};
    std::vector<uint8_t> answers;
    ASSERT_TRUE(probe.Query(KeySpan(keys.data(), keys.size()), &answers,
                            &error))
        << error;
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers[0], 1);  // one-sided: members always hit
  }

  std::vector<std::string> members_;
  FilterStore<ShardedFilter<Habf>> store_;
  std::unique_ptr<StoreBackend<ShardedFilter<Habf>>> backend_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerFuzzTest, BadHandshakeMagicClosesSilently) {
  RawSocket raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  std::string hello = EncodeHandshake();
  hello[0] = 'X';  // wrong magic (can't use a literal: the hello has NULs)
  ASSERT_TRUE(raw.Send(hello));
  // A bad hello gets no bytes back — the stream can't be trusted to frame
  // an error either.
  EXPECT_EQ(raw.ReadToEof(), "");
  ExpectServerStillServes();
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(ServerFuzzTest, BadHandshakeVersionClosesSilently) {
  RawSocket raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  std::string hello = EncodeHandshake();
  hello[4] = 9;  // version 9
  ASSERT_TRUE(raw.Send(hello));
  EXPECT_EQ(raw.ReadToEof(), "");
  ExpectServerStillServes();
}

TEST_F(ServerFuzzTest, OversizedLengthAnswersRequestZeroAndCloses) {
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  std::string header(8, '\0');
  const uint32_t len = (1u << 20) + 1;
  std::memcpy(header.data(), &len, 4);
  ASSERT_TRUE(client.RawSend(header, &error)) << error;

  OwnedFrame frame;
  ASSERT_TRUE(client.ReadFrame(&frame, &error)) << error;
  EXPECT_EQ(frame.op, kOpError);
  EXPECT_EQ(frame.request_id, 0u);  // framing errors can't name a request
  ErrorView view;
  ASSERT_TRUE(ParseErrorPayload(frame.payload, &view, &error)) << error;
  EXPECT_EQ(view.code, kErrBadFrame);
  // ...and the connection is gone.
  EXPECT_FALSE(client.ReadFrame(&frame, &error));
  ExpectServerStillServes();
}

TEST_F(ServerFuzzTest, CrcFlipAnswersRequestZeroAndCloses) {
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  std::string frame_bytes = EncodeQueryFrame(5, {"fuzz-member-0"});
  frame_bytes.back() = static_cast<char>(
      static_cast<uint8_t>(frame_bytes.back()) ^ 0x01);  // body bit flip
  ASSERT_TRUE(client.RawSend(frame_bytes, &error)) << error;

  OwnedFrame frame;
  ASSERT_TRUE(client.ReadFrame(&frame, &error)) << error;
  EXPECT_EQ(frame.op, kOpError);
  EXPECT_EQ(frame.request_id, 0u);
  ErrorView view;
  ASSERT_TRUE(ParseErrorPayload(frame.payload, &view, &error)) << error;
  EXPECT_EQ(view.code, kErrBadFrame);
  EXPECT_FALSE(client.ReadFrame(&frame, &error));
  ExpectServerStillServes();
}

TEST_F(ServerFuzzTest, MalformedPayloadKeepsConnectionUsable) {
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;

  // A perfectly framed kOpQuery whose payload lies about its key count.
  std::string payload(4, '\0');
  const uint32_t count = 1000;
  std::memcpy(payload.data(), &count, 4);
  ASSERT_TRUE(client.SendFrame(11, kOpQuery, payload, &error)) << error;

  OwnedFrame frame;
  ASSERT_TRUE(client.ReadFrame(&frame, &error)) << error;
  EXPECT_EQ(frame.op, kOpError);
  EXPECT_EQ(frame.request_id, 11u);  // well-framed: the request is nameable
  ErrorView view;
  ASSERT_TRUE(ParseErrorPayload(frame.payload, &view, &error)) << error;
  EXPECT_EQ(view.code, kErrBadPayload);

  // Frame sync survived: the very same connection answers real queries.
  const std::vector<std::string_view> keys = {members_[3]};
  std::vector<uint8_t> answers;
  ASSERT_TRUE(client.Query(KeySpan(keys.data(), keys.size()), &answers,
                           &error))
      << error;
  EXPECT_EQ(answers[0], 1);
}

TEST_F(ServerFuzzTest, UnknownOpAnswersBadOpAndSurvives) {
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  ASSERT_TRUE(client.SendFrame(21, /*op=*/99, "whatever", &error)) << error;

  OwnedFrame frame;
  ASSERT_TRUE(client.ReadFrame(&frame, &error)) << error;
  EXPECT_EQ(frame.request_id, 21u);
  EXPECT_EQ(frame.op, kOpError);
  ErrorView view;
  ASSERT_TRUE(ParseErrorPayload(frame.payload, &view, &error)) << error;
  EXPECT_EQ(view.code, kErrBadOp);

  const std::vector<std::string_view> keys = {members_[5]};
  std::vector<uint8_t> answers;
  ASSERT_TRUE(client.Query(KeySpan(keys.data(), keys.size()), &answers,
                           &error))
      << error;
  EXPECT_EQ(answers[0], 1);
}

TEST_F(ServerFuzzTest, MutationOnStaticBackendIsUnsupported) {
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  const std::vector<std::string_view> keys = {"new-key"};
  ASSERT_TRUE(client.SendMutation(31, /*insert=*/true,
                                  KeySpan(keys.data(), keys.size()), &error))
      << error;

  OwnedFrame frame;
  ASSERT_TRUE(client.ReadFrame(&frame, &error)) << error;
  EXPECT_EQ(frame.request_id, 31u);
  EXPECT_EQ(frame.op, kOpError);
  ErrorView view;
  ASSERT_TRUE(ParseErrorPayload(frame.payload, &view, &error)) << error;
  EXPECT_EQ(view.code, kErrUnsupported);

  // Refusing a mutation is a payload-level answer: queries still work.
  std::vector<uint8_t> answers;
  const std::vector<std::string_view> probe = {members_[7]};
  ASSERT_TRUE(client.Query(KeySpan(probe.data(), probe.size()), &answers,
                           &error))
      << error;
  EXPECT_EQ(answers[0], 1);
}

TEST_F(ServerFuzzTest, ZeroKeyAndDuplicateKeyBatchesAreLegal) {
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;

  std::vector<uint8_t> answers;
  ASSERT_TRUE(client.Query(KeySpan(nullptr, 0), &answers, &error)) << error;
  EXPECT_TRUE(answers.empty());

  // Duplicates (and empties) are answered positionally and consistently.
  const std::vector<std::string_view> dupes = {members_[0], members_[0], "",
                                               members_[0], ""};
  ASSERT_TRUE(client.Query(KeySpan(dupes.data(), dupes.size()), &answers,
                           &error))
      << error;
  ASSERT_EQ(answers.size(), 5u);
  EXPECT_EQ(answers[0], 1);
  EXPECT_EQ(answers[1], answers[0]);
  EXPECT_EQ(answers[3], answers[0]);
  EXPECT_EQ(answers[2], answers[4]);
}

TEST_F(ServerFuzzTest, TruncatedFrameThenHangupIsHarmless) {
  {
    RawSocket raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    std::string bytes = EncodeHandshake();
    bytes += EncodeQueryFrame(1, {"abc"}).substr(0, 13);  // mid-body cut
    ASSERT_TRUE(raw.Send(bytes));
  }  // abrupt close with a partial frame buffered server-side
  ExpectServerStillServes();
}

TEST_F(ServerFuzzTest, PipelinedFramesSplitAtArbitraryWriteBoundaries) {
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;

  constexpr size_t kFrames = 12;
  std::string stream;
  for (uint64_t id = 1; id <= kFrames; ++id) {
    stream += EncodeQueryFrame(
        id, {members_[id % members_.size()], "outsider-" + std::to_string(id)});
  }
  // One byte per send(): maximal fragmentation across coalescing cycles.
  Xoshiro256 rng(99);
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t chunk = 1 + static_cast<size_t>(rng.NextBounded(3));
    const size_t take = std::min(chunk, stream.size() - pos);
    ASSERT_TRUE(client.RawSend(std::string_view(stream).substr(pos, take),
                               &error))
        << error;
    pos += take;
  }

  for (uint64_t id = 1; id <= kFrames; ++id) {
    OwnedFrame frame;
    ASSERT_TRUE(client.ReadFrame(&frame, &error)) << error;
    ASSERT_EQ(frame.op, kOpQueryResponse) << "response " << id;
    EXPECT_EQ(frame.request_id, id);  // exact per-connection order
    QueryResponseView view;
    ASSERT_TRUE(ParseQueryResponsePayload(frame.payload, &view, &error))
        << error;
    ASSERT_EQ(view.key_count, 2u);
    EXPECT_TRUE(view.Bit(0));  // the member key always hits
  }
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(ServerFuzzTest, RandomGarbageConnectionsNeverWedgeTheServer) {
  Xoshiro256 rng(777);
  for (int round = 0; round < 16; ++round) {
    RawSocket raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    std::string bytes;
    if (round % 2 == 0) bytes = EncodeHandshake();  // garbage after hello too
    const size_t garbage_len = 1 + rng.NextBounded(512);
    for (size_t i = 0; i < garbage_len; ++i) {
      bytes.push_back(static_cast<char>(rng.Next()));
    }
    ASSERT_TRUE(raw.Send(bytes));
    // Half-close so a decoder legitimately waiting for more bytes (a random
    // length that landed in bounds) sees EOF instead of wedging the read.
    raw.ShutdownWrite();
    raw.ReadToEof();  // whatever the server says, it must eventually close
  }
  ExpectServerStillServes();
}

}  // namespace
}  // namespace net
}  // namespace habf
