#include "net/protocol.h"

#include <cstdio>
#include <cstring>

#include "hashing/crc32.h"
#include "util/serde.h"

namespace habf {
namespace net {
namespace {

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

void FrameDecoder::Feed(std::string_view bytes) {
  if (failed_) return;
  // Compact the consumed prefix before appending: this is the one point
  // where previously returned Frame views die, per the header contract.
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameDecoder::Status FrameDecoder::Next(Frame* frame, std::string* error) {
  if (failed_) {
    if (error != nullptr) *error = "decoder already failed";
    return Status::kError;
  }
  if (buffered() < kFrameHeaderBytes) return Status::kNeedMore;
  const char* header = buffer_.data() + pos_;
  const uint32_t len = LoadU32(header);
  // Length bounds from the header alone — a hostile length never causes
  // the decoder to wait for, buffer, or allocate the claimed bytes.
  if (len < kMinFrameBodyBytes) {
    failed_ = true;
    if (error != nullptr) {
      *error = "frame length " + std::to_string(len) + " below the " +
               std::to_string(kMinFrameBodyBytes) + "-byte body minimum";
    }
    return Status::kError;
  }
  if (len > max_frame_bytes_) {
    failed_ = true;
    if (error != nullptr) {
      *error = "frame length " + std::to_string(len) + " exceeds the " +
               std::to_string(max_frame_bytes_) + "-byte frame cap";
    }
    return Status::kError;
  }
  if (buffered() < kFrameHeaderBytes + len) return Status::kNeedMore;
  const uint32_t stored_crc = LoadU32(header + 4);
  const char* body = header + kFrameHeaderBytes;
  const uint32_t computed_crc = Crc32(body, len);
  if (stored_crc != computed_crc) {
    failed_ = true;
    if (error != nullptr) {
      char text[96];
      std::snprintf(text, sizeof(text),
                    "frame CRC mismatch: stored 0x%08X computed 0x%08X",
                    stored_crc, computed_crc);
      *error = text;
    }
    return Status::kError;
  }
  uint64_t request_id;
  std::memcpy(&request_id, body, 8);
  frame->request_id = request_id;
  frame->op = static_cast<uint8_t>(body[8]);
  frame->payload = std::string_view(body + kMinFrameBodyBytes,
                                    len - kMinFrameBodyBytes);
  pos_ += kFrameHeaderBytes + len;
  return Status::kFrame;
}

std::string EncodeHandshake() {
  std::string out;
  BinaryWriter writer(&out);
  writer.WriteU32(kProtocolMagic);
  writer.WriteU32(kProtocolVersion);
  return out;
}

bool ParseHandshake(std::string_view bytes, std::string* error) {
  if (bytes.size() != kHandshakeBytes) {
    if (error != nullptr) {
      *error = "handshake must be exactly " +
               std::to_string(kHandshakeBytes) + " bytes, got " +
               std::to_string(bytes.size());
    }
    return false;
  }
  BinaryReader reader(bytes);
  const uint32_t magic = reader.ReadU32();
  const uint32_t version = reader.ReadU32();
  if (magic != kProtocolMagic) {
    if (error != nullptr) {
      char text[64];
      std::snprintf(text, sizeof(text), "bad handshake magic 0x%08X", magic);
      *error = text;
    }
    return false;
  }
  if (version != kProtocolVersion) {
    if (error != nullptr) {
      *error = "unsupported protocol version " + std::to_string(version) +
               " (expected " + std::to_string(kProtocolVersion) + ")";
    }
    return false;
  }
  return true;
}

void AppendFrame(std::string* out, uint64_t request_id, uint8_t op,
                 std::string_view payload) {
  // The CRC covers the body, which follows it: write a placeholder, append
  // the body, then patch in the CRC computed over the body in place.
  const size_t header = out->size();
  const uint32_t body_len =
      static_cast<uint32_t>(kMinFrameBodyBytes + payload.size());
  BinaryWriter writer(out);
  writer.WriteU32(body_len);
  writer.WriteU32(0);
  writer.WriteU64(request_id);
  writer.WriteU8(op);
  out->append(payload.data(), payload.size());
  const uint32_t crc =
      Crc32(out->data() + header + kFrameHeaderBytes, body_len);
  std::memcpy(&(*out)[header + 4], &crc, 4);
}

void AppendKeyBatchPayload(std::string* out, KeySpan keys) {
  BinaryWriter writer(out);
  writer.WriteU32(static_cast<uint32_t>(keys.size()));
  for (const std::string_view key : keys) {
    writer.WriteU32(static_cast<uint32_t>(key.size()));
    out->append(key.data(), key.size());
  }
}

void AppendQueryResponsePayload(std::string* out, const uint8_t* answers,
                                size_t count) {
  BinaryWriter writer(out);
  writer.WriteU8(kStatusOk);
  writer.WriteU32(static_cast<uint32_t>(count));
  const size_t bitmap_bytes = (count + 7) / 8;
  const size_t base = out->size();
  out->append(bitmap_bytes, '\0');
  for (size_t i = 0; i < count; ++i) {
    if (answers[i] != 0) {
      (*out)[base + i / 8] = static_cast<char>(
          static_cast<uint8_t>((*out)[base + i / 8]) | (1u << (i % 8)));
    }
  }
}

void AppendErrorPayload(std::string* out, uint8_t code,
                        std::string_view message) {
  BinaryWriter writer(out);
  writer.WriteU8(code);
  writer.WriteU32(static_cast<uint32_t>(message.size()));
  out->append(message.data(), message.size());
}

void AppendMutateResponsePayload(std::string* out, uint8_t status,
                                 uint64_t applied) {
  BinaryWriter writer(out);
  writer.WriteU8(status);
  writer.WriteU64(applied);
}

void AppendStatsResponsePayload(
    std::string* out,
    const std::vector<std::pair<std::string_view, uint64_t>>& entries) {
  BinaryWriter writer(out);
  writer.WriteU32(static_cast<uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    writer.WriteU16(static_cast<uint16_t>(entry.first.size()));
    out->append(entry.first.data(), entry.first.size());
    writer.WriteU64(entry.second);
  }
}

bool ParseKeyBatchPayload(std::string_view payload,
                          std::vector<std::string_view>* keys,
                          std::string* error) {
  keys->clear();
  if (payload.size() < 4) {
    if (error != nullptr) *error = "key batch shorter than its count field";
    return false;
  }
  const uint32_t count = LoadU32(payload.data());
  size_t pos = 4;
  // Each key costs at least its 4-byte length field, so a count beyond
  // remaining/4 is a lie — rejected before the reserve below allocates.
  if (count > (payload.size() - pos) / 4) {
    if (error != nullptr) {
      *error = "key count " + std::to_string(count) +
               " exceeds what " + std::to_string(payload.size() - pos) +
               " payload bytes can hold";
    }
    return false;
  }
  keys->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (payload.size() - pos < 4) {
      if (error != nullptr) {
        *error = "key " + std::to_string(i) + " is missing its length field";
      }
      return false;
    }
    const uint32_t key_len = LoadU32(payload.data() + pos);
    pos += 4;
    if (key_len > payload.size() - pos) {
      if (error != nullptr) {
        *error = "key " + std::to_string(i) + " length " +
                 std::to_string(key_len) + " overruns the payload";
      }
      return false;
    }
    keys->push_back(payload.substr(pos, key_len));
    pos += key_len;
  }
  if (pos != payload.size()) {
    if (error != nullptr) {
      *error = std::to_string(payload.size() - pos) +
               " trailing bytes after the key batch";
    }
    return false;
  }
  return true;
}

bool ParseQueryResponsePayload(std::string_view payload,
                               QueryResponseView* out, std::string* error) {
  if (payload.size() < 5) {
    if (error != nullptr) *error = "query response shorter than its header";
    return false;
  }
  out->status = static_cast<uint8_t>(payload[0]);
  const uint32_t count = LoadU32(payload.data() + 1);
  const size_t bitmap_bytes = (static_cast<size_t>(count) + 7) / 8;
  if (payload.size() - 5 != bitmap_bytes) {
    if (error != nullptr) {
      *error = "query response bitmap is " +
               std::to_string(payload.size() - 5) + " bytes, expected " +
               std::to_string(bitmap_bytes) + " for " +
               std::to_string(count) + " keys";
    }
    return false;
  }
  out->key_count = count;
  out->bitmap = payload.substr(5);
  return true;
}

bool ParseErrorPayload(std::string_view payload, ErrorView* out,
                       std::string* error) {
  if (payload.size() < 5) {
    if (error != nullptr) *error = "error payload shorter than its header";
    return false;
  }
  out->code = static_cast<uint8_t>(payload[0]);
  const uint32_t message_len = LoadU32(payload.data() + 1);
  if (payload.size() - 5 != message_len) {
    if (error != nullptr) {
      *error = "error message length " + std::to_string(message_len) +
               " does not match " + std::to_string(payload.size() - 5) +
               " remaining bytes";
    }
    return false;
  }
  out->message = payload.substr(5);
  return true;
}

bool ParseMutateResponsePayload(std::string_view payload,
                                MutateResponseView* out, std::string* error) {
  if (payload.size() != 9) {
    if (error != nullptr) {
      *error = "mutate response must be 9 bytes, got " +
               std::to_string(payload.size());
    }
    return false;
  }
  out->status = static_cast<uint8_t>(payload[0]);
  std::memcpy(&out->applied, payload.data() + 1, 8);
  return true;
}

bool ParseStatsResponsePayload(std::string_view payload,
                               std::vector<StatsEntryView>* entries,
                               std::string* error) {
  entries->clear();
  if (payload.size() < 4) {
    if (error != nullptr) *error = "stats response shorter than its count";
    return false;
  }
  const uint32_t count = LoadU32(payload.data());
  size_t pos = 4;
  // Each entry costs at least its 2-byte name length + 8-byte value, so a
  // count beyond remaining/10 is a lie — rejected before reserve allocates.
  if (count > (payload.size() - pos) / 10) {
    if (error != nullptr) {
      *error = "stats entry count " + std::to_string(count) +
               " exceeds what " + std::to_string(payload.size() - pos) +
               " payload bytes can hold";
    }
    return false;
  }
  entries->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (payload.size() - pos < 2) {
      if (error != nullptr) {
        *error = "stats entry " + std::to_string(i) +
                 " is missing its name length";
      }
      return false;
    }
    uint16_t name_len;
    std::memcpy(&name_len, payload.data() + pos, 2);
    pos += 2;
    if (name_len + size_t{8} > payload.size() - pos) {
      if (error != nullptr) {
        *error = "stats entry " + std::to_string(i) + " name length " +
                 std::to_string(name_len) + " overruns the payload";
      }
      return false;
    }
    StatsEntryView entry;
    entry.name = payload.substr(pos, name_len);
    pos += name_len;
    std::memcpy(&entry.value, payload.data() + pos, 8);
    pos += 8;
    entries->push_back(entry);
  }
  if (pos != payload.size()) {
    if (error != nullptr) {
      *error = std::to_string(payload.size() - pos) +
               " trailing bytes after the stats entries";
    }
    return false;
  }
  return true;
}

}  // namespace net
}  // namespace habf
