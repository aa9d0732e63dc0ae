#include "service/frame.h"

#include <array>
#include <cstring>

#include "service/codec.h"

namespace cebis::service {

constexpr std::size_t kFrameHeader = 1 + sizeof(std::uint32_t);
constexpr std::size_t kFrameCrc = sizeof(std::uint32_t);

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  // IEEE 802.3 (reflected polynomial 0xEDB88320), table-driven.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void append_frame(std::vector<std::uint8_t>& out, std::uint8_t type,
                  std::span<const std::uint8_t> payload) {
  const std::size_t start = out.size();
  out.reserve(start + kFrameHeader + payload.size() + kFrameCrc);
  codec::put(out, type);
  codec::put(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  // The CRC covers type + length + payload, so a frame whose header
  // bytes rot is as detectable as one whose payload does.
  codec::put(out, crc32(out.data() + start, out.size() - start));
}

FrameReader::FrameReader(std::int64_t offset, std::size_t max_payload,
                         TypeName type_name, const char* end_of_input,
                         obs::Counter crc_failures)
    : offset_(offset),
      max_payload_(max_payload),
      type_name_(type_name),
      end_of_input_(end_of_input),
      crc_failures_(crc_failures),
      buf_(kBufferBytes) {}

bool FrameReader::fill(std::size_t n, const Source& source) {
  if (buffered() >= n) return true;
  std::memmove(buf_.data(), buf_.data() + begin_, buffered());
  end_ -= begin_;
  begin_ = 0;
  if (buf_.size() < n) buf_.resize(n);
  while (end_ < n) {
    const std::size_t got = source(buf_.data() + end_, buf_.size() - end_);
    if (got == 0) return false;
    end_ += got;
  }
  return true;
}

void FrameReader::torn(const char* where, std::uint8_t type) const {
  throw EventLogError(std::string("torn frame: ") + end_of_input_ + " " +
                          where + " of a " + type_name_(type) + " frame",
                      offset_);
}

std::optional<Frame> FrameReader::next(const Source& source) {
  if (!fill(kFrameHeader, source)) {
    if (buffered() == 0) return std::nullopt;  // ended on a frame boundary
    torn("inside the header", buf_[begin_]);
  }
  const std::uint8_t type = buf_[begin_];
  std::uint32_t payload_len = 0;
  std::memcpy(&payload_len, buf_.data() + begin_ + 1, sizeof(payload_len));
  if (payload_len > max_payload_) {
    throw EventLogError("oversized frame: " + std::to_string(payload_len) +
                            " byte payload exceeds the " +
                            std::to_string(max_payload_) + " byte limit",
                        offset_);
  }
  const std::size_t body = kFrameHeader + payload_len;
  if (!fill(body + kFrameCrc, source)) {
    torn(buffered() < body ? "inside the payload" : "before the checksum",
         type);
  }
  const std::uint8_t* frame_begin = buf_.data() + begin_;
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, frame_begin + body, sizeof(stored_crc));
  if (crc32(frame_begin, body) != stored_crc) {
    crc_failures_.add();
    throw EventLogError(
        std::string("CRC mismatch in a ") + type_name_(type) + " frame",
        offset_);
  }
  Frame frame{type, {frame_begin + kFrameHeader, frame_begin + body}};
  begin_ += body + kFrameCrc;
  offset_ += static_cast<std::int64_t>(body + kFrameCrc);
  return frame;
}

}  // namespace cebis::service
