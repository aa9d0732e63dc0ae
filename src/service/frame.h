#ifndef CEBIS_SERVICE_FRAME_H
#define CEBIS_SERVICE_FRAME_H

// The one frame format of the event log and the socket transport, with
// its only encoder (append_frame) and parser (FrameReader):
//
//   frame := u8 type | u32 payload_len | payload | u32 crc32
//   crc32 := IEEE 802.3 CRC of (type | payload_len | payload)
//
// The reader raises EventLogError, naming the frame's byte offset, on a
// length above its bound (checked before any allocation), a torn frame
// or a CRC mismatch. Payloads are decoded elsewhere, with the same error.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace cebis::service {

/// Raised on any framing, payload or protocol defect, from a log file or
/// a socket; `byte_offset` names where the offending frame starts.
class EventLogError : public std::runtime_error {
 public:
  EventLogError(std::string message, std::int64_t byte_offset)
      : std::runtime_error(std::move(message) + " (byte offset " +
                           std::to_string(byte_offset) + ")"),
        byte_offset_(byte_offset) {}

  [[nodiscard]] std::int64_t byte_offset() const noexcept {
    return byte_offset_;
  }

 private:
  std::int64_t byte_offset_;
};

/// The largest payload a FrameReader accepts by default (a WorkloadStep
/// carries one double per state): a corrupt length is not a 4 GiB frame.
inline constexpr std::size_t kMaxFramePayload = 16u << 20;

/// IEEE 802.3 CRC-32 (the frame checksum; exposed for tests).
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Appends one frame (type | len | payload | crc) to `out`.
void append_frame(std::vector<std::uint8_t>& out, std::uint8_t type,
                  std::span<const std::uint8_t> payload);

/// One frame, payload still encoded.
struct Frame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// Strict buffered frame reader: each pull fills the buffer (kBufferBytes,
/// or one whole frame when larger) and next() parses frames out of it in
/// place, so pass it the same source on every call.
class FrameReader {
 public:
  /// Reads 1..`size` bytes into `data`, returns how many, 0 at the end
  /// of input. What it throws (a socket deadline) passes through next().
  using Source =
      std::function<std::size_t(std::uint8_t* data, std::size_t size)>;
  using TypeName = const char* (*)(std::uint8_t type);  ///< for messages

  static constexpr std::size_t kBufferBytes = 64u << 10;

  /// `offset`: where the first frame starts; `end_of_input`: how a torn
  /// frame's message names the cut ("end of file", "stream ended");
  /// `crc_failures`: bumped before a CRC mismatch is raised.
  FrameReader(std::int64_t offset, std::size_t max_payload,
              TypeName type_name, const char* end_of_input,
              obs::Counter crc_failures = {});

  /// The next frame, or nullopt when the input ends on a frame boundary.
  /// Throws EventLogError on an oversized, torn or corrupt frame.
  [[nodiscard]] std::optional<Frame> next(const Source& source);

  /// Byte offset the next frame starts at.
  [[nodiscard]] std::int64_t offset() const noexcept { return offset_; }

 private:
  /// Makes `n` bytes available at buf_[begin_] (compacting, growing buf_
  /// if needed); false when the input ends first.
  bool fill(std::size_t n, const Source& source);

  [[nodiscard]] std::size_t buffered() const noexcept { return end_ - begin_; }

  [[noreturn]] void torn(const char* where, std::uint8_t type) const;

  std::int64_t offset_;
  std::size_t max_payload_;
  TypeName type_name_;
  const char* end_of_input_;
  obs::Counter crc_failures_;
  std::vector<std::uint8_t> buf_;
  std::size_t begin_ = 0;  ///< first unparsed byte in buf_
  std::size_t end_ = 0;    ///< one past the last byte read into buf_
};

}  // namespace cebis::service

#endif  // CEBIS_SERVICE_FRAME_H
