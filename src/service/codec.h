#ifndef CEBIS_SERVICE_CODEC_H
#define CEBIS_SERVICE_CODEC_H

// Byte-level packing primitives shared by the binary event log
// (service/event_log.cpp) and the network transport (src/net/): both
// speak the same little-endian fixed-width encodings, so a frame
// captured off the wire is byte-identical to the one the file log
// appends. The Parser is the strict counterpart: every bounds defect
// raises EventLogError naming the byte offset the offending frame
// starts at - torn and trailing bytes are defects, never silently
// tolerated.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "service/frame.h"

namespace cebis::service::codec {

// Fixed-width little-endian packing. The toolchain only targets
// little-endian hosts, so raw memcpy IS the wire format; static_assert
// keeps a big-endian port from silently writing byte-swapped logs.
static_assert(std::endian::native == std::endian::little,
              "cebis wire serialization assumes a little-endian host");

template <typename T>
inline void put(std::vector<std::uint8_t>& out, T value) {
  const auto size = out.size();
  out.resize(size + sizeof(T));
  std::memcpy(out.data() + size, &value, sizeof(T));
}

inline void put_f64(std::vector<std::uint8_t>& out, double value) {
  put(out, std::bit_cast<std::uint64_t>(value));
}

inline void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

inline void put_doubles(std::vector<std::uint8_t>& out,
                        std::span<const double> values) {
  put(out, static_cast<std::uint32_t>(values.size()));
  for (const double v : values) put_f64(out, v);
}

/// Bounds-checked payload cursor; every defect names the frame offset.
class Parser {
 public:
  Parser(std::span<const std::uint8_t> buf, std::int64_t frame_offset)
      : buf_(buf), frame_offset_(frame_offset) {}

  template <typename T>
  T get() {
    need(sizeof(T));
    T value;
    std::memcpy(&value, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  double f64() { return std::bit_cast<double>(get<std::uint64_t>()); }

  bool boolean() { return get<std::uint8_t>() != 0; }

  std::string str() {
    const auto n = get<std::uint32_t>();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<double> doubles() {
    const auto n = get<std::uint32_t>();
    check_count(n, sizeof(std::uint64_t));
    std::vector<double> values(n);
    for (auto& v : values) v = f64();
    return values;
  }

  /// Validates a length prefix BEFORE sizing a container from it: a
  /// corrupt count must surface as a malformed payload naming the
  /// frame offset, not as a multi-gigabyte allocation (the prefix is
  /// 32 bits, so a torn frame can claim ~4e9 elements while the
  /// payload it arrived in is bounded by the frame reader).
  void check_count(std::size_t n, std::size_t bytes_per_element) {
    if ((buf_.size() - pos_) / bytes_per_element < n) {
      throw EventLogError(
          "malformed payload: length prefix claims " + std::to_string(n) +
              " elements, more than the frame can hold",
          frame_offset_);
    }
  }

  /// Call after the last field: trailing garbage is a defect too.
  void done() const {
    if (pos_ != buf_.size()) {
      throw EventLogError("malformed payload: " +
                              std::to_string(buf_.size() - pos_) +
                              " trailing bytes",
                          frame_offset_);
    }
  }

 private:
  void need(std::size_t n) {
    if (buf_.size() - pos_ < n) {
      throw EventLogError("malformed payload: field extends past frame end",
                          frame_offset_);
    }
  }

  std::span<const std::uint8_t> buf_;
  std::int64_t frame_offset_;
  std::size_t pos_ = 0;
};

}  // namespace cebis::service::codec

#endif  // CEBIS_SERVICE_CODEC_H
