// Endian-stable binary serialization used by the CLOG-2 and SLOG-2 formats.
//
// All multi-byte values are encoded little-endian regardless of host, so a
// trace written on one machine reads identically on another (the real CLOG-2
// pipeline has the same property via explicit byte order).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace util {

/// Append-only binary encoder.
class ByteWriter {
public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// Length-prefixed (u32) byte string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Overwrite a previously written u32 at byte offset `at` (for patching
  /// lengths after the payload is known).
  void patch_u32(std::size_t at, std::uint32_t v) {
    if (at + 4 > buf_.size()) throw UsageError("ByteWriter::patch_u32 out of range");
    for (int i = 0; i < 4; ++i)
      buf_[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  }

  void reserve(std::size_t n) { buf_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
  template <typename T>
  void put_le(T v) {
    std::uint8_t b[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
      b[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
    raw(b, sizeof b);
  }

  std::vector<std::uint8_t> buf_;
};

/// Sequential binary decoder over a borrowed byte range. Throws IoError on
/// overrun so truncated traces fail loudly instead of yielding garbage.
class ByteReader {
public:
  ByteReader(const void* data, std::size_t n)
      : p_(static_cast<const std::uint8_t*>(data)), n_(n) {}
  explicit ByteReader(const std::vector<std::uint8_t>& v)
      : ByteReader(v.data(), v.size()) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
  std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string str() {
    std::uint32_t len = u32();
    const std::uint8_t* p = take(len);
    return std::string(reinterpret_cast<const char*>(p), len);
  }

  /// Borrow `n` raw bytes, advancing the cursor. The bound check compares
  /// against the bytes left (never `pos_ + n`, which a hostile length field
  /// can wrap past the end of size_t).
  const std::uint8_t* take(std::size_t n) {
    if (n > n_ - pos_)
      throw IoError("ByteReader: truncated input (want " + std::to_string(n) +
                    " bytes at offset " + std::to_string(pos_) + ", have " +
                    std::to_string(n_ - pos_) + ")");
    const std::uint8_t* p = p_ + pos_;
    pos_ += n;
    return p;
  }

  /// Validate an element count read from untrusted input: each element
  /// still needs at least `min_bytes` of input, so a hostile count fails
  /// here as a parse error instead of as a giant allocation downstream.
  [[nodiscard]] std::size_t checked_count(std::uint64_t n,
                                          std::size_t min_bytes = 1) const {
    const std::size_t floor = min_bytes == 0 ? 1 : min_bytes;
    if (n > remaining() / floor)
      throw IoError("ByteReader: element count " + std::to_string(n) +
                    " exceeds the " + std::to_string(remaining()) +
                    " bytes of remaining input");
    return static_cast<std::size_t>(n);
  }

  void skip(std::size_t n) { take(n); }
  /// Raw pointer at the cursor without consuming anything. Paired with
  /// remaining()/seek() by the batch varint decoders, which bounds-check a
  /// whole column at once instead of per byte.
  [[nodiscard]] const std::uint8_t* cursor() const { return p_ + pos_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return n_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == n_; }
  void seek(std::size_t pos) {
    if (pos > n_) throw IoError("ByteReader::seek out of range");
    pos_ = pos;
  }

private:
  template <typename T>
  T get_le() {
    const std::uint8_t* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    return v;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

}  // namespace util
