// Binary serialization primitives for the checkpoint subsystem: a growable
// little-endian writer, a bounds-checked reader, and CRC32 checksumming.
//
// The encoding is deliberately boring — fixed-width little-endian integers,
// IEEE-754 doubles bit-cast to u64, length-prefixed strings/vectors — so a
// snapshot taken by one build can be audited with a hex dump. Readers throw
// CorruptInput on any truncated or out-of-range read; callers treat that as
// "this file cannot be trusted", never as a soft error.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/text.h"

namespace nu {

/// CRC32 (IEEE 802.3 polynomial, reflected) over a byte range.
[[nodiscard]] std::uint32_t Crc32(const void* data, std::size_t size);
[[nodiscard]] inline std::uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

/// Append-only little-endian encoder into an owned byte buffer.
class BinWriter {
 public:
  void U8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { AppendLe(v); }
  void U64(std::uint64_t v) { AppendLe(v); }
  void I64(std::int64_t v) { AppendLe(static_cast<std::uint64_t>(v)); }
  void F64(double v) { AppendLe(std::bit_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Size(std::size_t v) { U64(static_cast<std::uint64_t>(v)); }

  void Str(std::string_view s) {
    Size(s.size());
    buffer_.append(s.data(), s.size());
  }

  void Bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  template <typename T, typename Fn>
  void Vec(const std::vector<T>& v, Fn&& write_one) {
    Size(v.size());
    for (const T& item : v) write_one(*this, item);
  }

  [[nodiscard]] const std::string& buffer() const { return buffer_; }
  [[nodiscard]] std::string TakeBuffer() { return std::move(buffer_); }
  /// Empties the buffer and keeps its capacity, so a writer reused for
  /// payloads of similar size stops regrowing from nothing.
  void Clear() { buffer_.clear(); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  template <typename T>
  void AppendLe(T v) {
    char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    buffer_.append(bytes, sizeof(T));
  }

  std::string buffer_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range. Any
/// read past the end throws CorruptInput.
class BinReader {
 public:
  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t U8() {
    Need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  [[nodiscard]] std::uint32_t U32() { return ReadLe<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t U64() { return ReadLe<std::uint64_t>(); }
  [[nodiscard]] std::int64_t I64() {
    return static_cast<std::int64_t>(ReadLe<std::uint64_t>());
  }
  [[nodiscard]] double F64() {
    return std::bit_cast<double>(ReadLe<std::uint64_t>());
  }
  [[nodiscard]] bool Bool() { return U8() != 0; }
  [[nodiscard]] std::size_t Size() {
    const std::uint64_t v = U64();
    // A length larger than the remaining input can only be garbage; reject
    // it before a caller tries to reserve that much memory.
    if (v > bytes_.size() - pos_) throw CorruptInput("length field too large");
    return static_cast<std::size_t>(v);
  }

  [[nodiscard]] std::string Str() {
    const std::size_t n = Size();
    Need(n);
    std::string out(bytes_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> Vec(Fn&& read_one) {
    const std::size_t n = Size();
    std::vector<T> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(read_one(*this));
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool AtEnd() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t position() const { return pos_; }

  /// Readers of versioned payloads call this after decoding to reject
  /// trailing garbage (a symptom of a format mismatch, not of torn writes).
  void ExpectEnd() const {
    if (!AtEnd()) throw CorruptInput("trailing bytes after payload");
  }

 private:
  void Need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) throw CorruptInput("input truncated");
  }

  template <typename T>
  T ReadLe() {
    Need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace nu
