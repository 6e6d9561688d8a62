// Binary serialization primitives for the checkpoint subsystem: a growable
// little-endian writer, a bounds-checked reader, and CRC32 checksumming.
//
// The encoding is deliberately boring — fixed-width little-endian integers,
// IEEE-754 doubles bit-cast to u64, length-prefixed strings/vectors — so a
// snapshot taken by one build can be audited with a hex dump. Readers throw
// CorruptInput on any truncated or out-of-range read; callers treat that as
// "this file cannot be trusted", never as a soft error.
//
// Snapshot sections are defined once (docs/model.md §11): each state owner
// lists its fields in one template,
//
//   template <typename Ar, typename Self>
//   static void Section(Ar& ar, Self& self);
//
// instantiated with BinWriter and a const owner to save, and with BinReader
// and the owner to load. Both archives have the same field members, which
// take fields by reference: U8/U32/U64/F64/Bool (any number of fields, each
// at that width; ids by value), Size, Str, Enum, Index, Seq, Rows, Part (a
// nested owner), RngState and Check. The reader's range, duplicate and
// consistency checks live in those members and do nothing when writing;
// loading alone runs the `if constexpr (Ar::kLoading)` blocks that rebuild
// derived state.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/text.h"

namespace nu {

namespace binio_detail {

/// A field as the integer its wire form holds (a strong id by its value).
template <typename T>
constexpr std::uint64_t ToWire(const T& v) {
  if constexpr (requires { v.value(); }) {
    return v.value();
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

/// The inverse of ToWire, narrowing to the field's type.
template <typename T>
constexpr T FromWire(std::uint64_t v) {
  if constexpr (requires { typename T::rep_type; }) {
    return T{static_cast<typename T::rep_type>(v)};
  } else {
    return static_cast<T>(v);
  }
}

}  // namespace binio_detail

/// CRC32 (IEEE 802.3 polynomial, reflected) over a byte range.
[[nodiscard]] std::uint32_t Crc32(const void* data, std::size_t size);
[[nodiscard]] inline std::uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

/// Append-only little-endian encoder into an owned byte buffer.
class BinWriter {
 public:
  static constexpr bool kLoading = false;

  void U8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { AppendLe(v); }
  void U64(std::uint64_t v) { AppendLe(v); }
  void F64(double v) { AppendLe(std::bit_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Size(std::size_t v) { U64(static_cast<std::uint64_t>(v)); }

  // Section field members (see the top of this file).
  template <typename... T>
  void U8(const T&... v) {
    (U8(static_cast<std::uint8_t>(binio_detail::ToWire(v))), ...);
  }
  template <typename... T>
  void U32(const T&... v) {
    (U32(static_cast<std::uint32_t>(binio_detail::ToWire(v))), ...);
  }
  template <typename... T>
  void U64(const T&... v) {
    (U64(binio_detail::ToWire(v)), ...);
  }
  template <typename... T>
  void F64(const T&... v) {
    (F64(static_cast<double>(v)), ...);
  }
  template <typename... T>
  void Bool(const T&... v) {
    (Bool(static_cast<bool>(v)), ...);
  }
  /// One byte; the reader refuses values above `last`.
  template <typename E>
  void Enum(const E& v, E /*last*/) {
    U8(v);
  }
  /// A u64 the reader requires below `bound`.
  void Index(std::size_t v, std::size_t /*bound*/, const char* /*what*/) {
    U64(v);
  }
  /// Length-prefixed sequence: `write_one(*this, item)` per item, in the
  /// container's iteration order.
  template <typename C, typename Fn>
  void Seq(const C& items, Fn&& write_one) {
    Size(items.size());
    for (const auto& item : items) write_one(*this, item);
  }
  /// A Seq whose length the reader already holds (a roster).
  template <typename C, typename Fn>
  void Rows(const C& items, Fn&& write_one, const char* /*what*/) {
    Seq(items, write_one);
  }
  /// Nested owners' sections, in order.
  template <typename... T>
  void Part(const T&... parts) {
    (parts.SaveState(*this), ...);
  }
  void RngState(const Rng& rng) {
    const Rng::State s = rng.GetState();
    for (const std::uint64_t word : s.words) U64(word);
    F64(s.spare_normal);
    Bool(s.has_spare_normal);
  }
  /// A load-time check: nothing to check when writing.
  void Check(bool /*ok*/, const char* /*what*/) {}

  void Str(std::string_view s) {
    Size(s.size());
    buffer_.append(s.data(), s.size());
  }

  void Bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
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
  static constexpr bool kLoading = true;

  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t U8() {
    Need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  [[nodiscard]] std::uint32_t U32() { return ReadLe<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t U64() { return ReadLe<std::uint64_t>(); }
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

  // BinWriter's section field members, reading into the fields.
  template <typename... T>
  void U8(T&... v) {
    ((v = binio_detail::FromWire<T>(U8())), ...);
  }
  template <typename... T>
  void U32(T&... v) {
    ((v = binio_detail::FromWire<T>(U32())), ...);
  }
  template <typename... T>
  void U64(T&... v) {
    ((v = binio_detail::FromWire<T>(U64())), ...);
  }
  template <typename... T>
  void F64(T&... v) {
    ((v = F64()), ...);
  }
  template <typename... T>
  void Bool(T&... v) {
    ((v = static_cast<T>(Bool())), ...);
  }
  void Size(std::size_t& v) { v = Size(); }
  void Str(std::string& s) { s = Str(); }
  /// Throws CorruptInput on a byte above `last`.
  template <typename E>
  void Enum(E& v, E last) {
    const std::uint8_t b = U8();
    if (b > static_cast<std::uint8_t>(last)) {
      throw CorruptInput("enum value out of range");
    }
    v = static_cast<E>(b);
  }
  /// An index or count: a value checked against what it indexes, not a
  /// length bounded by the bytes left. Throws CorruptInput at `bound` or
  /// above.
  void Index(std::size_t& v, std::size_t bound, const char* what) {
    const std::uint64_t x = U64();
    if (x >= bound) throw CorruptInput(std::string(what) + " out of range");
    v = static_cast<std::size_t>(x);
  }
  /// Reads into a fresh container and moves it into `items` only once every
  /// item has loaded, so a throw leaves `items` as it was. Map and set keys
  /// must not repeat.
  template <typename C, typename Fn>
  void Seq(C& items, Fn&& read_one) {
    const std::size_t n = Size();
    C fresh;
    if constexpr (requires { fresh.reserve(n); }) fresh.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (requires { typename C::mapped_type; }) {
        std::pair<typename C::key_type, typename C::mapped_type> item{};
        read_one(*this, item);
        Check(fresh.emplace(std::move(item)).second,
              "repeated key in snapshot");
      } else if constexpr (requires { typename C::key_type; }) {
        typename C::key_type item{};
        read_one(*this, item);
        Check(fresh.insert(std::move(item)).second,
              "repeated key in snapshot");
      } else {
        typename C::value_type item{};
        read_one(*this, item);
        fresh.push_back(std::move(item));
      }
    }
    items = std::move(fresh);
  }
  /// A Seq into a container that keeps its length: throws CorruptInput,
  /// naming `what`, on any other stored length.
  template <typename C, typename Fn>
  void Rows(C& items, Fn&& read_one, const char* what) {
    Check(Size() == items.size(), what);
    C fresh(items.size());
    for (auto& item : fresh) read_one(*this, item);
    items = std::move(fresh);
  }
  template <typename... T>
  void Part(T&... parts) {
    (parts.LoadState(*this), ...);
  }
  /// Throws CorruptInput on the all-zero word vector, the one invalid
  /// xoshiro state (only garbage bytes can hold it).
  void RngState(Rng& rng) {
    Rng::State s;
    for (std::uint64_t& word : s.words) word = U64();
    s.spare_normal = F64();
    s.has_spare_normal = Bool();
    Check(s.words != decltype(s.words){}, "all-zero rng state");
    rng.SetState(s);
  }
  void Check(bool ok, const char* what) {
    if (!ok) throw CorruptInput(what);
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
