// BinWriter/BinReader round-trips and corruption rejection: the checkpoint
// subsystem's serialization primitives must decode exactly what was encoded
// and throw CorruptInput on anything truncated or out of range.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/binio.h"

namespace nu {
namespace {

TEST(BinIoTest, ScalarRoundTrip) {
  BinWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.F64(3.14159);
  w.F64(-0.0);
  w.Bool(true);
  w.Bool(false);
  w.Size(7);
  w.Str("hello");

  BinReader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.F64(), 3.14159);
  // Bit-exact doubles: -0.0 must come back as -0.0, not +0.0.
  EXPECT_TRUE(std::signbit(r.F64()));
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.Size(), 7u);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_NO_THROW(r.ExpectEnd());
}

TEST(BinIoTest, SpecialDoublesRoundTripBitwise) {
  const double values[] = {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  BinWriter w;
  for (double v : values) w.F64(v);
  BinReader r(w.buffer());
  for (double v : values) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.F64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(BinIoTest, SeqRoundTrip) {
  BinWriter w;
  const std::vector<std::uint64_t> values = {1, 2, 3, 1ull << 63};
  w.Seq(values, [](BinWriter& out, std::uint64_t v) { out.U64(v); });
  BinReader r(w.buffer());
  std::vector<std::uint64_t> back;
  r.Seq(back, [](BinReader& in, std::uint64_t& v) { in.U64(v); });
  EXPECT_EQ(back, values);
}

TEST(BinIoTest, LittleEndianLayout) {
  BinWriter w;
  w.U32(0x01020304u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(w.buffer()[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(w.buffer()[3]), 0x01);
}

TEST(BinIoTest, TruncatedReadsThrow) {
  BinWriter w;
  w.U64(99);
  const std::string bytes = w.buffer();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    BinReader r(std::string_view(bytes).substr(0, keep));
    EXPECT_THROW((void)r.U64(), CorruptInput) << "prefix " << keep;
  }
}

TEST(BinIoTest, OversizedLengthFieldThrows) {
  BinWriter w;
  w.U64(1u << 20);  // claims a megabyte; nothing follows
  BinReader r(w.buffer());
  EXPECT_THROW((void)r.Size(), CorruptInput);
}

TEST(BinIoTest, ExpectEndRejectsTrailingGarbage) {
  BinWriter w;
  w.U8(1);
  w.U8(2);
  BinReader r(w.buffer());
  (void)r.U8();
  EXPECT_THROW(r.ExpectEnd(), CorruptInput);
}

TEST(BinIoTest, Crc32KnownVector) {
  // IEEE 802.3 reflected CRC32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view("")), 0x00000000u);
}

/// The bytewise table loop Crc32 used before slicing-by-8, verbatim.
std::uint32_t ReferenceCrc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(BinIoTest, Crc32MatchesBytewiseReference) {
  std::vector<unsigned char> buffer(300 + 8);
  std::uint32_t state = 0x12345678u;
  for (unsigned char& b : buffer) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(state >> 24);
  }
  // Every length, at every alignment of the 8-byte steps.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      ASSERT_EQ(Crc32(buffer.data() + offset, length),
                ReferenceCrc32(buffer.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(BinIoTest, Crc32DetectsSingleBitFlips) {
  std::string data = "checkpoint payload bytes";
  const std::uint32_t clean = Crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(Crc32(flipped), clean) << "byte " << i << " bit " << bit;
    }
  }
}

}  // namespace
}  // namespace nu
