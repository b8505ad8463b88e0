#include "src/proto/codec.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace cvr::proto {
namespace {

TEST(Codec, PrimitiveRoundTrips) {
  Buffer buffer;
  Writer writer(buffer);
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFull);
  writer.f64(-3.14159);
  Reader reader(buffer);
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(reader.f64(), -3.14159);
  EXPECT_TRUE(reader.done());
}

TEST(Codec, LittleEndianLayout) {
  Buffer buffer;
  Writer writer(buffer);
  writer.u32(0x01020304);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer[0], 0x04);
  EXPECT_EQ(buffer[3], 0x01);
}

TEST(Codec, BytesRoundTrip) {
  Buffer buffer;
  Writer writer(buffer);
  const std::uint8_t data[] = {1, 2, 3, 4, 5};
  writer.bytes(data, 5);
  Reader reader(buffer);
  const Buffer out = reader.bytes();
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[4], 5);
  EXPECT_TRUE(reader.done());
}

TEST(Codec, TruncationThrows) {
  Buffer buffer;
  Writer writer(buffer);
  writer.u16(7);
  Reader reader(buffer);
  EXPECT_THROW(reader.u32(), std::out_of_range);
  Reader reader2(buffer);
  reader2.u8();
  reader2.u8();
  EXPECT_THROW(reader2.u8(), std::out_of_range);
}

TEST(Codec, SpecialFloats) {
  Buffer buffer;
  Writer writer(buffer);
  writer.f64(0.0);
  writer.f64(-0.0);
  writer.f64(1e308);
  writer.f64(5e-324);  // denormal
  Reader reader(buffer);
  EXPECT_DOUBLE_EQ(reader.f64(), 0.0);
  EXPECT_DOUBLE_EQ(reader.f64(), -0.0);
  EXPECT_DOUBLE_EQ(reader.f64(), 1e308);
  EXPECT_DOUBLE_EQ(reader.f64(), 5e-324);
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (the classic check value).
  const char* data = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(data), 9),
            0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

// Bytewise reference: one table lookup per byte, the textbook form.
std::uint32_t bytewise_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// Every length 0..300 at every start offset 0..7 (the 8-byte blocks and
// the byte tail both vary) matches the bytewise reference.
TEST(Crc32, MatchesBytewiseReferenceAtAllLengthsAndOffsets) {
  cvr::Rng rng(0xC3C);
  std::vector<std::uint8_t> data(300 + 8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::uint8_t* start = data.data() + offset;
      ASSERT_EQ(crc32(start, length), bytewise_crc32(start, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Frame, RoundTrip) {
  Buffer payload = {10, 20, 30};
  const Buffer framed = frame(payload);
  Reader reader(framed);
  EXPECT_EQ(unframe(reader), payload);
  EXPECT_TRUE(reader.done());
}

TEST(Frame, EmptyPayloadOk) {
  const Buffer framed = frame({});
  Reader reader(framed);
  EXPECT_TRUE(unframe(reader).empty());
}

TEST(Frame, CorruptionDetected) {
  Buffer payload = {1, 2, 3, 4};
  Buffer framed = frame(payload);
  framed[5] ^= 0x01;  // flip a payload bit
  Reader reader(framed);
  EXPECT_THROW(unframe(reader), std::runtime_error);
}

TEST(Frame, BadLengthDetected) {
  Buffer framed = frame({1, 2, 3});
  framed[0] = 200;  // claims a longer payload than present
  Reader reader(framed);
  EXPECT_THROW(unframe(reader), std::runtime_error);
}

TEST(Frame, TruncatedPayloadThrows) {
  // The length field is intact but the stream ends inside the payload
  // or its CRC: the bulk copy must not read past the input.
  const Buffer framed = frame({1, 2, 3, 4, 5, 6, 7, 8, 9});
  for (std::size_t cut = 4; cut < framed.size(); ++cut) {
    const Buffer truncated(framed.begin(),
                           framed.begin() + static_cast<std::ptrdiff_t>(cut));
    Reader reader(truncated);
    EXPECT_ANY_THROW(unframe(reader)) << "cut at " << cut;
  }
}

TEST(Frame, BackToBackFrames) {
  const Buffer a = frame({1});
  const Buffer b = frame({2, 3});
  Buffer stream = a;
  stream.insert(stream.end(), b.begin(), b.end());
  Reader reader(stream);
  EXPECT_EQ(unframe(reader).size(), 1u);
  EXPECT_EQ(unframe(reader).size(), 2u);
  EXPECT_TRUE(reader.done());
}

TEST(Frame, FuzzRandomBytesNeverCrash) {
  cvr::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Buffer garbage;
    const int size = static_cast<int>(rng.uniform_int(0, 64));
    for (int b = 0; b < size; ++b) {
      garbage.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    Reader reader(garbage);
    try {
      (void)unframe(reader);
    } catch (const std::exception&) {
      // Throwing is fine; crashing is not.
    }
  }
}

}  // namespace
}  // namespace cvr::proto
