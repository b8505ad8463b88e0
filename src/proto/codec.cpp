#include "src/proto/codec.h"

#include <array>
#include <cstring>
#include <stdexcept>

namespace cvr::proto {

void Writer::u8(std::uint8_t v) { out_->push_back(v); }

void Writer::u16(std::uint16_t v) {
  out_->push_back(static_cast<std::uint8_t>(v));
  out_->push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  const std::uint8_t le[4] = {
      static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
      static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  out_->insert(out_->end(), le, le + 4);
}

void Writer::u64(std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  out_->insert(out_->end(), le, le + 8);
}

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::bytes(const std::uint8_t* data, std::size_t size) {
  u32(static_cast<std::uint32_t>(size));
  out_->insert(out_->end(), data, data + size);
}

void Reader::need(std::size_t n) const {
  if (n > size_ - pos_) {
    throw std::out_of_range("proto::Reader: truncated input");
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Buffer Reader::bytes() {
  const std::uint32_t size = u32();
  const std::uint8_t* start = take(size);
  return Buffer(start, start + size);
}

const std::uint8_t* Reader::take(std::size_t n) {
  need(n);
  const std::uint8_t* start = data_ + pos_;
  pos_ += n;
  return start;
}

namespace {

// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table, and
// kCrcTables[k][i] is the CRC state after feeding byte i followed by k
// zero bytes, so eight input bytes fold into the state with eight
// independent lookups instead of a chain of eight.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(data[0]) |
               static_cast<std::uint32_t>(data[1]) << 8 |
               static_cast<std::uint32_t>(data[2]) << 16 |
               static_cast<std::uint32_t>(data[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][data[4]] ^
          t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Buffer frame(const Buffer& payload) {
  Buffer out;
  out.reserve(payload.size() + 8);
  Writer writer(out);
  writer.u32(static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  writer.u32(crc32(payload));
  return out;
}

Buffer unframe(Reader& reader) {
  const std::uint32_t size = reader.u32();
  if (size > reader.remaining()) {
    throw std::runtime_error("proto::unframe: length exceeds input");
  }
  const std::uint8_t* start = reader.take(size);
  Buffer payload(start, start + size);
  const std::uint32_t expected = reader.u32();
  if (crc32(payload) != expected) {
    throw std::runtime_error("proto::unframe: CRC mismatch");
  }
  return payload;
}

}  // namespace cvr::proto
