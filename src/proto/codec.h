// Binary wire codec for the client <-> server protocol.
//
// Little-endian, length-checked primitives with a CRC32 frame check —
// the encoding a production port of the paper's Java/Android protocol
// would put on the TCP side channel (poses, ACKs) and in RTP payload
// headers. Deliberately dependency-free and allocation-light.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cvr::proto {

using Buffer = std::vector<std::uint8_t>;

/// Appends primitives to a buffer (little-endian).
class Writer {
 public:
  explicit Writer(Buffer& out) : out_(&out) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  /// Length-prefixed (u32) byte string.
  void bytes(const std::uint8_t* data, std::size_t size);

 private:
  Buffer* out_;
};

/// Reads primitives; all methods throw std::out_of_range on truncation.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const Buffer& buffer)
      : Reader(buffer.data(), buffer.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// Length-prefixed byte string (copies out).
  Buffer bytes();
  /// Consumes the next `n` bytes and returns a pointer to them (valid as
  /// long as the underlying data).
  const std::uint8_t* take(std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected). Table-driven (slicing-by-8), no
/// dependencies.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);
inline std::uint32_t crc32(const Buffer& buffer) {
  return crc32(buffer.data(), buffer.size());
}

/// Frames a payload: u32 length | payload | u32 crc32(payload).
Buffer frame(const Buffer& payload);

/// Unframes; throws std::runtime_error on bad length or CRC mismatch.
/// On success consumes exactly one frame from the reader.
Buffer unframe(Reader& reader);

}  // namespace cvr::proto
