// Little-endian byte-level serialization helpers for wire formats
// (sub-pictures, MEI lists, stream info messages).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/check.h"

namespace pdw {

// Explicit little-endian stores and loads at a raw pointer, for fixed-layout
// datagram headers. Byte-wise, so the wire order never depends on the host's.
inline void store_le16(uint8_t* p, uint16_t v) {
  p[0] = uint8_t(v);
  p[1] = uint8_t(v >> 8);
}
inline void store_le32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = uint8_t(v >> (8 * i));
}
inline uint16_t load_le16(const uint8_t* p) {
  return uint16_t(p[0] | (p[1] << 8));
}
inline uint32_t load_le32(const uint8_t* p) {
  return uint32_t(p[0]) | (uint32_t(p[1]) << 8) | (uint32_t(p[2]) << 16) |
         (uint32_t(p[3]) << 24);
}

// Two modes: append to a growable vector, or write into a fixed-capacity
// raw buffer (the pooled-serialization path, where the caller sized the
// buffer exactly via the *_wire_bytes() helpers and overflow is a bug).
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}
  ByteWriter(uint8_t* buf, size_t capacity) : buf_(buf), cap_(capacity) {}

  void u8(uint8_t v) { append(&v, 1); }
  void u16(uint16_t v) { append(&v, 2); }
  void u32(uint32_t v) { append(&v, 4); }
  void u64(uint64_t v) { append(&v, 8); }
  void i16(int16_t v) { append(&v, 2); }
  void i32(int32_t v) { append(&v, 4); }
  void f64(double v) { append(&v, 8); }

  void bytes(std::span<const uint8_t> data) {
    append(data.data(), data.size());
  }

  size_t size() const { return out_ ? out_->size() : pos_; }

 private:
  void append(const void* p, size_t n) {
    if (n == 0) return;
    const auto* b = static_cast<const uint8_t*>(p);
    if (out_) {
      out_->insert(out_->end(), b, b + n);  // host is little-endian (x86/ARM LE)
    } else {
      PDW_CHECK_LE(pos_ + n, cap_);
      std::memcpy(buf_ + pos_, b, n);
      pos_ += n;
    }
  }

  std::vector<uint8_t>* out_ = nullptr;
  uint8_t* buf_ = nullptr;
  size_t cap_ = 0;
  size_t pos_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t u8() { return read<uint8_t>(); }
  uint16_t u16() { return read<uint16_t>(); }
  uint32_t u32() { return read<uint32_t>(); }
  uint64_t u64() { return read<uint64_t>(); }
  int16_t i16() { return read<int16_t>(); }
  int32_t i32() { return read<int32_t>(); }
  double f64() { return read<double>(); }

  std::span<const uint8_t> bytes(size_t n) {
    PDW_CHECK_LE(pos_ + n, data_.size());
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  T read() {
    PDW_CHECK_LE(pos_ + sizeof(T), data_.size());
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace pdw
