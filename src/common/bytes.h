// The one byte codec. Every wire layout in the tree — protocol bodies
// (proto/wire.cpp), sub-pictures with their SPH runs (core/subpicture.cpp),
// telemetry frames (obs/telemetry.cpp) and the fixed datagram and
// rendezvous headers (net/) — is written and read through these primitives,
// so encode and decode share one set of field widths and one byte order:
// little-endian, whatever the host's.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace pdw {

// Explicit little-endian stores and loads at a raw pointer. On a
// little-endian host this is one unaligned move; elsewhere it is byte-wise.
template <typename T>
inline void store_le(uint8_t* p, T v) {
  static_assert(std::is_integral_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    const auto u = std::make_unsigned_t<T>(v);
    for (size_t i = 0; i < sizeof(T); ++i) p[i] = uint8_t(u >> (8 * i));
  }
}

template <typename T>
inline T load_le(const uint8_t* p) {
  static_assert(std::is_integral_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  } else {
    std::make_unsigned_t<T> u = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
      u = decltype(u)(u | (decltype(u)(p[i]) << (8 * i)));
    return T(u);
  }
}

inline void store_le16(uint8_t* p, uint16_t v) { store_le(p, v); }
inline void store_le32(uint8_t* p, uint32_t v) { store_le(p, v); }
inline uint16_t load_le16(const uint8_t* p) { return load_le<uint16_t>(p); }
inline uint32_t load_le32(const uint8_t* p) { return load_le<uint32_t>(p); }

// Two modes: append to a growable vector, or write into a fixed-capacity
// raw buffer (the pooled-serialization path, where the caller sized the
// buffer exactly via the *_wire_bytes() helpers and overflow is a bug).
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}
  ByteWriter(uint8_t* buf, size_t capacity) : buf_(buf), cap_(capacity) {}

  void u8(uint8_t v) { put(v); }
  void u16(uint16_t v) { put(v); }
  void u32(uint32_t v) { put(v); }
  void u64(uint64_t v) { put(v); }
  void i16(int16_t v) { put(v); }
  void i32(int32_t v) { put(v); }

  void bytes(std::span<const uint8_t> data) {
    if (data.empty()) return;
    std::memcpy(reserve(data.size()), data.data(), data.size());
  }

  size_t size() const { return out_ ? out_->size() : pos_; }

 private:
  template <typename T>
  void put(T v) {
    store_le(reserve(sizeof(T)), v);
  }

  // Room for n more bytes at the end; returns where they go.
  uint8_t* reserve(size_t n) {
    if (out_) {
      out_->resize(out_->size() + n);
      return out_->data() + out_->size() - n;
    }
    PDW_CHECK_LE(pos_ + n, cap_);
    pos_ += n;
    return buf_ + pos_ - n;
  }

  std::vector<uint8_t>* out_ = nullptr;
  uint8_t* buf_ = nullptr;
  size_t cap_ = 0;
  size_t pos_ = 0;
};

// Bounds-checked and fail-latching: a read past the end returns 0 (or an
// empty span), marks the reader failed and consumes the rest of the input,
// so every later read fails too. Decoders read fields straight into their
// output and test done() once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t u8() { return get<uint8_t>(); }
  uint16_t u16() { return get<uint16_t>(); }
  uint32_t u32() { return get<uint32_t>(); }
  uint64_t u64() { return get<uint64_t>(); }
  int16_t i16() { return get<int16_t>(); }
  int32_t i32() { return get<int32_t>(); }

  std::span<const uint8_t> bytes(size_t n) {
    if (!take(n)) return {};
    return data_.subspan(pos_ - n, n);
  }

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  // Every byte consumed and no read overran.
  bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  template <typename T>
  T get() {
    if (!take(sizeof(T))) return T(0);
    return load_le<T>(data_.data() + pos_ - sizeof(T));
  }

  bool take(size_t n) {
    if (n > data_.size() - pos_) {
      ok_ = false;
      pos_ = data_.size();
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace pdw
