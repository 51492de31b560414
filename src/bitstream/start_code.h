// MPEG-2 start-code constants and the byte-aligned start-code scanner used
// by the root (picture-level) splitter.
//
// Start codes are the reason picture-level splitting is cheap (paper §3,
// Table 1): a 32-bit byte-aligned pattern 00 00 01 xx delimits sequences,
// GOPs, pictures and slices, so the root splitter never parses VLC data.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pdw {

// Start code values (the byte following the 00 00 01 prefix).
namespace start_code {
inline constexpr uint8_t kPicture = 0x00;
inline constexpr uint8_t kSliceFirst = 0x01;   // slices: 0x01 .. 0xAF
inline constexpr uint8_t kSliceLast = 0xAF;    //   (vertical position of slice)
inline constexpr uint8_t kUserData = 0xB2;
inline constexpr uint8_t kSequenceHeader = 0xB3;
inline constexpr uint8_t kSequenceError = 0xB4;
inline constexpr uint8_t kExtension = 0xB5;
inline constexpr uint8_t kSequenceEnd = 0xB7;
inline constexpr uint8_t kGroup = 0xB8;

inline bool is_slice(uint8_t code) {
  return code >= kSliceFirst && code <= kSliceLast;
}
}  // namespace start_code

// A located start code: `offset` is the byte index of the first 0x00 of the
// 00 00 01 prefix; `code` is the fourth byte.
struct StartCodeHit {
  size_t offset;
  uint8_t code;
};

// Find the next start code at or after `from`. Returns an offset of
// data.size() (and code 0xFF) when none remains.
StartCodeHit find_start_code(std::span<const uint8_t> data, size_t from);

// All start codes in the buffer, in order.
std::vector<StartCodeHit> find_all_start_codes(std::span<const uint8_t> data);

// A picture-sized work unit located by the root splitter: the byte range
// covers the picture start code through the last slice of the picture
// (exclusive of the next picture/GOP/sequence start code). `preceded_by_*`
// report whether a sequence header / GOP header immediately preceded this
// picture (those bytes are included in the range so downstream consumers see
// quant-matrix and timing updates).
struct PictureSpan {
  size_t begin = 0;  // byte offset of first header belonging to this picture
  size_t end = 0;    // one past the picture's last byte
  bool has_sequence_header = false;
  bool has_gop_header = false;
};

// Split an elementary stream into picture spans (the root splitter's scan).
// The sequence end code, if present, is not part of any span.
std::vector<PictureSpan> scan_pictures(std::span<const uint8_t> data);

}  // namespace pdw
