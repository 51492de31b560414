#include "bitstream/start_code.h"

#include <cstring>

namespace pdw {

StartCodeHit find_start_code(std::span<const uint8_t> data, size_t from) {
  // Classic two-zero scan: look for 00 00 01. memchr-accelerated search for
  // the 01 byte keeps this fast enough that picture-level splitting is
  // effectively free, as the paper assumes.
  size_t i = from;
  while (i + 3 < data.size() + 1 && i + 2 < data.size()) {
    const uint8_t* p = static_cast<const uint8_t*>(
        std::memchr(data.data() + i + 2, 0x01, data.size() - i - 2));
    if (p == nullptr) break;
    const size_t one = size_t(p - data.data());
    if (data[one - 1] == 0x00 && data[one - 2] == 0x00) {
      if (one + 1 < data.size()) return {one - 2, data[one + 1]};
      break;
    }
    i = one - 1;
  }
  return {data.size(), 0xFF};
}

std::vector<StartCodeHit> find_all_start_codes(std::span<const uint8_t> data) {
  std::vector<StartCodeHit> out;
  size_t pos = 0;
  while (true) {
    const StartCodeHit hit = find_start_code(data, pos);
    if (hit.offset >= data.size()) break;
    out.push_back(hit);
    pos = hit.offset + 4;
  }
  return out;
}

std::vector<PictureSpan> scan_pictures(std::span<const uint8_t> data) {
  std::vector<PictureSpan> out;
  PictureSpan cur;
  bool have_open = false;       // a picture start code has been seen
  size_t pending_begin = 0;     // start of seq/GOP headers awaiting a picture
  bool pending_seq = false;
  bool pending_gop = false;
  bool have_pending = false;

  size_t pos = 0;
  while (true) {
    const StartCodeHit hit = find_start_code(data, pos);
    if (hit.offset >= data.size()) break;

    const bool boundary = hit.code == start_code::kPicture ||
                          hit.code == start_code::kSequenceHeader ||
                          hit.code == start_code::kGroup ||
                          hit.code == start_code::kSequenceEnd;
    if (boundary && have_open) {
      cur.end = hit.offset;
      out.push_back(cur);
      have_open = false;
    }

    switch (hit.code) {
      case start_code::kSequenceHeader:
        if (!have_pending) {
          pending_begin = hit.offset;
          have_pending = true;
        }
        pending_seq = true;
        break;
      case start_code::kGroup:
        if (!have_pending) {
          pending_begin = hit.offset;
          have_pending = true;
        }
        pending_gop = true;
        break;
      case start_code::kPicture:
        cur = PictureSpan{};
        cur.begin = have_pending ? pending_begin : hit.offset;
        cur.has_sequence_header = pending_seq;
        cur.has_gop_header = pending_gop;
        have_pending = pending_seq = pending_gop = false;
        have_open = true;
        break;
      default:
        break;  // slices, extensions, user data: interior to the picture
    }
    pos = hit.offset + 4;
  }

  if (have_open) {
    cur.end = data.size();
    out.push_back(cur);
  }
  return out;
}

}  // namespace pdw
