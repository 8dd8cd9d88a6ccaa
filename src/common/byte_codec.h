// Little-endian fixed-width integers for the engine's wire formats (record
// and dataset serde, columnar blocks, checkpoint blobs). Readers are
// bounds-checked: a short buffer returns false and leaves the offset alone,
// so every decoder turns truncation into a Status instead of reading past
// the end.

#ifndef FLINKLESS_COMMON_BYTE_CODEC_H_
#define FLINKLESS_COMMON_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flinkless {

inline void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

inline void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

inline bool GetU32(const std::vector<uint8_t>& bytes, size_t* offset,
                   uint32_t* v) {
  if (*offset + 4 > bytes.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(bytes[*offset + i]) << (8 * i);
  }
  *offset += 4;
  return true;
}

inline bool GetU64(const std::vector<uint8_t>& bytes, size_t* offset,
                   uint64_t* v) {
  if (*offset + 8 > bytes.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(bytes[*offset + i]) << (8 * i);
  }
  *offset += 8;
  return true;
}

}  // namespace flinkless

#endif  // FLINKLESS_COMMON_BYTE_CODEC_H_
