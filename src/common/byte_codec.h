// Little-endian fixed-width integers for the engine's wire formats (record
// serde, partition blocks, dataset and checkpoint blobs). The Get readers
// are bounds-checked: a short buffer returns false and leaves the offset
// alone, so every decoder turns truncation into a Status instead of reading
// past the end. StoreLE/LoadLE work on raw positions the caller has already
// bounds-checked (the column loops of the block codec).

#ifndef FLINKLESS_COMMON_BYTE_CODEC_H_
#define FLINKLESS_COMMON_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace flinkless {

// One load or store on little-endian hosts; byte by byte elsewhere.
template <typename T>
inline void StoreLE(T v, uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) p[i] = (v >> (8 * i)) & 0xff;
  }
}

template <typename T>
inline T LoadLE(const uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

inline void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

inline void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

inline bool GetU32(const std::vector<uint8_t>& bytes, size_t* offset,
                   uint32_t* v) {
  if (*offset + 4 > bytes.size()) return false;
  *v = LoadLE<uint32_t>(bytes.data() + *offset);
  *offset += 4;
  return true;
}

inline bool GetU64(const std::vector<uint8_t>& bytes, size_t* offset,
                   uint64_t* v) {
  if (*offset + 8 > bytes.size()) return false;
  *v = LoadLE<uint64_t>(bytes.data() + *offset);
  *offset += 8;
  return true;
}

}  // namespace flinkless

#endif  // FLINKLESS_COMMON_BYTE_CODEC_H_
