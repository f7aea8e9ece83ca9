// A digest that pins the content of on-disk images. Every section of a
// snapshot image (and every WAL record) ends in the CRC32C of its own
// bytes, and a CRC32C over data followed by that data's CRC32C does not
// depend on the data, only on its length. So a CRC32C over a whole image
// pins little more than its section lengths. 64-bit FNV-1a has no such
// cancellation; it is folded to 32 bits to fit the pinned constants.

#ifndef NNCELL_TESTS_BYTE_DIGEST_H_
#define NNCELL_TESTS_BYTE_DIGEST_H_

#include <cstddef>
#include <cstdint>

namespace nncell {

inline uint32_t ByteDigest(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

}  // namespace nncell

#endif  // NNCELL_TESTS_BYTE_DIGEST_H_
