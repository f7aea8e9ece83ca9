#ifndef NNCELL_STORAGE_BYTE_IO_H_
#define NNCELL_STORAGE_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"

namespace nncell {

// Little bounded byte cursors used to serialize tree nodes into pages.
// All reads/writes are bounds-checked; overruns are programming errors.

class ByteWriter {
 public:
  ByteWriter(uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    NNCELL_CHECK(pos_ + sizeof(T) <= size_);
    std::memcpy(data_ + pos_, &value, sizeof(T));
    pos_ += sizeof(T);
  }

  void PutDoubles(const double* values, size_t count) {
    NNCELL_CHECK(pos_ + count * sizeof(double) <= size_);
    if (count == 0) return;  // `values` may be null (an empty vector's data)
    std::memcpy(data_ + pos_, values, count * sizeof(double));
    pos_ += count * sizeof(double);
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    NNCELL_CHECK(pos_ + sizeof(T) <= size_);
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  void GetDoubles(double* out, size_t count) {
    NNCELL_CHECK(pos_ + count * sizeof(double) <= size_);
    if (count == 0) return;  // `out` may be null (an empty vector's data)
    std::memcpy(out, data_ + pos_, count * sizeof(double));
    pos_ += count * sizeof(double);
  }

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace nncell

#endif  // NNCELL_STORAGE_BYTE_IO_H_
