// Byte-level serialization helpers (little-endian, bounds-checked).
//
// The simulator passes typed frames around. These helpers define the byte
// layout of the headers in proto/headers.h, whose kWireSize constants
// solar/frame.h charges on every simulated frame; the tests round-trip it.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace repro::proto {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  std::size_t size() const { return out_.size(); }

 private:
  void append(const void* p, std::size_t n) {
    // Host is little-endian on every supported target; memcpy keeps the
    // encoding defined even for unaligned destinations.
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, p, n);
  }
  std::vector<std::uint8_t>& out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }

  /// Reads exactly n bytes; returns an empty vector (and poisons the
  /// reader) on underflow.
  std::vector<std::uint8_t> bytes(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                  data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> view(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

 private:
  template <typename T>
  T read() {
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace repro::proto
