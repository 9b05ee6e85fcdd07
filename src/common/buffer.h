// Byte-buffer serialization used for two purposes:
//   1. canonical encoding of server states (the adversary harness compares
//      and counts state vectors by their serialized form), and
//   2. measuring state/message sizes in bits for storage-cost accounting.
//
// Encodings are length-prefixed and deterministic; equal logical states
// serialize to equal byte strings.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace memu {

using Bytes = std::vector<std::uint8_t>;

// Appends primitive values to a growing byte vector in little-endian order.
// Multi-byte integers are copied in their native representation, which is
// little-endian on every supported target (checked below), so the bytes
// match a shift-per-byte encoding exactly.
static_assert(std::endian::native == std::endian::little,
              "BufWriter copies integers in native byte order");

class BufWriter {
 public:
  BufWriter() = default;

  // Writes into `reuse`'s storage: the buffer is cleared but its capacity
  // is kept, so encode-measure loops (and the explorer's exact-dedupe path)
  // recycle one allocation instead of growing a fresh vector per encoding.
  // Retrieve the result with std::move(w).take().
  explicit BufWriter(Bytes&& reuse) : out_(std::move(reuse)) { out_.clear(); }

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u32(std::uint32_t v) { append_native(v); }

  void u64(std::uint64_t v) { append_native(v); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  // Length-prefixed byte string.
  void bytes(std::span<const std::uint8_t> data) {
    u64(data.size());
    out_.insert(out_.end(), data.begin(), data.end());
  }

  void str(std::string_view s) {
    u64(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }

  const Bytes& data() const& { return out_; }
  Bytes take() && { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  template <class T>
  void append_native(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    std::memcpy(out_.data() + at, &v, sizeof(T));
  }

  Bytes out_;
};

// Reads primitives back out of a byte span; throws ContractError on
// truncated input (malformed snapshots are programming errors here, not
// external input).
class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_++]} << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_++]} << (8 * i);
    return v;
  }

  bool boolean() { return u8() != 0; }

  Bytes bytes() {
    const std::uint64_t n = u64();
    need(n);
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  std::string str() {
    const Bytes b = bytes();
    return std::string(b.begin(), b.end());
  }

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::uint64_t n) const {
    MEMU_CHECK_MSG(pos_ + n <= data_.size(), "truncated buffer read");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace memu
