// Minimal binary serialization.
//
// Protocol messages and blocks are encoded with a simple little-endian
// writer/reader. The reader is fully bounds-checked and never throws on
// malformed input: it switches to a failed state that callers must check
// (Byzantine peers may send arbitrary bytes, so decoding failures are a
// normal, expected event, not a programming error).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace dl {

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  // Length-prefixed (u32) byte string.
  void bytes(ByteView b);
  // Raw bytes without a length prefix (caller knows the size).
  void raw(ByteView b);
  // Capacity hint: an encoder that knows its size reserves once, so a large
  // field is copied into the buffer once and never again by a regrowth.
  void reserve(std::size_t n) { buf_.reserve(n); }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  // Length-prefixed byte string written by Writer::bytes.
  Bytes bytes();
  // Exactly `n` raw bytes.
  Bytes raw(std::size_t n);
  // The same two reads without a copy: the view aliases the input and is
  // valid only as long as it is. Empty on failure.
  ByteView bytes_view();
  ByteView raw_view(std::size_t n);

  // True if every read so far was in-bounds and all input was plausible.
  bool ok() const { return ok_; }
  // True when the cursor consumed the whole input and no read failed.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool take(std::size_t n);

  ByteView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dl
