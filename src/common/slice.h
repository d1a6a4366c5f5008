// Value: an immutable, ref-counted byte buffer.
//
// The seed-era API moved `Bytes` (std::vector<uint8_t>) by value through
// every hop of a put — client -> shard router -> batch window -> writer ->
// one PUT-DATA message per L1 server — deep-copying the payload at each
// fan-out.  A Value is a shared handle to one immutable buffer: copying a
// Value bumps a refcount; the bytes are written once and never change, which
// is exactly the lifecycle of a written register value (tags version the
// data, the buffer itself is frozen at put time).
//
// Interop with seed-era call sites is deliberate:
//   * Bytes -> Value converts implicitly (moving the vector in: one
//     allocation for the control block, zero byte copies);
//   * Value -> const Bytes& converts implicitly (viewing, zero copies), so
//     existing callbacks taking `const Bytes&` — and the erasure coders,
//     which consume `const Bytes&` — keep working unchanged.
//
// Thread-safety: the buffer is immutable after construction, and
// shared_ptr's control block is atomic, so Values may be copied and read
// from any engine lane concurrently.
#pragma once

#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

#include "common/types.h"

namespace lds {

class Value {
 public:
  /// Empty value (the paper's distinguished v0 when the initial value is
  /// the empty byte string).  Holds no buffer at all.
  Value() = default;

  /// Take ownership of a byte vector: one control-block allocation, no byte
  /// copy.  Implicit so `put(key, Bytes{...})` call sites keep compiling.
  Value(Bytes bytes)  // NOLINT(runtime/explicit)
      : buf_(bytes.empty()
                 ? nullptr
                 : std::make_shared<const Bytes>(std::move(bytes))) {}

  /// Share an existing immutable buffer (refcount bump only).
  explicit Value(std::shared_ptr<const Bytes> buf)
      : buf_(buf != nullptr && buf->empty() ? nullptr : std::move(buf)) {}

  /// Deep-copy construction from text, for examples and tests.
  static Value from_string(std::string_view s) {
    // Built in place: moving a temporary Bytes in trips a GCC 12 -O3
    // -Wfree-nonheap-object false positive at inlined call sites.
    if (s.empty()) return Value();
    return Value(std::make_shared<const Bytes>(s.begin(), s.end()));
  }

  const std::uint8_t* data() const {
    return buf_ == nullptr ? nullptr : buf_->data();
  }
  std::size_t size() const { return buf_ == nullptr ? 0 : buf_->size(); }
  bool empty() const { return size() == 0; }
  Bytes::const_iterator begin() const { return bytes().begin(); }
  Bytes::const_iterator end() const { return bytes().end(); }

  /// Borrow the bytes (empty singleton when the value is empty).  The
  /// reference is valid while this Value (or any copy) is alive.
  const Bytes& bytes() const {
    return buf_ == nullptr ? empty_bytes() : *buf_;
  }
  /// Implicit view so seed-era `const Bytes&` consumers (erasure coders,
  /// history checks, callbacks) accept a Value without copying.
  operator const Bytes&() const { return bytes(); }  // NOLINT

  /// Deep copy out, for callers that need to mutate.
  Bytes to_bytes() const { return bytes(); }

  /// The shared buffer (null when empty); lets containers hold the handle.
  const std::shared_ptr<const Bytes>& share() const { return buf_; }

  /// Owners of this exact buffer, for zero-copy assertions in tests.
  long use_count() const { return buf_ == nullptr ? 0 : buf_.use_count(); }
  /// True when two Values share one underlying buffer (no copy happened).
  bool same_buffer(const Value& other) const { return buf_ == other.buf_; }

  std::string to_string() const {
    return std::string(reinterpret_cast<const char*>(data()), size());
  }

  friend bool operator==(const Value& a, const Value& b) {
    if (a.buf_ == b.buf_) return true;  // shared buffer or both empty
    return a.bytes() == b.bytes();
  }
  friend bool operator==(const Value& a, const Bytes& b) {
    return a.bytes() == b;
  }
  friend bool operator==(const Bytes& a, const Value& b) {
    return a == b.bytes();
  }

 private:
  static const Bytes& empty_bytes() {
    static const Bytes kEmpty;
    return kEmpty;
  }

  std::shared_ptr<const Bytes> buf_;
};

}  // namespace lds
