// Striping codec: lifts a per-stripe (B-symbol) code to arbitrary byte values.
//
// The paper treats the object value v as a single file of B symbols; real
// values are arbitrary byte strings, so we prepend an 8-byte little-endian
// length header, zero-pad to a multiple of B, and run the code independently
// per stripe.  A node's coded element for a value is the concatenation of its
// per-stripe elements (stripe-major), and likewise for helper data; all sizes
// are therefore value-size * alpha/B and value-size * beta/B up to padding,
// matching the normalized cost accounting of Section II-d.
//
// Planar engine.  Every per-stripe function of the wrapped codes is a fixed
// GF(256) linear map:
//
//   encode   (n*alpha) x B          one per code
//   helper   beta x alpha           one per (helper, target)
//   repair   alpha x (d*beta)       one per (target, set of d helpers)
//   decode   B x (k*alpha)          one per set of k elements
//
// so no path loops stripe-by-stripe through tiny dot products.  Each map is
// taken from the wrapped code by probing it with basis inputs and checked
// against the code on a dense input.  It is then applied to a whole value in
// *plane-major* form: stripes are processed in cache-sized chunks, input
// plane c (symbol c of every stripe in the chunk) is gathered contiguously,
// every output plane is accumulated with long gf::mul_into / gf::axpy calls
// (the runtime-dispatched SIMD kernels), and scattered back to the
// stripe-major layout.  One sweep function does this for all five entry
// points.
//
// The encode map is built once.  Read-path maps are keyed by the sorted
// index set the wrapped code's decode_inputs / repair_inputs select, so
// arrival order does not matter, and live in a mutex-guarded cache bounded in
// coefficient bytes and shared by every copy of the StripedCode.  Building a
// map is the only per-index-set work.  A function whose probe fails the check
// (a code that is not a fixed linear map, e.g. a randomized one) is
// remembered as such and keeps the reference stripe-by-stripe path through
// the wrapped code: the *_stripewise methods, which are also the test oracle
// and the bench baseline.
//
// Large encodes additionally fan out across the lanes of a net::Engine
// (encode_value(value, engine)): stripe chunks go into a shared claim
// counter, every other lane is posted a helper task, and the calling lane
// helps until all chunks are done.  Helpers never block, so the fan-out
// cannot deadlock even when every lane encodes concurrently.  The output is
// byte-identical on every path - scalar or SIMD, planar or stripewise, serial
// or lane-parallel, Sim or Parallel engine - because the maps are exact and
// chunk boundaries only partition pure, exact GF arithmetic.
#pragma once

#include <memory>

#include "codes/erasure_code.h"

namespace lds::net {
class Engine;
}

namespace lds::codes {

namespace detail {
struct PlanarMaps;  // probed maps of one wrapped code (striped.cpp)
}

class StripedCode {
 public:
  explicit StripedCode(std::shared_ptr<const RegeneratingCode> code);

  const RegeneratingCode& code() const { return *code_; }

  std::size_t n() const { return code_->n(); }
  std::size_t k() const { return code_->k(); }
  std::size_t d() const { return code_->d(); }

  /// Number of stripes used for a value of `value_size` bytes.
  std::size_t stripes(std::size_t value_size) const;
  /// Bytes stored per element for a value of `value_size` bytes.
  std::size_t element_size(std::size_t value_size) const;
  /// Bytes of helper data per helper for a value of `value_size` bytes.
  std::size_t helper_size(std::size_t value_size) const;

  /// Encode a full value into all n elements.
  std::vector<Bytes> encode_value(const Bytes& value) const;

  /// Encode a full value, fanning stripe chunks out across `engine`'s lanes
  /// when the value is large enough to pay for the hop (null engine or a
  /// single-lane engine = the serial path).  Byte-identical to every other
  /// path; deterministic engines see no scheduled events (the fan-out is
  /// pure compute, invisible to virtual time).
  std::vector<Bytes> encode_value(const Bytes& value,
                                  net::Engine* engine) const;

  /// Encode only element `index`.
  Bytes encode_element(const Bytes& value, int index) const;

  /// Decode the original value from >= k elements with distinct indices.
  /// All elements must have equal length (same stripe count).
  std::optional<Bytes> decode_value(
      std::span<const IndexedBytes> elements) const;

  /// Helper data for repairing `target_index`, computed from one element.
  Bytes helper_data(int helper_index, const Bytes& element,
                    int target_index) const;

  /// Repair a full element from exactly d helper payloads.
  std::optional<Bytes> repair_element(
      int target_index, std::span<const IndexedBytes> helpers) const;

  /// Reference stripe-by-stripe paths through the wrapped code: the
  /// fallback for a function that fails its linearity check, the oracle the
  /// planar paths must match byte for byte, and the baseline legs of
  /// bench_codes_micro.
  std::vector<Bytes> encode_value_stripewise(const Bytes& value) const;
  std::optional<Bytes> decode_value_stripewise(
      std::span<const IndexedBytes> elements) const;
  Bytes helper_data_stripewise(int helper_index, const Bytes& element,
                               int target_index) const;
  std::optional<Bytes> repair_element_stripewise(
      int target_index, std::span<const IndexedBytes> helpers) const;

 private:
  Bytes frame(const Bytes& value) const;  // header + pad to stripe multiple

  std::shared_ptr<const RegeneratingCode> code_;
  /// Shared across copies: the maps are a pure function of the wrapped
  /// code, which is shared too.
  std::shared_ptr<detail::PlanarMaps> maps_;
};

}  // namespace lds::codes
