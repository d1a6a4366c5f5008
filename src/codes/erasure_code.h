// Erasure-code and regenerating-code interfaces.
//
// The unit of work is one *stripe*: a block of file_size() = B symbols,
// encoded into n coded elements of alpha symbols each.  Decoding succeeds
// from any k distinct elements.  Regenerating codes additionally support
// repair of element `f` from beta-symbol helper data computed by any d
// surviving elements.
//
// Two properties required by the LDS algorithm (paper, Section II-c) are part
// of this contract and are unit-tested for every implementation:
//
//  1. helper_data() depends only on the helper's own element and the *index*
//     of the element being repaired - not on the identity of the other d-1
//     helpers (an L1 server asks all of L2 for help and uses whichever d
//     responses arrive first).
//  2. Repair is *exact*: the repaired element equals what encode() produces
//     for that index.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace lds::codes {

/// (element index, element payload) pair used by decode() and repair().
using IndexedBytes = std::pair<int, Bytes>;

class ErasureCode {
 public:
  virtual ~ErasureCode() = default;

  virtual std::size_t n() const = 0;
  virtual std::size_t k() const = 0;
  /// Symbols stored per element per stripe.
  virtual std::size_t alpha() const = 0;
  /// Stripe size B in symbols.
  virtual std::size_t file_size() const = 0;

  /// Encode one stripe (exactly file_size() symbols) into all n elements.
  virtual std::vector<Bytes> encode(std::span<const std::uint8_t> stripe)
      const = 0;

  /// Encode only element `index` of one stripe.
  virtual Bytes encode_one(std::span<const std::uint8_t> stripe,
                           int index) const;

  /// Decode one stripe from at least k elements with distinct indices.
  /// Returns nullopt if fewer than k distinct valid elements are given.
  /// Reads exactly the elements decode_inputs(elements, alpha()) selects, in
  /// that order.
  virtual std::optional<Bytes> decode(
      std::span<const IndexedBytes> elements) const = 0;

  /// The elements decode() reads: the first k() whose index is in range and
  /// not seen before and whose payload is `payload_size` symbols, as
  /// positions into `elements` ordered by element index.  Empty when fewer
  /// than k() qualify.  It looks only at indices and sizes, so a striped
  /// caller can select once for a whole value (payload_size = its element
  /// length) and every stripe reads the same inputs.
  virtual std::vector<std::size_t> decode_inputs(
      std::span<const IndexedBytes> elements, std::size_t payload_size) const;
};

class RegeneratingCode : public ErasureCode {
 public:
  /// Number of helpers contacted for repair.
  virtual std::size_t d() const = 0;
  /// Symbols sent by each helper per stripe.
  virtual std::size_t beta() const = 0;

  /// Helper data computed by element `helper_index` (whose stored payload for
  /// this stripe is `helper_element`, alpha symbols) toward the repair of
  /// element `target_index`.  Returns beta() symbols.
  virtual Bytes helper_data(int helper_index,
                            std::span<const std::uint8_t> helper_element,
                            int target_index) const = 0;

  /// Repair element `target_index` from exactly d() helper responses with
  /// distinct helper indices (none equal to target_index).  Returns nullopt
  /// on malformed input (wrong count, duplicate indices).  Reads exactly the
  /// helpers repair_inputs(target_index, helpers, beta()) selects, in that
  /// order.
  virtual std::optional<Bytes> repair(
      int target_index, std::span<const IndexedBytes> helpers) const = 0;

  /// The helpers repair() reads, selected like decode_inputs(): the first
  /// d() with distinct in-range indices other than `target_index` and
  /// payloads of `payload_size` symbols, ordered by index; empty when fewer
  /// qualify.
  virtual std::vector<std::size_t> repair_inputs(
      int target_index, std::span<const IndexedBytes> helpers,
      std::size_t payload_size) const;
};

inline Bytes ErasureCode::encode_one(std::span<const std::uint8_t> stripe,
                                     int index) const {
  auto all = encode(stripe);
  return std::move(all.at(static_cast<std::size_t>(index)));
}

}  // namespace lds::codes
