// Reed-Solomon code (Vandermonde generator, non-systematic).
//
// The baseline erasure code of the paper's related work (reference [26] and
// the single-layer systems [1], [6], [11], [17]).  Per stripe: B = k symbols,
// alpha = 1 symbol per element, decode from any k of n elements.  This code
// sits at the MSR storage point (alpha = B/k) with trivial repair-by-decoding,
// which is exactly the comparison point of Remark 1 (read cost Omega(n1)).
#pragma once

#include <vector>

#include "codes/erasure_code.h"
#include "matrix/matrix.h"

namespace lds::codes {

class RsCode final : public ErasureCode {
 public:
  /// Requires 1 <= k <= n <= 255.
  RsCode(std::size_t n, std::size_t k);

  std::size_t n() const override { return n_; }
  std::size_t k() const override { return k_; }
  std::size_t alpha() const override { return 1; }
  std::size_t file_size() const override { return k_; }

  std::vector<Bytes> encode(std::span<const std::uint8_t> stripe)
      const override;
  Bytes encode_one(std::span<const std::uint8_t> stripe,
                   int index) const override;
  std::optional<Bytes> decode(
      std::span<const IndexedBytes> elements) const override;

 private:
  std::size_t n_;
  std::size_t k_;
  math::Matrix gen_;  // n x k Vandermonde generator
};

/// Adapter presenting RsCode as a RegeneratingCode with d = k and
/// beta = alpha: a helper ships its whole element and repair decodes the
/// stripe then re-encodes the target.  Used as the "RS back-end" ablation of
/// Remark 1: repair bandwidth per stripe is k symbols = B, so a read that has
/// to reach L2 costs Theta(n1) instead of LDS/MBR's Theta(1).
class RsRegenerating final : public RegeneratingCode {
 public:
  RsRegenerating(std::size_t n, std::size_t k) : rs_(n, k) {}

  std::size_t n() const override { return rs_.n(); }
  std::size_t k() const override { return rs_.k(); }
  std::size_t alpha() const override { return rs_.alpha(); }
  std::size_t file_size() const override { return rs_.file_size(); }
  std::size_t d() const override { return rs_.k(); }
  std::size_t beta() const override { return rs_.alpha(); }

  std::vector<Bytes> encode(std::span<const std::uint8_t> stripe)
      const override {
    return rs_.encode(stripe);
  }
  Bytes encode_one(std::span<const std::uint8_t> stripe,
                   int index) const override {
    return rs_.encode_one(stripe, index);
  }
  std::optional<Bytes> decode(
      std::span<const IndexedBytes> elements) const override {
    return rs_.decode(elements);
  }

  Bytes helper_data(int helper_index,
                    std::span<const std::uint8_t> helper_element,
                    int target_index) const override;
  std::optional<Bytes> repair(
      int target_index, std::span<const IndexedBytes> helpers) const override;
  /// Repair decodes, so it reads what decode would - the target's own index
  /// included.
  std::vector<std::size_t> repair_inputs(
      int /*target_index*/, std::span<const IndexedBytes> helpers,
      std::size_t payload_size) const override {
    return rs_.decode_inputs(helpers, payload_size);
  }

 private:
  RsCode rs_;
};

}  // namespace lds::codes
