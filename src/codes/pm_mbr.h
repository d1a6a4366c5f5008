// Product-matrix minimum-bandwidth-regenerating (MBR) code.
//
// This is the construction of Rashmi, Shah and Kumar (IEEE Trans. IT 2011),
// the paper's reference [25] and the code the LDS algorithm stores in L2.
// Parameters {(n, k, d), (alpha = d, beta = 1)} per stripe, with file size
//
//     B = sum_{i=0}^{k-1} (d - i) = k(2d - k + 1) / 2   symbols/stripe.
//
// Construction.  The B message symbols fill a d x d symmetric matrix
//
//     M = [ S   T ]      S: k x k symmetric,
//         [ T^t 0 ]      T: k x (d-k),
//
// and node i in [0, n) stores  psi_i^t M  (alpha = d symbols), where psi_i is
// row i of an n x d Vandermonde matrix Psi (so any d rows of Psi and any k
// rows of its first-k-column block Phi are invertible).
//
// Exact repair of node f: helper j sends the single symbol
// h_j = psi_j^t M psi_f = <element_j, psi_f>, which depends only on j's
// element and f's index - the property the LDS algorithm requires (an L1
// server takes the first d of the f2+d helper responses, whichever they are).
// From d helpers, Psi_rep (M psi_f) = h gives M psi_f, and by symmetry
// element_f = psi_f^t M = (M psi_f)^t.
//
// Decoding from any k elements {psi_i^t M}: writing psi_i^t = [phi_i^t
// delta_i^t], the last d-k columns give Phi_DC T, so T = Phi_DC^{-1} (.);
// subtracting Delta_DC T^t from the first k columns gives Phi_DC S, so
// S = Phi_DC^{-1} (.).
#pragma once

#include <vector>

#include "codes/erasure_code.h"
#include "matrix/matrix.h"

namespace lds::codes {

class PmMbrCode final : public RegeneratingCode {
 public:
  /// Requires 1 <= k <= d <= n - 1 and n <= 255.
  PmMbrCode(std::size_t n, std::size_t k, std::size_t d);

  std::size_t n() const override { return n_; }
  std::size_t k() const override { return k_; }
  std::size_t d() const override { return d_; }
  std::size_t alpha() const override { return d_; }
  std::size_t beta() const override { return 1; }
  std::size_t file_size() const override { return k_ * (2 * d_ - k_ + 1) / 2; }

  std::vector<Bytes> encode(std::span<const std::uint8_t> stripe)
      const override;
  Bytes encode_one(std::span<const std::uint8_t> stripe,
                   int index) const override;
  std::optional<Bytes> decode(
      std::span<const IndexedBytes> elements) const override;

  Bytes helper_data(int helper_index,
                    std::span<const std::uint8_t> helper_element,
                    int target_index) const override;
  std::optional<Bytes> repair(
      int target_index, std::span<const IndexedBytes> helpers) const override;

 private:
  /// Build the d x d symmetric message matrix from one stripe.
  math::Matrix message_matrix(std::span<const std::uint8_t> stripe) const;
  /// Inverse of message_matrix: read S and T back into stripe order.
  Bytes stripe_from_message(const math::Matrix& s, const math::Matrix& t)
      const;

  std::size_t n_;
  std::size_t k_;
  std::size_t d_;
  math::Matrix psi_;  // n x d Vandermonde
};

}  // namespace lds::codes
