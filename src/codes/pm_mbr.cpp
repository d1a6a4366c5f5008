#include "codes/pm_mbr.h"

#include <algorithm>

#include "matrix/vandermonde.h"

namespace lds::codes {

PmMbrCode::PmMbrCode(std::size_t n, std::size_t k, std::size_t d)
    : n_(n), k_(k), d_(d), psi_(math::vandermonde(n, d)) {
  LDS_REQUIRE(k >= 1 && k <= d && d <= n - 1 && n <= 255,
              "PmMbrCode: need 1 <= k <= d <= n-1, n <= 255");
}

math::Matrix PmMbrCode::message_matrix(
    std::span<const std::uint8_t> stripe) const {
  LDS_REQUIRE(stripe.size() == file_size(),
              "PmMbrCode: stripe must be B symbols");
  math::Matrix m(d_, d_);
  std::size_t pos = 0;
  // S: k x k symmetric, filled on the upper triangle (incl. diagonal).
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t j = i; j < k_; ++j) {
      m.at(i, j) = stripe[pos];
      m.at(j, i) = stripe[pos];
      ++pos;
    }
  }
  // T: k x (d-k), mirrored into the lower-left block as T^t.
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t j = k_; j < d_; ++j) {
      m.at(i, j) = stripe[pos];
      m.at(j, i) = stripe[pos];
      ++pos;
    }
  }
  LDS_CHECK(pos == file_size(), "PmMbrCode: message fill mismatch");
  return m;
}

Bytes PmMbrCode::stripe_from_message(const math::Matrix& s,
                                     const math::Matrix& t) const {
  Bytes stripe;
  stripe.reserve(file_size());
  for (std::size_t i = 0; i < k_; ++i)
    for (std::size_t j = i; j < k_; ++j) stripe.push_back(s.at(i, j));
  for (std::size_t i = 0; i < k_; ++i)
    for (std::size_t j = 0; j < d_ - k_; ++j) stripe.push_back(t.at(i, j));
  LDS_CHECK(stripe.size() == file_size(), "PmMbrCode: stripe rebuild size");
  return stripe;
}

std::vector<Bytes> PmMbrCode::encode(
    std::span<const std::uint8_t> stripe) const {
  const math::Matrix m = message_matrix(stripe);
  const math::Matrix coded = psi_.mul(m);  // n x d; row i = psi_i^t M
  std::vector<Bytes> out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    auto r = coded.row(i);
    out[i].assign(r.begin(), r.end());
  }
  return out;
}

Bytes PmMbrCode::encode_one(std::span<const std::uint8_t> stripe,
                            int index) const {
  LDS_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < n_,
              "PmMbrCode::encode_one: index out of range");
  const math::Matrix m = message_matrix(stripe);
  // psi_i^t M = (M psi_i)^t since M is symmetric.
  auto v = m.mul_vec(psi_.row(static_cast<std::size_t>(index)));
  return Bytes(v.begin(), v.end());
}

std::optional<Bytes> PmMbrCode::decode(
    std::span<const IndexedBytes> elements) const {
  const auto pick = decode_inputs(elements, alpha());
  if (pick.empty()) return std::nullopt;
  std::vector<int> idx;
  math::Matrix y(k_, d_);
  for (const std::size_t p : pick) {
    const auto& [i, payload] = elements[p];
    std::copy(payload.begin(), payload.end(), y.row(idx.size()).begin());
    idx.push_back(i);
  }

  const math::Matrix psi_dc = psi_.select_rows(idx);       // k x d
  const math::Matrix delta_dc = psi_dc.slice_cols(k_, d_ - k_);  // k x (d-k)
  const auto phi_inv = psi_dc.slice_cols(0, k_).inverse();
  LDS_CHECK(phi_inv.has_value(), "PmMbrCode: Vandermonde submatrix singular");

  // T from the trailing d-k columns: Y2 = Phi_DC T.
  const math::Matrix y2 = y.slice_cols(k_, d_ - k_);
  const math::Matrix t = phi_inv->mul(y2);

  // S from the leading k columns: Y1 = Phi_DC S + Delta_DC T^t.
  const math::Matrix y1 = y.slice_cols(0, k_);
  const math::Matrix rhs = y1.add(delta_dc.mul(t.transpose()));
  const math::Matrix s = phi_inv->mul(rhs);

  return stripe_from_message(s, t);
}

Bytes PmMbrCode::helper_data(int helper_index,
                             std::span<const std::uint8_t> helper_element,
                             int target_index) const {
  LDS_REQUIRE(helper_index >= 0 &&
                  static_cast<std::size_t>(helper_index) < n_,
              "PmMbrCode::helper_data: helper index");
  LDS_REQUIRE(target_index >= 0 &&
                  static_cast<std::size_t>(target_index) < n_,
              "PmMbrCode::helper_data: target index");
  LDS_REQUIRE(helper_element.size() == alpha(),
              "PmMbrCode::helper_data: element size");
  // h = <psi_j^t M, psi_f>; needs only the target's index.  One symbol.
  return Bytes{gf::dot(helper_element,
                       psi_.row(static_cast<std::size_t>(target_index)))};
}

std::optional<Bytes> PmMbrCode::repair(
    int target_index, std::span<const IndexedBytes> helpers) const {
  LDS_REQUIRE(target_index >= 0 && static_cast<std::size_t>(target_index) < n_,
              "PmMbrCode::repair: target index");
  const auto pick = repair_inputs(target_index, helpers, beta());
  if (pick.empty()) return std::nullopt;
  std::vector<int> idx;
  std::vector<std::uint8_t> h;
  for (const std::size_t p : pick) {
    idx.push_back(helpers[p].first);
    h.push_back(helpers[p].second[0]);
  }

  // Psi_rep (M psi_f) = h  =>  M psi_f; element_f = (M psi_f)^t by symmetry.
  auto x = psi_.select_rows(idx).solve(h);
  LDS_CHECK(x.has_value(), "PmMbrCode: Vandermonde submatrix singular");
  return Bytes(x->begin(), x->end());
}

}  // namespace lds::codes
