#include "codes/pm_msr.h"

#include <algorithm>
#include <numeric>

#include "matrix/vandermonde.h"

namespace lds::codes {

PmMsrCode::PmMsrCode(std::size_t n, std::size_t k) : n_(n), k_(k) {
  LDS_REQUIRE(k >= 2, "PmMsrCode: need k >= 2");
  const std::size_t d = 2 * k - 2;
  const std::size_t a = k - 1;
  LDS_REQUIRE(d <= n - 1 && n <= 255, "PmMsrCode: need d <= n-1, n <= 255");

  const auto xs = math::default_eval_points(n);
  phi_ = math::vandermonde(xs, a);
  psi_ = math::vandermonde(xs, d);
  lambda_.resize(n);
  for (std::size_t i = 0; i < n; ++i) lambda_[i] = gf::pow(xs[i], a);

  // Distinct-lambda constraint (needed by decode).
  std::vector<gf::Elem> sorted = lambda_;
  std::sort(sorted.begin(), sorted.end());
  LDS_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
              "PmMsrCode: lambda_i = x_i^alpha not distinct; "
              "need n <= 255/gcd(k-1, 255)");
}

void PmMsrCode::message_matrices(std::span<const std::uint8_t> stripe,
                                 math::Matrix& s1, math::Matrix& s2) const {
  LDS_REQUIRE(stripe.size() == file_size(),
              "PmMsrCode: stripe must be B symbols");
  const std::size_t a = alpha();
  s1 = math::Matrix(a, a);
  s2 = math::Matrix(a, a);
  std::size_t pos = 0;
  for (math::Matrix* s : {&s1, &s2}) {
    for (std::size_t i = 0; i < a; ++i) {
      for (std::size_t j = i; j < a; ++j) {
        s->at(i, j) = stripe[pos];
        s->at(j, i) = stripe[pos];
        ++pos;
      }
    }
  }
  LDS_CHECK(pos == file_size(), "PmMsrCode: message fill mismatch");
}

std::vector<Bytes> PmMsrCode::encode(
    std::span<const std::uint8_t> stripe) const {
  math::Matrix s1, s2;
  message_matrices(stripe, s1, s2);
  const math::Matrix y1 = phi_.mul(s1);  // n x alpha
  const math::Matrix y2 = phi_.mul(s2);
  std::vector<Bytes> out(n_);
  const std::size_t a = alpha();
  for (std::size_t i = 0; i < n_; ++i) {
    out[i].resize(a);
    for (std::size_t c = 0; c < a; ++c) {
      out[i][c] = gf::add(y1.at(i, c), gf::mul(lambda_[i], y2.at(i, c)));
    }
  }
  return out;
}

Bytes PmMsrCode::encode_one(std::span<const std::uint8_t> stripe,
                            int index) const {
  LDS_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < n_,
              "PmMsrCode::encode_one: index out of range");
  math::Matrix s1, s2;
  message_matrices(stripe, s1, s2);
  const auto i = static_cast<std::size_t>(index);
  const auto v1 = s1.mul_vec(phi_.row(i));  // S1 phi_i = (phi_i^t S1)^t
  const auto v2 = s2.mul_vec(phi_.row(i));
  Bytes out(alpha());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = gf::add(v1[c], gf::mul(lambda_[i], v2[c]));
  }
  return out;
}

std::optional<Bytes> PmMsrCode::decode(
    std::span<const IndexedBytes> elements) const {
  const std::size_t a = alpha();
  const auto pick = decode_inputs(elements, a);
  if (pick.empty()) return std::nullopt;
  std::vector<int> idx;
  math::Matrix y(k_, a);
  for (const std::size_t p : pick) {
    const auto& [i, payload] = elements[p];
    std::copy(payload.begin(), payload.end(), y.row(idx.size()).begin());
    idx.push_back(i);
  }

  const math::Matrix phi_dc = phi_.select_rows(idx);  // k x alpha
  // P = Y Phi_DC^t; P_ij = A_ij + lambda_i B_ij with A, B symmetric.
  const math::Matrix p = y.mul(phi_dc.transpose());  // k x k

  // Separate the off-diagonal entries of A and B.
  math::Matrix amat(k_, k_), bmat(k_, k_);
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t j = i + 1; j < k_; ++j) {
      const gf::Elem li = lambda_[static_cast<std::size_t>(idx[i])];
      const gf::Elem lj = lambda_[static_cast<std::size_t>(idx[j])];
      LDS_CHECK(li != lj, "PmMsrCode: duplicate lambda in decode");
      const gf::Elem b = gf::div(gf::add(p.at(i, j), p.at(j, i)),
                                 gf::add(li, lj));
      const gf::Elem av = gf::add(p.at(i, j), gf::mul(li, b));
      bmat.at(i, j) = b;
      bmat.at(j, i) = b;
      amat.at(i, j) = av;
      amat.at(j, i) = av;
    }
  }

  // Recover S from its Gram-like off-diagonal samples: for each of the first
  // alpha chosen nodes i, {S phi_i} solves Phi_others v = (s_ij)_{j != i};
  // stacking alpha such v as columns gives S Phi_sub^t.
  auto recover = [&](const math::Matrix& gram) -> std::optional<math::Matrix> {
    math::Matrix v_cols(a, a);  // column c = S phi_{idx[c]}
    for (std::size_t c = 0; c < a; ++c) {
      std::vector<int> others;
      std::vector<std::uint8_t> rhs;
      for (std::size_t j = 0; j < k_; ++j) {
        if (j == c) continue;
        others.push_back(idx[j]);
        rhs.push_back(gram.at(c, j));
        if (others.size() == a) break;
      }
      const math::Matrix phi_others = phi_.select_rows(others);  // a x a
      auto v = phi_others.solve(rhs);
      if (!v) return std::nullopt;
      for (std::size_t r = 0; r < a; ++r) v_cols.at(r, c) = (*v)[r];
    }
    // S Phi_sub^t = V  =>  (Phi_sub S)^t = V  =>  S = Phi_sub^{-1} V^t.
    std::vector<int> sub(idx.begin(), idx.begin() + static_cast<long>(a));
    const math::Matrix phi_sub = phi_.select_rows(sub);
    return phi_sub.solve_matrix(v_cols.transpose());
  };

  auto s2 = recover(bmat);
  auto s1 = recover(amat);
  if (!s1 || !s2) return std::nullopt;

  Bytes stripe;
  stripe.reserve(file_size());
  for (const math::Matrix* s : {&*s1, &*s2}) {
    for (std::size_t i = 0; i < a; ++i)
      for (std::size_t j = i; j < a; ++j) stripe.push_back(s->at(i, j));
  }
  return stripe;
}

Bytes PmMsrCode::helper_data(int helper_index,
                             std::span<const std::uint8_t> helper_element,
                             int target_index) const {
  LDS_REQUIRE(helper_index >= 0 && static_cast<std::size_t>(helper_index) < n_,
              "PmMsrCode::helper_data: helper index");
  LDS_REQUIRE(target_index >= 0 && static_cast<std::size_t>(target_index) < n_,
              "PmMsrCode::helper_data: target index");
  LDS_REQUIRE(helper_element.size() == alpha(),
              "PmMsrCode::helper_data: element size");
  return Bytes{gf::dot(helper_element,
                       phi_.row(static_cast<std::size_t>(target_index)))};
}

std::optional<Bytes> PmMsrCode::repair(
    int target_index, std::span<const IndexedBytes> helpers) const {
  LDS_REQUIRE(target_index >= 0 && static_cast<std::size_t>(target_index) < n_,
              "PmMsrCode::repair: target index");
  const auto pick = repair_inputs(target_index, helpers, beta());
  if (pick.empty()) return std::nullopt;
  std::vector<int> idx;
  std::vector<std::uint8_t> h;
  for (const std::size_t p : pick) {
    idx.push_back(helpers[p].first);
    h.push_back(helpers[p].second[0]);
  }

  // Psi_rep (M phi_f) = h  =>  M phi_f = [S1 phi_f; S2 phi_f].
  const math::Matrix psi_rep = psi_.select_rows(idx);
  auto x = psi_rep.solve(h);
  if (!x) return std::nullopt;
  const std::size_t a = alpha();
  const auto f = static_cast<std::size_t>(target_index);
  Bytes out(a);
  for (std::size_t c = 0; c < a; ++c) {
    out[c] = gf::add((*x)[c], gf::mul(lambda_[f], (*x)[a + c]));
  }
  return out;
}

}  // namespace lds::codes
