#include "codes/rs.h"

#include "matrix/vandermonde.h"

namespace lds::codes {

RsCode::RsCode(std::size_t n, std::size_t k)
    : n_(n), k_(k), gen_(math::vandermonde(n, k)) {
  LDS_REQUIRE(k >= 1 && k <= n && n <= 255, "RsCode: need 1 <= k <= n <= 255");
}

std::vector<Bytes> RsCode::encode(std::span<const std::uint8_t> stripe) const {
  LDS_REQUIRE(stripe.size() == k_, "RsCode::encode: stripe must be k symbols");
  std::vector<Bytes> out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out[i] = Bytes{gf::dot(gen_.row(i), stripe)};
  }
  return out;
}

Bytes RsCode::encode_one(std::span<const std::uint8_t> stripe,
                         int index) const {
  LDS_REQUIRE(stripe.size() == k_, "RsCode::encode_one: stripe size");
  LDS_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < n_,
              "RsCode::encode_one: index out of range");
  return Bytes{gf::dot(gen_.row(static_cast<std::size_t>(index)), stripe)};
}

std::optional<Bytes> RsCode::decode(
    std::span<const IndexedBytes> elements) const {
  const auto pick = decode_inputs(elements, alpha());
  if (pick.empty()) return std::nullopt;
  std::vector<int> idx;
  std::vector<std::uint8_t> rhs;
  for (const std::size_t p : pick) {
    idx.push_back(elements[p].first);
    rhs.push_back(elements[p].second[0]);
  }
  auto x = gen_.select_rows(idx).solve(rhs);
  LDS_CHECK(x.has_value(), "RsCode: Vandermonde submatrix singular");
  return Bytes(x->begin(), x->end());
}

Bytes RsRegenerating::helper_data(int helper_index,
                                  std::span<const std::uint8_t> helper_element,
                                  int target_index) const {
  LDS_REQUIRE(helper_index >= 0 &&
                  static_cast<std::size_t>(helper_index) < rs_.n(),
              "RsRegenerating::helper_data: helper index");
  LDS_REQUIRE(target_index >= 0 &&
                  static_cast<std::size_t>(target_index) < rs_.n(),
              "RsRegenerating::helper_data: target index");
  // Repair-by-decoding: the helper contributes its entire element.
  return Bytes(helper_element.begin(), helper_element.end());
}

std::optional<Bytes> RsRegenerating::repair(
    int target_index, std::span<const IndexedBytes> helpers) const {
  auto stripe = rs_.decode(helpers);
  if (!stripe) return std::nullopt;
  return rs_.encode_one(*stripe, target_index);
}

}  // namespace lds::codes
