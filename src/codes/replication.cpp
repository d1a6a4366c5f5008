#include "codes/replication.h"

#include "common/assert.h"

namespace lds::codes {

ReplicationCode::ReplicationCode(std::size_t n) : n_(n) {
  LDS_REQUIRE(n >= 1, "ReplicationCode: need n >= 1");
}

std::vector<Bytes> ReplicationCode::encode(
    std::span<const std::uint8_t> stripe) const {
  LDS_REQUIRE(stripe.size() == 1, "ReplicationCode: stripe is one symbol");
  return std::vector<Bytes>(n_, Bytes{stripe[0]});
}

Bytes ReplicationCode::encode_one(std::span<const std::uint8_t> stripe,
                                  int index) const {
  LDS_REQUIRE(stripe.size() == 1, "ReplicationCode: stripe is one symbol");
  LDS_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < n_,
              "ReplicationCode::encode_one: index out of range");
  return Bytes{stripe[0]};
}

std::optional<Bytes> ReplicationCode::decode(
    std::span<const IndexedBytes> elements) const {
  const auto pick = decode_inputs(elements, alpha());
  if (pick.empty()) return std::nullopt;
  return elements[pick[0]].second;
}

Bytes ReplicationCode::helper_data(
    int helper_index, std::span<const std::uint8_t> helper_element,
    int target_index) const {
  LDS_REQUIRE(helper_index >= 0 && static_cast<std::size_t>(helper_index) < n_,
              "ReplicationCode::helper_data: helper index");
  LDS_REQUIRE(target_index >= 0 && static_cast<std::size_t>(target_index) < n_,
              "ReplicationCode::helper_data: target index");
  return Bytes(helper_element.begin(), helper_element.end());
}

std::optional<Bytes> ReplicationCode::repair(
    int target_index, std::span<const IndexedBytes> helpers) const {
  LDS_REQUIRE(target_index >= 0 && static_cast<std::size_t>(target_index) < n_,
              "ReplicationCode::repair: target index");
  const auto pick = repair_inputs(target_index, helpers, beta());
  if (pick.empty()) return std::nullopt;
  return helpers[pick[0]].second;
}

}  // namespace lds::codes
