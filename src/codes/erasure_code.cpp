#include "codes/erasure_code.h"

#include <algorithm>

namespace lds::codes {

namespace {

/// Shared selection rule behind decode_inputs/repair_inputs: positions of
/// the first `want` inputs with an index in [0, n), not equal to `exclude`,
/// not seen before and of `payload_size` symbols, sorted by index; empty
/// when fewer than `want` qualify.
std::vector<std::size_t> select_inputs(std::span<const IndexedBytes> inputs,
                                       std::size_t want, std::size_t n,
                                       std::size_t payload_size,
                                       int exclude = -1) {
  std::vector<std::size_t> pick;
  std::vector<bool> seen(n, false);
  for (std::size_t p = 0; p < inputs.size() && pick.size() < want; ++p) {
    const auto& [i, payload] = inputs[p];
    if (i < 0 || static_cast<std::size_t>(i) >= n || i == exclude) continue;
    if (payload.size() != payload_size || seen[static_cast<std::size_t>(i)])
      continue;
    seen[static_cast<std::size_t>(i)] = true;
    pick.push_back(p);
  }
  if (pick.size() < want) return {};
  std::sort(pick.begin(), pick.end(), [&](std::size_t a, std::size_t b) {
    return inputs[a].first < inputs[b].first;
  });
  return pick;
}

}  // namespace

std::vector<std::size_t> ErasureCode::decode_inputs(
    std::span<const IndexedBytes> elements, std::size_t payload_size) const {
  return select_inputs(elements, k(), n(), payload_size);
}

std::vector<std::size_t> RegeneratingCode::repair_inputs(
    int target_index, std::span<const IndexedBytes> helpers,
    std::size_t payload_size) const {
  return select_inputs(helpers, d(), n(), payload_size, target_index);
}

}  // namespace lds::codes
