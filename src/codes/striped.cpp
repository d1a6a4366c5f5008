#include "codes/striped.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/assert.h"
#include "gf/gf256.h"
#include "net/engine.h"

namespace lds::codes {

namespace detail {

/// One per-stripe function as a rows x cols GF(256) matrix, row-major:
/// output symbol r = sum_c coeff[r * cols + c] * input symbol c.
struct LinearMap {
  std::size_t rows = 0;
  std::size_t cols = 0;
  Bytes coeff;
};
using MapPtr = std::shared_ptr<const LinearMap>;

struct PlanarMaps {
  std::once_flag encode_once;
  MapPtr encode;  ///< null: encode failed its check (stripewise)

  std::mutex mu;
  /// Read-path maps by map_key(); a null entry records a failed probe.
  /// Guarded by mu, like read_bytes.
  std::unordered_map<std::string, MapPtr> read;
  std::size_t read_bytes = 0;  ///< keys + coefficients held in `read`
};

}  // namespace detail

namespace {

using detail::LinearMap;
using detail::MapPtr;

constexpr std::size_t kHeader = 8;

// Chunking for the planar sweep: each chunk covers kChunkInputBytes of input
// symbols, so the gathered planes plus one output plane stay cache resident
// while the map sweeps over them.
constexpr std::size_t kChunkInputBytes = 16 * 1024;
// Smaller chunks for the lane fan-out so even the threshold-sized encode
// splits into enough pieces to occupy several lanes.
constexpr std::size_t kLaneChunkInputBytes = 8 * 1024;
// Below this framed size the fan-out hop costs more than the arithmetic.
constexpr std::size_t kMinLaneInputBytes = 48 * 1024;
// Bound on the read-path cache.  The benchmark geometry (n2 = 8, k = d = 4)
// needs about 16 KiB for every map it can ever use; paper-scale geometries
// (n2 = 100) cannot cache every index set, and evict.
constexpr std::size_t kMaxReadMapBytes = 16u << 20;

std::uint64_t read_len(const Bytes& framed) {
  std::uint64_t len = 0;
  for (std::size_t i = 0; i < kHeader; ++i) {
    len |= static_cast<std::uint64_t>(framed[i]) << (8 * i);
  }
  return len;
}

/// Strip the length header and padding off a decoded framed value.
std::optional<Bytes> unframe(Bytes framed) {
  if (framed.size() < kHeader) return std::nullopt;
  const std::uint64_t len = read_len(framed);
  if (len > framed.size() - kHeader) return std::nullopt;
  framed.erase(framed.begin(), framed.begin() + kHeader);
  framed.resize(len);
  return framed;
}

using StripeFn =
    std::function<std::optional<Bytes>(std::span<const std::uint8_t>)>;

/// The rows x cols map of per-stripe function `f`, recovered by probing it
/// with the basis inputs e_c (column c = f(e_c)).  Null unless f(0) = 0 and
/// the map reproduces f on a dense input: a code with a constant offset, a
/// hidden non-linearity or randomness fails here and keeps the stripewise
/// path.
MapPtr probe(std::size_t rows, std::size_t cols, const StripeFn& f) {
  Bytes in(cols, 0);
  const auto zero = f(in);
  if (!zero || zero->size() != rows) return nullptr;
  if (std::any_of(zero->begin(), zero->end(), [](auto v) { return v != 0; }))
    return nullptr;

  auto map = std::make_shared<LinearMap>();
  map->rows = rows;
  map->cols = cols;
  map->coeff.assign(rows * cols, 0);
  for (std::size_t c = 0; c < cols; ++c) {
    in[c] = 1;
    const auto col = f(in);
    in[c] = 0;
    if (!col || col->size() != rows) return nullptr;
    for (std::size_t r = 0; r < rows; ++r) map->coeff[r * cols + c] = (*col)[r];
  }

  for (std::size_t c = 0; c < cols; ++c) {
    in[c] = static_cast<std::uint8_t>((c * 37 + 11) & 0xff);
    if (in[c] == 0) in[c] = 1;
  }
  const auto dense = f(in);
  if (!dense || dense->size() != rows) return nullptr;
  for (std::size_t r = 0; r < rows; ++r) {
    if (gf::dot({map->coeff.data() + r * cols, cols}, in) != (*dense)[r])
      return nullptr;
  }
  return map;
}

/// Apply rows [row0, row1) of `map` to stripes [s0, s1).  Input symbol c of
/// stripe s is in[c / in_w][s * in_w + c % in_w]; output symbol r of stripe s
/// goes to out[r / out_w][s * out_w + r % out_w].  Runs in plane-major
/// chunks (see striped.h); a one-symbol-wide input or output already is a
/// plane and is used in place.  Pure compute; thread-safe for disjoint
/// stripe ranges.
void sweep(const LinearMap& map, std::span<const std::uint8_t* const> in,
           std::size_t in_w, std::span<std::uint8_t* const> out,
           std::size_t out_w, std::size_t row0, std::size_t row1,
           std::size_t s0, std::size_t s1) {
  if (s1 <= s0) return;
  const std::size_t cols = map.cols;
  const std::size_t chunk =
      std::min(s1 - s0, std::max<std::size_t>(1, kChunkInputBytes / cols));
  Bytes planes(in_w == 1 ? 0 : cols * chunk);
  Bytes q(out_w == 1 ? 0 : chunk);
  std::vector<const std::uint8_t*> plane(cols);

  for (std::size_t c0 = s0; c0 < s1; c0 += chunk) {
    const std::size_t mm = std::min(chunk, s1 - c0);
    for (std::size_t c = 0; c < cols; ++c) {
      const std::uint8_t* src = in[c / in_w] + c0 * in_w + c % in_w;
      if (in_w == 1) {
        plane[c] = src;
        continue;
      }
      std::uint8_t* dst = planes.data() + c * mm;
      for (std::size_t s = 0; s < mm; ++s) dst[s] = src[s * in_w];
      plane[c] = dst;
    }

    for (std::size_t r = row0; r < row1; ++r) {
      std::uint8_t* dst = out[r / out_w] + c0 * out_w + r % out_w;
      const std::span<std::uint8_t> acc{out_w == 1 ? dst : q.data(), mm};
      const std::uint8_t* coeff = map.coeff.data() + r * cols;
      // acc = sum_c coeff[c] * plane_c, with the first nonzero term a
      // mul_into so acc needs no zero-fill pass.
      bool first = true;
      for (std::size_t c = 0; c < cols; ++c) {
        if (coeff[c] == 0) continue;
        if (first) {
          gf::mul_into(acc, coeff[c], {plane[c], mm});
          first = false;
        } else {
          gf::axpy(acc, coeff[c], {plane[c], mm});
        }
      }
      if (first) std::memset(acc.data(), 0, mm);
      if (out_w != 1) {
        for (std::size_t s = 0; s < mm; ++s) dst[s * out_w] = q[s];
      }
    }
  }
}

std::vector<Bytes> sized_elements(std::size_t n, std::size_t len) {
  std::vector<Bytes> out(n);
  for (auto& e : out) e.resize(len);
  return out;
}

std::vector<std::uint8_t*> data_ptrs(std::vector<Bytes>& bufs) {
  std::vector<std::uint8_t*> ptrs;
  for (auto& b : bufs) ptrs.push_back(b.data());
  return ptrs;
}

/// Encode `framed` with the sweep spread over `engine`'s lanes.
///
/// Work-helping fan-out: chunks sit behind an atomic claim counter; helper
/// tasks posted to the other lanes and the calling thread all pull from it
/// until it runs dry.  Helpers never wait on anything, so two lanes encoding
/// concurrently (each with helpers queued on the other) cannot deadlock; the
/// caller blocks only on in-flight pure-compute chunks.
std::vector<Bytes> encode_lanes(const MapPtr& map, std::size_t n,
                                std::size_t a, const Bytes& framed,
                                net::Engine& engine) {
  const std::size_t b = map->cols;
  const std::size_t m = framed.size() / b;
  std::vector<Bytes> out = sized_elements(n, m * a);
  const std::vector<std::uint8_t*> dst = data_ptrs(out);

  const std::size_t chunk = std::max<std::size_t>(1, kLaneChunkInputBytes / b);
  const std::size_t total = (m + chunk - 1) / chunk;

  struct Job {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto job = std::make_shared<Job>();

  // Helpers own a reference to the map: one can still be between its last
  // chunk and its return after the caller has moved on.
  // A helper touches `framed` and `dst` only after claiming a chunk, which
  // the caller waits for.
  auto run_chunks = [job, map, &framed, &dst, a, b, m, chunk, total] {
    for (;;) {
      const std::size_t c =
          job->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= total) break;
      const std::uint8_t* src = framed.data();
      const std::size_t s0 = c * chunk;
      sweep(*map, {&src, 1}, b, dst, a, 0, map->rows, s0,
            std::min(m, s0 + chunk));
      if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        std::lock_guard<std::mutex> lk(job->mu);
        job->cv.notify_all();
      }
    }
  };

  const auto self = engine.current_lane();
  std::size_t posted = 0;
  for (std::size_t lane = 0; lane < engine.lanes() && posted + 1 < total;
       ++lane) {
    if (self && *self == lane) continue;  // this thread helps directly below
    engine.post(lane, run_chunks);
    ++posted;
  }

  run_chunks();
  std::unique_lock<std::mutex> lk(job->mu);
  job->cv.wait(lk, [&] {
    return job->done.load(std::memory_order_acquire) == total;
  });
  return out;
}

/// The encode map, probed on first use; null when encode is not linear.
MapPtr encode_map(detail::PlanarMaps& maps, const RegeneratingCode& code) {
  std::call_once(maps.encode_once, [&] {
    const std::size_t a = code.alpha();
    maps.encode = probe(code.n() * a, code.file_size(), [&](auto stripe) {
      Bytes flat;
      for (const Bytes& e : code.encode(stripe)) {
        if (e.size() != a) return std::optional<Bytes>{};
        flat.insert(flat.end(), e.begin(), e.end());
      }
      return std::optional<Bytes>{std::move(flat)};
    });
  });
  return maps.encode;
}

/// Cache key of a read-path map: function tag, target and input indices.
std::string map_key(char fn, int target, std::span<const int> indices) {
  std::string key(1 + sizeof(int) * (1 + indices.size()), fn);
  std::memcpy(key.data() + 1, &target, sizeof(int));
  if (!indices.empty()) {
    std::memcpy(key.data() + 1 + sizeof(int), indices.data(),
                sizeof(int) * indices.size());
  }
  return key;
}

/// Element indices of the selected inputs (ordered by index already).
std::vector<int> picked_indices(std::span<const IndexedBytes> inputs,
                                std::span<const std::size_t> pick) {
  std::vector<int> idx;
  for (const std::size_t p : pick) idx.push_back(inputs[p].first);
  return idx;
}

std::size_t entry_bytes(const std::string& key, const MapPtr& map) {
  return key.size() + (map ? map->coeff.size() : 0);
}

/// The read-path map under `key`, probed through `f` on first use.  The
/// probe runs outside the lock; when two threads race on a new key the
/// first insert wins and both return it.  Past the byte bound, arbitrary
/// other entries are evicted; callers holding an evicted map keep it alive.
/// (A template so a hit costs no std::function.)
template <typename F>
MapPtr cached_map(detail::PlanarMaps& maps, std::string key, std::size_t rows,
                  std::size_t cols, F&& f) {
  {
    std::lock_guard<std::mutex> lk(maps.mu);
    if (auto it = maps.read.find(key); it != maps.read.end()) return it->second;
  }
  MapPtr map = probe(rows, cols, f);
  std::lock_guard<std::mutex> lk(maps.mu);
  const auto [it, inserted] = maps.read.emplace(std::move(key), map);
  if (!inserted) return it->second;
  maps.read_bytes += entry_bytes(it->first, map);
  while (maps.read_bytes > kMaxReadMapBytes && maps.read.size() > 1) {
    auto victim = maps.read.begin();
    if (victim == it) ++victim;
    maps.read_bytes -= entry_bytes(victim->first, victim->second);
    maps.read.erase(victim);
  }
  return map;
}

/// The selected inputs' payloads as (index, slice) pairs of one probe input
/// laid out input after input, `width` symbols each.
std::vector<IndexedBytes> split_probe(std::span<const std::uint8_t> in,
                                      std::span<const IndexedBytes> inputs,
                                      std::span<const std::size_t> pick,
                                      std::size_t width) {
  std::vector<IndexedBytes> out;
  for (std::size_t j = 0; j < pick.size(); ++j) {
    out.emplace_back(inputs[pick[j]].first,
                     Bytes(in.begin() + static_cast<long>(j * width),
                           in.begin() + static_cast<long>((j + 1) * width)));
  }
  return out;
}

std::vector<const std::uint8_t*> payload_ptrs(
    std::span<const IndexedBytes> inputs, std::span<const std::size_t> pick) {
  std::vector<const std::uint8_t*> ptrs;
  for (const std::size_t p : pick) ptrs.push_back(inputs[p].second.data());
  return ptrs;
}

}  // namespace

StripedCode::StripedCode(std::shared_ptr<const RegeneratingCode> code)
    : code_(std::move(code)), maps_(std::make_shared<detail::PlanarMaps>()) {
  LDS_REQUIRE(code_ != nullptr, "StripedCode: null code");
}

Bytes StripedCode::frame(const Bytes& value) const {
  // Allocated once at the padded size: header, value, zero padding.
  Bytes framed(stripes(value.size()) * code_->file_size(), 0);
  std::uint8_t header[kHeader];
  const std::uint64_t len = value.size();
  for (std::size_t i = 0; i < kHeader; ++i) {
    header[i] = static_cast<std::uint8_t>((len >> (8 * i)) & 0xff);
  }
  std::memcpy(framed.data(), header, kHeader);
  if (!value.empty()) {
    std::memcpy(framed.data() + kHeader, value.data(), value.size());
  }
  return framed;
}

std::size_t StripedCode::stripes(std::size_t value_size) const {
  const std::size_t b = code_->file_size();
  return (value_size + kHeader + b - 1) / b;
}

std::size_t StripedCode::element_size(std::size_t value_size) const {
  return stripes(value_size) * code_->alpha();
}

std::size_t StripedCode::helper_size(std::size_t value_size) const {
  return stripes(value_size) * code_->beta();
}

std::vector<Bytes> StripedCode::encode_value(const Bytes& value) const {
  return encode_value(value, nullptr);
}

std::vector<Bytes> StripedCode::encode_value(const Bytes& value,
                                             net::Engine* engine) const {
  const MapPtr map = encode_map(*maps_, *code_);
  if (map == nullptr) return encode_value_stripewise(value);
  const Bytes framed = frame(value);
  const std::size_t a = code_->alpha();
  if (engine != nullptr && engine->lanes() > 1 &&
      framed.size() >= kMinLaneInputBytes) {
    return encode_lanes(map, n(), a, framed, *engine);
  }
  const std::size_t m = framed.size() / map->cols;
  std::vector<Bytes> out = sized_elements(n(), m * a);
  const std::uint8_t* src = framed.data();
  sweep(*map, {&src, 1}, map->cols, data_ptrs(out), a, 0, map->rows, 0, m);
  return out;
}

Bytes StripedCode::encode_element(const Bytes& value, int index) const {
  const std::size_t b = code_->file_size();
  const std::size_t a = code_->alpha();
  const Bytes framed = frame(value);
  const std::size_t m = framed.size() / b;
  Bytes out(m * a);

  const MapPtr map = encode_map(*maps_, *code_);
  if (map != nullptr) {
    // The sweep restricted to this element's alpha rows; only its output
    // slot is addressed.
    const auto i = static_cast<std::size_t>(index);
    LDS_REQUIRE(index >= 0 && i < n(),
                "StripedCode::encode_element: index out of range");
    std::vector<std::uint8_t*> dst(n(), nullptr);
    dst[i] = out.data();
    const std::uint8_t* src = framed.data();
    sweep(*map, {&src, 1}, b, dst, a, i * a, (i + 1) * a, 0, m);
    return out;
  }

  for (std::size_t s = 0; s < m; ++s) {
    const Bytes e = code_->encode_one({framed.data() + s * b, b}, index);
    LDS_CHECK(e.size() == a, "StripedCode: element stripe size");
    std::memcpy(out.data() + s * a, e.data(), a);
  }
  return out;
}

std::optional<Bytes> StripedCode::decode_value(
    std::span<const IndexedBytes> elements) const {
  if (elements.empty()) return std::nullopt;
  const std::size_t a = code_->alpha();
  const std::size_t elem_len = elements.front().second.size();
  if (elem_len == 0 || elem_len % a != 0) return std::nullopt;
  const auto pick = code_->decode_inputs(elements, elem_len);
  if (pick.empty()) return std::nullopt;

  const std::size_t b = code_->file_size();
  const MapPtr map = cached_map(
      *maps_, map_key('d', -1, picked_indices(elements, pick)), b, pick.size() * a,
      [&](auto in) { return code_->decode(split_probe(in, elements, pick, a)); });
  if (map == nullptr) return decode_value_stripewise(elements);

  const std::size_t m = elem_len / a;
  Bytes framed(m * b);
  std::uint8_t* dst = framed.data();
  sweep(*map, payload_ptrs(elements, pick), a, {&dst, 1}, b, 0, b, 0, m);
  return unframe(std::move(framed));
}

Bytes StripedCode::helper_data(int helper_index, const Bytes& element,
                               int target_index) const {
  const std::size_t a = code_->alpha();
  LDS_REQUIRE(!element.empty() && element.size() % a == 0,
              "StripedCode::helper_data: bad element length");
  const std::size_t be = code_->beta();
  const MapPtr map = cached_map(
      *maps_, map_key('h', target_index, {&helper_index, 1}), be, a,
      [&](auto in) {
        return std::optional<Bytes>{
            code_->helper_data(helper_index, in, target_index)};
      });
  if (map == nullptr) {
    return helper_data_stripewise(helper_index, element, target_index);
  }

  const std::size_t m = element.size() / a;
  Bytes out(m * be);
  const std::uint8_t* src = element.data();
  std::uint8_t* dst = out.data();
  sweep(*map, {&src, 1}, a, {&dst, 1}, be, 0, be, 0, m);
  return out;
}

std::optional<Bytes> StripedCode::repair_element(
    int target_index, std::span<const IndexedBytes> helpers) const {
  if (helpers.empty()) return std::nullopt;
  const std::size_t be = code_->beta();
  const std::size_t h_len = helpers.front().second.size();
  if (h_len == 0 || h_len % be != 0) return std::nullopt;
  const auto pick = code_->repair_inputs(target_index, helpers, h_len);
  if (pick.empty()) return std::nullopt;

  const std::size_t a = code_->alpha();
  const MapPtr map = cached_map(
      *maps_, map_key('r', target_index, picked_indices(helpers, pick)), a, pick.size() * be,
      [&](auto in) {
        return code_->repair(target_index, split_probe(in, helpers, pick, be));
      });
  if (map == nullptr) return repair_element_stripewise(target_index, helpers);

  const std::size_t m = h_len / be;
  Bytes out(m * a);
  std::uint8_t* dst = out.data();
  sweep(*map, payload_ptrs(helpers, pick), be, {&dst, 1}, a, 0, a, 0, m);
  return out;
}

std::vector<Bytes> StripedCode::encode_value_stripewise(
    const Bytes& value) const {
  const Bytes framed = frame(value);
  const std::size_t b = code_->file_size();
  const std::size_t m = framed.size() / b;
  const std::size_t a = code_->alpha();
  std::vector<Bytes> out = sized_elements(code_->n(), m * a);
  for (std::size_t s = 0; s < m; ++s) {
    auto elems = code_->encode({framed.data() + s * b, b});
    for (std::size_t i = 0; i < elems.size(); ++i) {
      LDS_CHECK(elems[i].size() == a, "StripedCode: element stripe size");
      std::memcpy(out[i].data() + s * a, elems[i].data(), a);
    }
  }
  return out;
}

std::optional<Bytes> StripedCode::decode_value_stripewise(
    std::span<const IndexedBytes> elements) const {
  if (elements.empty()) return std::nullopt;
  const std::size_t a = code_->alpha();
  const std::size_t elem_len = elements.front().second.size();
  if (elem_len == 0 || elem_len % a != 0) return std::nullopt;
  const std::size_t m = elem_len / a;
  const std::size_t b = code_->file_size();

  Bytes framed(m * b);
  std::vector<IndexedBytes> per_stripe;
  for (std::size_t s = 0; s < m; ++s) {
    per_stripe.clear();
    for (const auto& [i, payload] : elements) {
      if (payload.size() != elem_len) continue;  // inconsistent stripe count
      per_stripe.emplace_back(
          i, Bytes(payload.begin() + static_cast<long>(s * a),
                   payload.begin() + static_cast<long>((s + 1) * a)));
    }
    auto stripe = code_->decode(per_stripe);
    if (!stripe) return std::nullopt;
    LDS_CHECK(stripe->size() == b, "StripedCode: decoded stripe size");
    std::memcpy(framed.data() + s * b, stripe->data(), b);
  }
  return unframe(std::move(framed));
}

Bytes StripedCode::helper_data_stripewise(int helper_index,
                                          const Bytes& element,
                                          int target_index) const {
  const std::size_t a = code_->alpha();
  LDS_REQUIRE(!element.empty() && element.size() % a == 0,
              "StripedCode::helper_data: bad element length");
  const std::size_t m = element.size() / a;
  const std::size_t be = code_->beta();
  Bytes out(m * be);
  for (std::size_t s = 0; s < m; ++s) {
    const Bytes h = code_->helper_data(
        helper_index, {element.data() + s * a, a}, target_index);
    LDS_CHECK(h.size() == be, "StripedCode: helper stripe size");
    std::memcpy(out.data() + s * be, h.data(), be);
  }
  return out;
}

std::optional<Bytes> StripedCode::repair_element_stripewise(
    int target_index, std::span<const IndexedBytes> helpers) const {
  if (helpers.empty()) return std::nullopt;
  const std::size_t be = code_->beta();
  const std::size_t h_len = helpers.front().second.size();
  if (h_len == 0 || h_len % be != 0) return std::nullopt;
  const std::size_t m = h_len / be;
  const std::size_t a = code_->alpha();

  Bytes out(m * a);
  std::vector<IndexedBytes> per_stripe;
  for (std::size_t s = 0; s < m; ++s) {
    per_stripe.clear();
    for (const auto& [i, payload] : helpers) {
      if (payload.size() != h_len) continue;
      per_stripe.emplace_back(
          i, Bytes(payload.begin() + static_cast<long>(s * be),
                   payload.begin() + static_cast<long>((s + 1) * be)));
    }
    auto elem = code_->repair(target_index, per_stripe);
    if (!elem) return std::nullopt;
    LDS_CHECK(elem->size() == a, "StripedCode: repaired stripe size");
    std::memcpy(out.data() + s * a, elem->data(), a);
  }
  return out;
}

}  // namespace lds::codes
