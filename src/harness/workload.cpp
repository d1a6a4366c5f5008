#include "harness/workload.h"

#include <cmath>
#include <cstdio>
#include <numeric>

namespace lds::harness {

// ---- ValueSizeDist ----------------------------------------------------------

namespace {

/// Split "a:b:c" into fields; empty vector on empty input.
std::vector<std::string> split_colon(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t colon = s.find(':', start);
    if (colon == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, colon - start));
    start = colon + 1;
  }
  return out;
}

bool parse_size(const std::string& s, std::size_t* out) {
  if (s.empty()) return false;
  std::size_t pos = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (...) {
    return false;
  }
  if (pos != s.size()) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_pct(const std::string& s, double* out) {
  if (s.empty()) return false;
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(s, &pos);
  } catch (...) {
    return false;
  }
  if (pos != s.size() || !(v >= 0.0 && v <= 100.0)) return false;
  *out = v;
  return true;
}

}  // namespace

std::optional<ValueSizeDist> ValueSizeDist::parse(const std::string& spec) {
  const auto f = split_colon(spec);
  ValueSizeDist d;
  if (f.size() == 2 && f[0] == "fixed") {
    d.kind = Kind::Fixed;
    if (!parse_size(f[1], &d.a)) return std::nullopt;
    d.b = d.a;
    return d;
  }
  if (f.size() == 3 && f[0] == "uniform") {
    d.kind = Kind::Uniform;
    if (!parse_size(f[1], &d.a) || !parse_size(f[2], &d.b) || d.a > d.b) {
      return std::nullopt;
    }
    return d;
  }
  if (f.size() == 4 && f[0] == "bimodal") {
    d.kind = Kind::Bimodal;
    if (!parse_size(f[1], &d.a) || !parse_size(f[2], &d.b) || d.a > d.b ||
        !parse_pct(f[3], &d.large_pct)) {
      return std::nullopt;
    }
    return d;
  }
  return std::nullopt;
}

std::size_t ValueSizeDist::sample(Rng& rng) const {
  switch (kind) {
    case Kind::Fixed: return a;
    case Kind::Uniform:
      return static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(a),
                          static_cast<std::int64_t>(b)));
    case Kind::Bimodal:
      return rng.bernoulli(large_pct / 100.0) ? b : a;
  }
  return a;
}

std::string ValueSizeDist::spec() const {
  switch (kind) {
    case Kind::Fixed: return "fixed:" + std::to_string(a);
    case Kind::Uniform:
      return "uniform:" + std::to_string(a) + ":" + std::to_string(b);
    case Kind::Bimodal: {
      char pct[32];
      std::snprintf(pct, sizeof(pct), "%g", large_pct);
      return "bimodal:" + std::to_string(a) + ":" + std::to_string(b) + ":" +
             pct;
    }
  }
  return "fixed:" + std::to_string(a);
}

// ---- ZipfianGenerator -------------------------------------------------------

namespace {

double zeta(std::size_t n, double theta) {
  double sum = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(std::size_t n, double theta)
    : n_(n), theta_(theta) {
  zetan_ = zeta(n_, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  const double zeta2 = zeta(2, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
  threshold1_ = 1.0 + std::pow(0.5, theta_);
}

std::size_t ZipfianGenerator::next_rank(Rng& rng) const {
  const double u = rng.uniform_real(0.0, 1.0);
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (n_ >= 2 && uz < threshold1_) return 1;
  const auto rank = static_cast<std::size_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank < n_ ? rank : n_ - 1;
}

// ---- WorkloadModel ----------------------------------------------------------

std::optional<std::string> validate_workload(const WorkloadOptions& opt) {
  if (opt.keys == 0) return "workload: keys must be >= 1";
  if (!(opt.read_fraction >= 0.0 && opt.read_fraction <= 1.0)) {
    return "workload: read fraction must be in [0, 1]";
  }
  if (!(opt.zipf_theta >= 0.0 && opt.zipf_theta < 1.0)) {
    return "workload: --zipf-theta must be in [0, 1) (0 = uniform)";
  }
  if (opt.tenants == 0) return "workload: tenants must be >= 1";
  return std::nullopt;
}

WorkloadModel::WorkloadModel(WorkloadOptions opt) : opt_(opt) {
  perm_.resize(opt_.keys);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  if (opt_.zipf_theta > 0.0 && opt_.keys > 1) {
    zipf_.emplace(opt_.keys, opt_.zipf_theta);
    // Seeded Fisher-Yates: scatter popularity ranks over the key space so
    // hot keys are not simply the lowest-numbered ones, while keeping an
    // exact inverse for keys_coldest_first().
    Rng rng(mix_seed(opt_.seed, 0x5ca77e12));
    for (std::size_t i = opt_.keys - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i)));
      std::swap(perm_[i], perm_[j]);
    }
  }
}

std::size_t WorkloadModel::key_index(Rng& rng) const {
  if (!zipf_.has_value()) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(opt_.keys) - 1));
  }
  return perm_[zipf_->next_rank(rng)];
}

std::string WorkloadModel::key_name(std::size_t tenant,
                                    std::size_t index) const {
  // Appended piecewise: `"literal" + std::string` trips a GCC 12 -O3
  // -Wrestrict false positive.
  std::string name;
  if (opt_.tenants > 1) name.append("t").append(std::to_string(tenant)) += ':';
  return name.append("key-").append(std::to_string(index));
}

std::vector<std::size_t> WorkloadModel::keys_coldest_first() const {
  std::vector<std::size_t> order(opt_.keys);
  if (!zipf_.has_value()) {
    // Uniform popularity: no rank to invert, keep the identity order.
    for (std::size_t i = 0; i < opt_.keys; ++i) order[i] = i;
    return order;
  }
  for (std::size_t rank = 0; rank < opt_.keys; ++rank) {
    order[opt_.keys - 1 - rank] = perm_[rank];
  }
  return order;
}

}  // namespace lds::harness
