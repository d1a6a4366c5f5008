// Shared helpers for the system bench binaries (E1-E8): configuration
// builders matching the paper's parameter regimes and fixed-width table
// printing of formula-vs-measured rows.  Machine-readable results go
// through JsonReporter (json_reporter.h), the BENCH_*.json row writer.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "json_reporter.h"
#include "lds/analysis.h"
#include "lds/cluster.h"

namespace lds::bench {

using core::LdsCluster;
using core::LdsConfig;

/// The paper's Fig. 6 regime scaled to n servers per layer: f1 = f2 = n/10
/// (so k = d = 0.8 n), n1 = n2 = n.  Requires n >= 10 and divisible by 10
/// for exact proportions; otherwise rounds f down (still valid).
inline LdsConfig fig6_regime(std::size_t n) {
  std::size_t f = n / 10;
  if (f == 0) f = 1;
  return LdsConfig::symmetric(n, f);
}

/// A value size that keeps striping overhead (8-byte header + padding)
/// under ~2% for the given config: ~50 stripes, capped so that the
/// byte-shuffling back-ends (replication, RS fetch-k-decode) stay fast.
inline std::size_t fair_value_size(const LdsConfig& cfg) {
  const std::size_t b = cfg.k() * (2 * cfg.d() - cfg.k() + 1) / 2;
  const std::size_t size = 50 * b;
  return size > 40000 ? 40000 : size;
}

/// Normalized data cost of one operation.
inline double normalized_op_cost(LdsCluster& cluster, OpId op,
                                 std::size_t value_size) {
  const auto bucket = cluster.net().costs().by_op(op);
  return static_cast<double>(bucket.data_bytes) /
         static_cast<double>(value_size);
}

inline void print_header(const std::vector<std::string>& cols) {
  for (const auto& c : cols) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%16s", "----");
  std::printf("\n");
}

inline void print_cell(double v) { std::printf("%16.3f", v); }
inline void print_cell(std::size_t v) { std::printf("%16zu", v); }
inline void print_cell(const char* s) { std::printf("%16s", s); }

}  // namespace lds::bench
