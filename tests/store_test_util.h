// Shared verification helper for the store test suites: every shard history
// must be live, atomic (Theorem IV.9 conditions) and pass the independent
// freshness reference checker.
#pragma once

#include <gtest/gtest.h>

#include "harness/recorder.h"
#include "store/store_service.h"

namespace lds::store {

inline void expect_all_histories_clean(StoreService& svc) {
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    const auto v = harness::verify_history(svc.shard_history(s));
    EXPECT_TRUE(v.ok()) << "shard " << s << ": " << v.violation();
  }
}

}  // namespace lds::store
