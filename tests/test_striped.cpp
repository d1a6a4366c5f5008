// Striping codec: arbitrary byte values through per-stripe codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <thread>

#include "codes/factory.h"
#include "codes/pm_mbr.h"
#include "codes/pm_msr.h"
#include "codes/rs.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "net/engine.h"

namespace lds::codes {
namespace {

StripedCode mbr(std::size_t n, std::size_t k, std::size_t d) {
  return StripedCode(std::make_shared<PmMbrCode>(n, k, d));
}

class StripedSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StripedSizeTest, EncodeDecodeRoundTrip) {
  const std::size_t value_size = GetParam();
  StripedCode code = mbr(7, 3, 4);
  Rng rng(value_size + 1);
  const Bytes value = rng.bytes(value_size);
  const auto elems = code.encode_value(value);
  ASSERT_EQ(elems.size(), 7u);

  std::vector<IndexedBytes> input{{1, elems[1]}, {3, elems[3]}, {6, elems[6]}};
  auto decoded = code.decode_value(input);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StripedSizeTest,
                         ::testing::Values(0, 1, 7, 8, 9, 100, 1024, 4096));

TEST(Striped, EncodeElementMatchesEncodeValue) {
  StripedCode code = mbr(6, 2, 4);
  Rng rng(5);
  const Bytes value = rng.bytes(333);
  const auto elems = code.encode_value(value);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(code.encode_element(value, i),
              elems[static_cast<std::size_t>(i)]);
  }
}

TEST(Striped, RepairedElementDecodesWithOthers) {
  StripedCode code = mbr(7, 3, 4);
  Rng rng(6);
  const Bytes value = rng.bytes(500);
  const auto elems = code.encode_value(value);

  // Repair element 2 from helpers {3,4,5,6}.
  std::vector<IndexedBytes> helpers;
  for (int h = 3; h <= 6; ++h) {
    helpers.emplace_back(
        h, code.helper_data(h, elems[static_cast<std::size_t>(h)], 2));
  }
  auto repaired = code.repair_element(2, helpers);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, elems[2]);

  std::vector<IndexedBytes> input{{0, elems[0]}, {2, *repaired},
                                  {5, elems[5]}};
  auto decoded = code.decode_value(input);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, value);
}

TEST(Striped, SizeAccountors) {
  StripedCode code = mbr(7, 3, 4);  // B = 9 symbols, alpha = 4, beta = 1
  const std::size_t value_size = 100;  // + 8B header = 108 -> 12 stripes
  EXPECT_EQ(code.stripes(value_size), 12u);
  EXPECT_EQ(code.element_size(value_size), 12u * 4u);
  EXPECT_EQ(code.helper_size(value_size), 12u);

  Rng rng(7);
  const Bytes value = rng.bytes(value_size);
  const auto elems = code.encode_value(value);
  EXPECT_EQ(elems[0].size(), code.element_size(value_size));
  EXPECT_EQ(code.helper_data(1, elems[1], 0).size(),
            code.helper_size(value_size));
}

TEST(Striped, DecodeRejectsShortInput) {
  StripedCode code = mbr(6, 3, 4);
  Rng rng(8);
  const Bytes value = rng.bytes(64);
  const auto elems = code.encode_value(value);
  std::vector<IndexedBytes> input{{0, elems[0]}, {1, elems[1]}};
  EXPECT_FALSE(code.decode_value(input).has_value());
  EXPECT_FALSE(code.decode_value({}).has_value());
}

TEST(Striped, FactoryKinds) {
  for (auto kind : {BackendKind::PmMbr, BackendKind::Rs,
                    BackendKind::Replication}) {
    StripedCode code = make_backend(kind, 8, 3, 4);
    Rng rng(static_cast<std::uint64_t>(kind) + 10);
    const Bytes value = rng.bytes(97);
    const auto elems = code.encode_value(value);
    ASSERT_EQ(elems.size(), 8u) << backend_name(kind);
    std::vector<IndexedBytes> input;
    for (std::size_t i = 0; i < code.k(); ++i) {
      input.emplace_back(static_cast<int>(i + 2), elems[i + 2]);
    }
    auto decoded = code.decode_value(input);
    ASSERT_TRUE(decoded.has_value()) << backend_name(kind);
    EXPECT_EQ(*decoded, value) << backend_name(kind);
  }
}

TEST(Striped, ReplicationElementIsValueSized) {
  StripedCode code = make_backend(BackendKind::Replication, 5, 1, 1);
  Rng rng(11);
  const Bytes value = rng.bytes(64);
  // Replication stores the (framed) value at every node: 64 + 8 header.
  EXPECT_EQ(code.element_size(value.size()), 72u);
}

// ---- encode path equivalence ------------------------------------------------
//
// encode_value has four ways to produce the same bytes: the reference
// stripe-by-stripe loop, the planar SIMD path, the planar path on the scalar
// kernels, and the lane-parallel fan-out.  All must be byte-identical.

TEST(StripedPaths, PlanarMatchesStripewiseAllBackends) {
  std::vector<std::pair<std::string, StripedCode>> codes;
  for (auto kind : {BackendKind::PmMbr, BackendKind::Rs,
                    BackendKind::Replication}) {
    codes.emplace_back(backend_name(kind), make_backend(kind, 8, 3, 5));
  }
  codes.emplace_back("pm_msr",
                     StripedCode(std::make_shared<PmMsrCode>(8, 3)));
  Rng rng(21);
  for (auto& [name, code] : codes) {
    for (const std::size_t size : {0u, 1u, 9u, 333u, 4096u, 70000u}) {
      const Bytes value = rng.bytes(size);
      EXPECT_EQ(code.encode_value(value), code.encode_value_stripewise(value))
          << name << " size=" << size;
    }
  }
}

TEST(StripedPaths, ScalarAndSimdKernelsProduceIdenticalElements) {
  StripedCode code = mbr(7, 3, 4);
  Rng rng(23);
  const Bytes value = rng.bytes(100000);
  const gf::Isa best = gf::active_isa();
  ASSERT_TRUE(gf::select_isa(gf::Isa::Scalar));
  const auto scalar_elems = code.encode_value(value);
  ASSERT_TRUE(gf::select_isa(best));
  const auto simd_elems = code.encode_value(value);
  EXPECT_EQ(scalar_elems, simd_elems);
  EXPECT_EQ(simd_elems, code.encode_value_stripewise(value));
}

TEST(StripedPaths, EngineOverloadSerialFallbacks) {
  StripedCode code = mbr(7, 3, 4);
  Rng rng(29);
  const Bytes small = rng.bytes(500);       // under the fan-out threshold
  const Bytes large = rng.bytes(200000);    // over it
  const auto small_ref = code.encode_value(small);
  const auto large_ref = code.encode_value(large);
  // Null engine and single-lane (Sim) engine both take the serial path.
  EXPECT_EQ(code.encode_value(small, nullptr), small_ref);
  EXPECT_EQ(code.encode_value(large, nullptr), large_ref);
  net::SimEngine sim(42);
  EXPECT_EQ(code.encode_value(large, &sim), large_ref);
}

TEST(StripedPaths, LaneParallelMatchesSerial) {
  StripedCode code = mbr(7, 3, 4);
  Rng rng(31);
  const Bytes value = rng.bytes(300000);
  const auto ref = code.encode_value_stripewise(value);

  net::ParallelEngine::Options opt;
  opt.lanes = 4;
  net::ParallelEngine engine(opt);
  engine.start();
  // From an external (non-lane) thread.
  EXPECT_EQ(code.encode_value(value, &engine), ref);
  // From inside a lane (the production call site: an L1 server offloading).
  std::promise<std::vector<Bytes>> done;
  engine.post(0, [&] { done.set_value(code.encode_value(value, &engine)); });
  EXPECT_EQ(done.get_future().get(), ref);
  engine.stop();
}

TEST(StripedPaths, ConcurrentLaneEncodesDoNotDeadlock) {
  // Two lanes encoding at once each post helpers at the other; the
  // work-helping claim loop must let both finish.
  StripedCode code = mbr(7, 3, 4);
  Rng rng(37);
  const Bytes v1 = rng.bytes(250000);
  const Bytes v2 = rng.bytes(250000);
  const auto ref1 = code.encode_value(v1);
  const auto ref2 = code.encode_value(v2);

  net::ParallelEngine::Options opt;
  opt.lanes = 2;
  net::ParallelEngine engine(opt);
  engine.start();
  std::promise<std::vector<Bytes>> p1, p2;
  engine.post(0, [&] { p1.set_value(code.encode_value(v1, &engine)); });
  engine.post(1, [&] { p2.set_value(code.encode_value(v2, &engine)); });
  EXPECT_EQ(p1.get_future().get(), ref1);
  EXPECT_EQ(p2.get_future().get(), ref2);
  engine.stop();
}

// ---- read path equivalence --------------------------------------------------
//
// helper_data, repair_element and decode_value run as probed linear maps
// swept over the whole value; each must equal the stripe-by-stripe loop
// through the wrapped code byte for byte, nullopt included, for every code,
// every kernel ISA and every input shape the protocol can hand it.

struct NamedStriped {
  std::string name;
  StripedCode code;
};

std::vector<NamedStriped> read_path_codes() {
  std::vector<NamedStriped> codes;
  for (auto kind : {BackendKind::PmMbr, BackendKind::Rs,
                    BackendKind::Replication}) {
    codes.push_back({backend_name(kind), make_backend(kind, 8, 3, 5)});
  }
  codes.push_back({"pm_msr", StripedCode(std::make_shared<PmMsrCode>(8, 3))});
  return codes;
}

std::vector<std::size_t> read_path_sizes(const StripedCode& code) {
  const std::size_t b = code.code().file_size();
  return {0, 1, b - 1, b, 1024, 16 * 1024 + 3, 64 * 1024};
}

/// Every (index, payload) list shape a repair or decode can see: exactly
/// enough inputs, more than enough in shuffled order, duplicates (a junk
/// payload after the genuine one), the target among its own helpers, a
/// wrong-length payload at the front or in the middle, and too few.  The
/// last list, led by a wrong-length payload, makes that length the one both
/// paths read, so its result is junk; the others recover the true value or
/// nothing.
std::vector<std::vector<IndexedBytes>> input_lists(
    const std::vector<Bytes>& payloads, std::size_t need, int target,
    Rng& rng) {
  std::vector<IndexedBytes> all;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (static_cast<int>(i) != target) {
      all.emplace_back(static_cast<int>(i), payloads[i]);
    }
  }
  std::shuffle(all.begin(), all.end(), rng.engine());
  const Bytes junk = rng.bytes(payloads[0].size());

  std::vector<std::vector<IndexedBytes>> lists;
  lists.emplace_back(all.begin(), all.begin() + static_cast<long>(need));
  lists.push_back(all);

  auto dups = all;
  dups.insert(dups.begin() + 1, all[0]);
  dups.emplace_back(all[1].first, junk);
  lists.push_back(dups);

  if (target >= 0) {
    auto with_self = all;
    with_self.insert(with_self.begin(),
                     {target, payloads[static_cast<std::size_t>(target)]});
    lists.push_back(with_self);
    // Target plus need-1 others: enough only for a code that reads the
    // target's own payload (repair-by-decoding).
    std::vector<IndexedBytes> self_short{
        {target, payloads[static_cast<std::size_t>(target)]}};
    self_short.insert(self_short.end(), all.begin(),
                      all.begin() + static_cast<long>(need - 1));
    lists.push_back(self_short);
  }

  auto wrong_mid = all;
  wrong_mid.insert(wrong_mid.begin() + 1,
                   {all[2].first, Bytes(payloads[0].size() + 1, 7)});
  lists.push_back(wrong_mid);

  lists.emplace_back(all.begin(), all.begin() + static_cast<long>(need - 1));
  lists.emplace_back(need, all[0]);

  auto wrong_front = all;
  wrong_front.insert(wrong_front.begin(),
                     {all[0].first, Bytes(payloads[0].size() + 1, 7)});
  lists.push_back(wrong_front);
  return lists;
}

TEST(StripedReadPaths, PlanarMatchesStripewiseEveryCodeIsaAndShape) {
  const gf::Isa best = gf::active_isa();
  const auto isas = gf::supported_isas();
  // One fresh set of codes per ISA, so every map is also probed under it.
  std::vector<std::vector<NamedStriped>> planar_codes;
  for (std::size_t i = 0; i < isas.size(); ++i) {
    planar_codes.push_back(read_path_codes());
  }
  const auto ref_codes = read_path_codes();
  Rng rng(41);
  for (std::size_t ci = 0; ci < ref_codes.size(); ++ci) {
    const StripedCode& ref = ref_codes[ci].code;
    for (const std::size_t size : read_path_sizes(ref)) {
      const std::string where =
          ref_codes[ci].name + " size=" + std::to_string(size);
      const Bytes value = rng.bytes(size);
      const auto elems = ref.encode_value(value);

      // Stripewise answers (the oracle), checked against the truth except
      // for the junk-producing last list.
      const auto elem_lists = input_lists(elems, ref.k(), -1, rng);
      std::vector<std::optional<Bytes>> decoded;
      for (std::size_t l = 0; l < elem_lists.size(); ++l) {
        decoded.push_back(ref.decode_value_stripewise(elem_lists[l]));
        if (decoded.back() && l + 1 < elem_lists.size()) {
          EXPECT_EQ(*decoded.back(), value) << where << " list=" << l;
        }
      }
      const std::vector<int> targets{0, 5};
      std::vector<std::vector<Bytes>> helps(targets.size());
      std::vector<std::vector<std::vector<IndexedBytes>>> help_lists;
      std::vector<std::vector<std::optional<Bytes>>> repaired(targets.size());
      for (std::size_t t = 0; t < targets.size(); ++t) {
        for (std::size_t h = 0; h < elems.size(); ++h) {
          helps[t].push_back(ref.helper_data_stripewise(
              static_cast<int>(h), elems[h], targets[t]));
        }
        help_lists.push_back(input_lists(helps[t], ref.d(), targets[t], rng));
        for (std::size_t l = 0; l < help_lists[t].size(); ++l) {
          repaired[t].push_back(
              ref.repair_element_stripewise(targets[t], help_lists[t][l]));
          if (repaired[t].back() && l + 1 < help_lists[t].size()) {
            EXPECT_EQ(*repaired[t].back(),
                      elems[static_cast<std::size_t>(targets[t])])
                << where << " target=" << targets[t] << " list=" << l;
          }
        }
      }

      for (std::size_t i = 0; i < isas.size(); ++i) {
        ASSERT_TRUE(gf::select_isa(isas[i]));
        const StripedCode& code = planar_codes[i][ci].code;
        const std::string at = where + " isa=" + gf::isa_name(isas[i]);
        for (std::size_t l = 0; l < elem_lists.size(); ++l) {
          EXPECT_EQ(code.decode_value(elem_lists[l]), decoded[l])
              << at << " list=" << l;
        }
        for (std::size_t t = 0; t < targets.size(); ++t) {
          for (std::size_t h = 0; h < elems.size(); ++h) {
            EXPECT_EQ(code.helper_data(static_cast<int>(h), elems[h],
                                       targets[t]),
                      helps[t][h])
                << at << " helper=" << h << " target=" << targets[t];
          }
          for (std::size_t l = 0; l < help_lists[t].size(); ++l) {
            EXPECT_EQ(code.repair_element(targets[t], help_lists[t][l]),
                      repaired[t][l])
                << at << " target=" << targets[t] << " list=" << l;
          }
        }
      }
      ASSERT_TRUE(gf::select_isa(best));
    }
  }
}

TEST(StripedReadPaths, EmptyAndMalformedInputsRejectedLikeStripewise) {
  StripedCode code = mbr(8, 4, 4);
  const auto elems = code.encode_value(Bytes(100, 3));
  const std::vector<IndexedBytes> none;
  EXPECT_FALSE(code.decode_value(none).has_value());
  EXPECT_FALSE(code.repair_element(0, none).has_value());
  // Element length not a multiple of alpha (4): both reject.
  std::vector<IndexedBytes> ragged;
  for (int i = 0; i < 4; ++i) ragged.emplace_back(i, Bytes(6, 1));
  EXPECT_EQ(code.decode_value(ragged), code.decode_value_stripewise(ragged));
  EXPECT_FALSE(code.decode_value(ragged).has_value());
  // Indices outside [0, n) are skipped by the selection, never cached.
  std::vector<IndexedBytes> out_of_range{{-1, elems[0]}, {8, elems[1]},
                                         {300, elems[2]}, {1, elems[1]},
                                         {2, elems[2]}, {3, elems[3]}};
  EXPECT_EQ(code.decode_value(out_of_range),
            code.decode_value_stripewise(out_of_range));
  EXPECT_FALSE(code.decode_value(out_of_range).has_value());
  out_of_range.emplace_back(0, elems[0]);
  EXPECT_EQ(code.decode_value(out_of_range), Bytes(100, 3));
  // An out-of-range helper or target index aborts in the wrapped code, on
  // both paths.
  std::vector<IndexedBytes> helpers;
  for (int h = 1; h <= 4; ++h) {
    helpers.emplace_back(
        h, code.helper_data(h, elems[static_cast<std::size_t>(h)], 0));
  }
  EXPECT_DEATH(code.helper_data(8, elems[0], 0), "helper index");
  EXPECT_DEATH(code.helper_data_stripewise(8, elems[0], 0), "helper index");
  EXPECT_DEATH(code.repair_element(8, helpers), "target index");
  EXPECT_DEATH(code.repair_element_stripewise(8, helpers), "target index");
}

/// A code that is linear except for a constant offset on the helper data
/// (undone again in repair): helper and repair must fail their probes and
/// keep the stripewise path, while encode and decode stay planar.
class OffsetHelperCode final : public RegeneratingCode {
 public:
  OffsetHelperCode() : inner_(8, 4, 4) {}
  std::size_t n() const override { return inner_.n(); }
  std::size_t k() const override { return inner_.k(); }
  std::size_t d() const override { return inner_.d(); }
  std::size_t alpha() const override { return inner_.alpha(); }
  std::size_t beta() const override { return inner_.beta(); }
  std::size_t file_size() const override { return inner_.file_size(); }
  std::vector<Bytes> encode(std::span<const std::uint8_t> s) const override {
    return inner_.encode(s);
  }
  std::optional<Bytes> decode(
      std::span<const IndexedBytes> elements) const override {
    return inner_.decode(elements);
  }
  Bytes helper_data(int h, std::span<const std::uint8_t> e,
                    int t) const override {
    Bytes out = inner_.helper_data(h, e, t);
    out[0] ^= 0x5a;
    return out;
  }
  std::optional<Bytes> repair(
      int t, std::span<const IndexedBytes> helpers) const override {
    std::vector<IndexedBytes> undone(helpers.begin(), helpers.end());
    for (auto& [i, p] : undone) {
      if (!p.empty()) p[0] ^= 0x5a;
    }
    return inner_.repair(t, undone);
  }

 private:
  PmMbrCode inner_;
};

TEST(StripedReadPaths, NonLinearFunctionsKeepTheStripewisePath) {
  StripedCode code(std::make_shared<OffsetHelperCode>());
  Rng rng(43);
  const Bytes value = rng.bytes(3000);
  const auto elems = code.encode_value(value);
  EXPECT_EQ(elems, code.encode_value_stripewise(value));
  std::vector<IndexedBytes> helpers;
  for (int h = 4; h < 8; ++h) {
    helpers.emplace_back(
        h, code.helper_data(h, elems[static_cast<std::size_t>(h)], 1));
    EXPECT_EQ(helpers.back().second,
              code.helper_data_stripewise(
                  h, elems[static_cast<std::size_t>(h)], 1));
  }
  const auto repaired = code.repair_element(1, helpers);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, elems[1]);
  std::vector<IndexedBytes> input{{1, *repaired}, {2, elems[2]},
                                  {3, elems[3]}, {6, elems[6]}};
  EXPECT_EQ(code.decode_value(input), value);
}

TEST(StripedReadPaths, ConcurrentCallersShareOneCache) {
  // Four threads race to build and use the same maps on one StripedCode
  // (and on a copy, which shares the cache); every result must match the
  // single-threaded stripewise answer.
  StripedCode code = mbr(8, 4, 4);
  const StripedCode copy = code;
  Rng rng(47);
  const Bytes value = rng.bytes(4096 + 5);
  const auto elems = code.encode_value(value);

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const StripedCode& c = (t % 2 == 0) ? code : copy;
      for (int round = 0; round < 20; ++round) {
        const int target = (t + round) % 8;
        std::vector<IndexedBytes> helpers;
        for (int j = 1; j < 8; ++j) {
          const int h = (target + j + round) % 8;
          if (h == target) continue;
          helpers.emplace_back(
              h, c.helper_data(h, elems[static_cast<std::size_t>(h)], target));
        }
        if (c.repair_element(target, helpers) !=
            elems[static_cast<std::size_t>(target)]) {
          ++mismatches;
        }
        std::vector<IndexedBytes> input;
        for (int j = 0; j < 4; ++j) {
          const int i = (target + 2 * j + round) % 8;
          input.emplace_back(i, elems[static_cast<std::size_t>(i)]);
        }
        if (c.decode_value(input) != c.decode_value_stripewise(input)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace lds::codes
