// E9: micro-benchmarks of the coding substrate - GF kernels, Reed-Solomon,
// product-matrix MBR/MSR encode / decode / helper / repair throughput.
//
// Two modes:
//   (default)        google-benchmark over the BM_* suites below.
//   --json <path>    snapshot mode: manually timed GB/s of the GF kernels by
//                    ISA x length, of encode_value by code x size x path
//                    (stripewise-scalar baseline, planar SIMD, planar +
//                    engine lanes), and of the read path (helper, repair,
//                    decode) for the deployed PM-MBR shape, planar vs
//                    stripewise, written as BENCH_gf256.json rows.  This is
//                    the perf-trajectory record for the SIMD gates.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "bench_util.h"
#include "codes/pm_mbr.h"
#include "codes/pm_msr.h"
#include "codes/rs.h"
#include "codes/striped.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "net/engine.h"

namespace {

using namespace lds;

void BM_GfAxpy(benchmark::State& state) {
  Rng rng(1);
  const Bytes x = rng.bytes(static_cast<std::size_t>(state.range(0)));
  Bytes y = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    gf::axpy(y, 0x53, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GfAxpy)->Arg(1024)->Arg(64 * 1024);

void BM_GfDot(benchmark::State& state) {
  Rng rng(2);
  const Bytes a = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const Bytes b = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::dot(a, b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GfDot)->Arg(1024)->Arg(64 * 1024);

void BM_RsEncode(benchmark::State& state) {
  const std::size_t n = 14, k = 10;
  codes::StripedCode code(std::make_shared<codes::RsRegenerating>(n, k));
  Rng rng(3);
  const Bytes value = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode_value(value));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RsEncode)->Arg(4096)->Arg(64 * 1024);

void BM_RsDecode(benchmark::State& state) {
  const std::size_t n = 14, k = 10;
  codes::StripedCode code(std::make_shared<codes::RsRegenerating>(n, k));
  Rng rng(4);
  const Bytes value = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const auto elems = code.encode_value(value);
  std::vector<codes::IndexedBytes> input;
  for (std::size_t i = 0; i < k; ++i) {
    input.emplace_back(static_cast<int>(i + 3), elems[i + 3]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode_value(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RsDecode)->Arg(4096)->Arg(64 * 1024);

void BM_PmMbrEncode(benchmark::State& state) {
  // The paper's back-end configuration shape: k = d (symmetric layers).
  const std::size_t n = 20, k = 8, d = 8;
  codes::StripedCode code(std::make_shared<codes::PmMbrCode>(n, k, d));
  Rng rng(5);
  const Bytes value = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode_value(value));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PmMbrEncode)->Arg(4096)->Arg(64 * 1024);

void BM_PmMbrDecode(benchmark::State& state) {
  const std::size_t n = 20, k = 8, d = 8;
  codes::StripedCode code(std::make_shared<codes::PmMbrCode>(n, k, d));
  Rng rng(6);
  const Bytes value = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const auto elems = code.encode_value(value);
  std::vector<codes::IndexedBytes> input;
  for (std::size_t i = 0; i < k; ++i) {
    input.emplace_back(static_cast<int>(i), elems[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode_value(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PmMbrDecode)->Arg(4096)->Arg(64 * 1024);

void BM_PmMbrHelper(benchmark::State& state) {
  const std::size_t n = 20, k = 8, d = 8;
  codes::StripedCode code(std::make_shared<codes::PmMbrCode>(n, k, d));
  Rng rng(7);
  const Bytes value = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const Bytes elem = code.encode_element(value, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.helper_data(12, elem, 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(elem.size()));
}
BENCHMARK(BM_PmMbrHelper)->Arg(4096)->Arg(64 * 1024);

void BM_PmMbrRepair(benchmark::State& state) {
  const std::size_t n = 20, k = 8, d = 8;
  codes::StripedCode code(std::make_shared<codes::PmMbrCode>(n, k, d));
  Rng rng(8);
  const Bytes value = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const auto elems = code.encode_value(value);
  std::vector<codes::IndexedBytes> helpers;
  for (std::size_t h = 1; h <= d; ++h) {
    helpers.emplace_back(static_cast<int>(h),
                         code.helper_data(static_cast<int>(h), elems[h], 0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.repair_element(0, helpers));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PmMbrRepair)->Arg(4096)->Arg(64 * 1024);

void BM_PmMsrEncode(benchmark::State& state) {
  const std::size_t n = 14, k = 5;  // d = 8
  codes::StripedCode code(std::make_shared<codes::PmMsrCode>(n, k));
  Rng rng(9);
  const Bytes value = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode_value(value));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PmMsrEncode)->Arg(4096)->Arg(64 * 1024);

void BM_PmMsrDecode(benchmark::State& state) {
  const std::size_t n = 14, k = 5;
  codes::StripedCode code(std::make_shared<codes::PmMsrCode>(n, k));
  Rng rng(10);
  const Bytes value = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const auto elems = code.encode_value(value);
  std::vector<codes::IndexedBytes> input;
  for (std::size_t i = 0; i < k; ++i) {
    input.emplace_back(static_cast<int>(i + 1), elems[i + 1]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode_value(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PmMsrDecode)->Arg(4096);

// ---- --json snapshot mode ---------------------------------------------------

/// Wall-clock GB/s of `op` (which processes `bytes` per call), timed over
/// enough repetitions to absorb clock granularity.
template <typename Op>
double measure_gbps(std::size_t bytes, Op&& op) {
  using clock = std::chrono::steady_clock;
  // Warm up (page in buffers, build lazy encode maps).
  op();
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) op();
    const double sec = std::chrono::duration<double>(clock::now() - t0).count();
    if (sec >= 0.05) {
      return static_cast<double>(bytes) * static_cast<double>(iters) / sec /
             1e9;
    }
    iters *= 4;
  }
}

int run_snapshot(int argc, char** argv) {
  bench::JsonReporter json(argc, argv, "codes_micro");
  const gf::Isa best = gf::active_isa();
  const std::size_t kKernelLens[] = {4096, 64 * 1024};

  // GF kernels by ISA and length.
  Rng rng(1);
  for (const std::size_t len : kKernelLens) {
    const Bytes x = rng.bytes(len);
    Bytes y = rng.bytes(len);
    Bytes z(len);
    double scalar_axpy = 0;
    for (const gf::Isa isa : gf::supported_isas()) {
      gf::select_isa(isa);
      const std::string p =
          std::string("isa=") + gf::isa_name(isa) + " len=" +
          std::to_string(len);
      const double axpy_gbps =
          measure_gbps(len, [&] { gf::axpy(y, 0x53, x); });
      const double mul_gbps =
          measure_gbps(len, [&] { gf::mul_into(z, 0x53, x); });
      const double dot_gbps = measure_gbps(len, [&] {
        benchmark::DoNotOptimize(gf::dot(x, z));
      });
      json.add(p, "axpy_gbps", axpy_gbps);
      json.add(p, "mul_into_gbps", mul_gbps);
      json.add(p, "dot_gbps", dot_gbps);
      std::printf("%-28s axpy %8.2f GB/s  mul_into %8.2f GB/s  dot %8.2f GB/s\n",
                  p.c_str(), axpy_gbps, mul_gbps, dot_gbps);
      if (isa == gf::Isa::Scalar) {
        scalar_axpy = axpy_gbps;
      } else if (scalar_axpy > 0) {
        json.add(p, "axpy_speedup_vs_scalar", axpy_gbps / scalar_axpy);
      }
    }
  }
  gf::select_isa(best);

  // encode_value by code x value size x path.  "stripewise_scalar" is the
  // pre-SIMD baseline (reference loop on scalar kernels); "planar" is the
  // production serial path on the best ISA; "planar_lanes" adds the engine
  // fan-out (4 lanes; wall-clock gain tracks physical cores).
  struct NamedCode {
    const char* name;
    codes::StripedCode code;
  };
  NamedCode codes[] = {
      {"rs_14_10",
       codes::StripedCode(std::make_shared<codes::RsRegenerating>(14, 10))},
      {"pm_mbr_20_8_8",
       codes::StripedCode(std::make_shared<codes::PmMbrCode>(20, 8, 8))},
      {"pm_msr_14_5",
       codes::StripedCode(std::make_shared<codes::PmMsrCode>(14, 5))},
  };
  net::ParallelEngine::Options popt;
  popt.lanes = 4;
  net::ParallelEngine engine(popt);
  engine.start();
  for (auto& nc : codes) {
    for (const std::size_t size :
         {std::size_t{4096}, std::size_t{64 * 1024}, std::size_t{1 << 20}}) {
      const Bytes value = rng.bytes(size);
      const std::string p =
          std::string("code=") + nc.name + " size=" + std::to_string(size);
      gf::select_isa(gf::Isa::Scalar);
      const double base = measure_gbps(size, [&] {
        benchmark::DoNotOptimize(nc.code.encode_value_stripewise(value));
      });
      gf::select_isa(best);
      const double planar = measure_gbps(size, [&] {
        benchmark::DoNotOptimize(nc.code.encode_value(value));
      });
      const double lanes = measure_gbps(size, [&] {
        benchmark::DoNotOptimize(nc.code.encode_value(value, &engine));
      });
      json.add(p, "encode_stripewise_scalar_gbps", base);
      json.add(p, "encode_planar_gbps", planar);
      json.add(p, "encode_planar_lanes_gbps", lanes);
      json.add(p, "encode_speedup_vs_scalar", planar / base);
      std::printf(
          "%-32s stripewise(scalar) %7.3f GB/s  planar %7.3f GB/s  "
          "+lanes %7.3f GB/s  speedup %5.1fx\n",
          p.c_str(), base, planar, lanes, planar / base);
    }
  }
  engine.stop();

  // Read path for the deployed back-end shape (n2 = 8, k = d = 4): helper
  // data, repair and decode of one value, planar maps vs the stripe-by-stripe
  // loop, both on the best ISA.  GB/s are per value byte.
  codes::StripedCode mbr(std::make_shared<codes::PmMbrCode>(8, 4, 4));
  for (const std::size_t size :
       {std::size_t{1024}, std::size_t{16 * 1024}, std::size_t{64 * 1024}}) {
    const Bytes value = rng.bytes(size);
    const auto elems = mbr.encode_value(value);
    std::vector<codes::IndexedBytes> helpers;
    for (int h = 1; h <= 4; ++h) {
      helpers.emplace_back(
          h, mbr.helper_data(h, elems[static_cast<std::size_t>(h)], 0));
    }
    std::vector<codes::IndexedBytes> input;
    for (int i = 4; i < 8; ++i) {
      input.emplace_back(i, elems[static_cast<std::size_t>(i)]);
    }
    const std::string p =
        "code=pm_mbr_8_4_4 size=" + std::to_string(size);
    auto row = [&](const char* fn, auto&& planar_op, auto&& stripewise_op) {
      const double planar = measure_gbps(size, planar_op);
      const double stripewise = measure_gbps(size, stripewise_op);
      const std::string f(fn);
      json.add(p, f + "_planar_gbps", planar);
      json.add(p, f + "_stripewise_gbps", stripewise);
      json.add(p, f + "_speedup_vs_stripewise", planar / stripewise);
      std::printf("%-32s %-7s stripewise %7.3f GB/s  planar %7.3f GB/s  "
                  "speedup %6.1fx\n",
                  p.c_str(), fn, stripewise, planar, planar / stripewise);
    };
    row("helper",
        [&] { benchmark::DoNotOptimize(mbr.helper_data(5, elems[5], 0)); },
        [&] {
          benchmark::DoNotOptimize(mbr.helper_data_stripewise(5, elems[5], 0));
        });
    row("repair",
        [&] { benchmark::DoNotOptimize(mbr.repair_element(0, helpers)); },
        [&] {
          benchmark::DoNotOptimize(mbr.repair_element_stripewise(0, helpers));
        });
    row("decode", [&] { benchmark::DoNotOptimize(mbr.decode_value(input)); },
        [&] {
          benchmark::DoNotOptimize(mbr.decode_value_stripewise(input));
        });
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return run_snapshot(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
