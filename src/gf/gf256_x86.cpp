// x86 GF(2^8) vector kernels: split-nibble shuffle-table multiply.
//
// Per-function target attributes let one translation unit carry both the
// SSSE3 (PSHUFB, 16 B/step) and AVX2 (VPSHUFB, 64 B/step, 2x unrolled)
// kernels without raising the global -m flags, so the binary still runs on
// machines without the extensions; detail::active_kernels() picks at
// runtime via CPUID (__builtin_cpu_supports).
//
// All kernels compute exactly  T_lo[x & 0xF] ^ T_hi[x >> 4]  from the same
// precomputed detail::Tables::nib rows the scalar fallback uses, so every
// path is bit-identical by construction; the tails shorter than one vector
// reuse the scalar loop.
#include "gf/gf256.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace lds::gf::detail {

namespace {

inline void axpy_tail(Elem* y, const Elem* t, const Elem* x, std::size_t i,
                      std::size_t len) {
  for (; i < len; ++i) {
    y[i] ^= static_cast<Elem>(t[x[i] & 0x0f] ^ t[16 + (x[i] >> 4)]);
  }
}

inline void mul_tail(Elem* z, const Elem* t, const Elem* x, std::size_t i,
                     std::size_t len) {
  for (; i < len; ++i) {
    z[i] = static_cast<Elem>(t[x[i] & 0x0f] ^ t[16 + (x[i] >> 4)]);
  }
}

// ---- SSSE3 ------------------------------------------------------------------

__attribute__((target("ssse3"))) inline __m128i
mul16(__m128i v, __m128i lo, __m128i hi, __m128i mask) {
  const __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(v, mask));
  const __m128i h =
      _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), mask));
  return _mm_xor_si128(l, h);
}

__attribute__((target("ssse3"))) void axpy_ssse3(Elem* y, Elem a,
                                                 const Elem* x,
                                                 std::size_t len) {
  const Elem* t = tables().nib[a];
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m128i p = mul16(v, lo, hi, mask);
    __m128i* yp = reinterpret_cast<__m128i*>(y + i);
    _mm_storeu_si128(yp, _mm_xor_si128(_mm_loadu_si128(yp), p));
  }
  axpy_tail(y, t, x, i, len);
}

__attribute__((target("ssse3"))) void mul_into_ssse3(Elem* z, Elem a,
                                                     const Elem* x,
                                                     std::size_t len) {
  const Elem* t = tables().nib[a];
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(z + i),
                     mul16(v, lo, hi, mask));
  }
  mul_tail(z, t, x, i, len);
}

__attribute__((target("ssse3"))) Elem dot_ssse3(const Elem* a, const Elem* b,
                                                std::size_t len) {
  // Unlike axpy/mul_into there is no single multiplier, so shuffle tables do
  // not apply; multiply 16 byte-pairs at once with the bitsliced schoolbook
  // instead (accumulate b·x^j for each set bit j of a, reducing by the field
  // polynomial), and XOR-fold the lanes at the end.
  const auto& t = tables();
  Elem acc = 0;
  std::size_t i = 0;
  if (len >= 16) {
    const __m128i one = _mm_set1_epi8(1);
    const __m128i top = _mm_set1_epi8(static_cast<char>(0x80));
    const __m128i poly = _mm_set1_epi8(0x1D);  // 0x11D mod x^8
    const __m128i low7 = _mm_set1_epi8(0x7f);
    __m128i vacc = _mm_setzero_si128();
    for (; i + 16 <= len; i += 16) {
      __m128i pa = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      __m128i pb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
      __m128i prod = _mm_setzero_si128();
      for (int bit = 0; bit < 8; ++bit) {
        const __m128i sel = _mm_cmpeq_epi8(_mm_and_si128(pa, one), one);
        prod = _mm_xor_si128(prod, _mm_and_si128(sel, pb));
        const __m128i carry = _mm_cmpeq_epi8(_mm_and_si128(pb, top), top);
        pb = _mm_add_epi8(pb, pb);  // per-byte shift left by 1
        pb = _mm_xor_si128(pb, _mm_and_si128(carry, poly));
        pa = _mm_and_si128(_mm_srli_epi64(pa, 1), low7);
      }
      vacc = _mm_xor_si128(vacc, prod);
    }
    alignas(16) Elem lanes[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vacc);
    for (Elem l : lanes) acc ^= l;
  }
  for (; i < len; ++i) {
    if (a[i] != 0 && b[i] != 0) acc ^= t.exp[t.log[a[i]] + t.log[b[i]]];
  }
  return acc;
}

// ---- AVX2 -------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i
mul32(__m256i v, __m256i lo, __m256i hi, __m256i mask) {
  const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
  const __m256i h =
      _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
  return _mm256_xor_si256(l, h);
}

__attribute__((target("avx2"))) void axpy_avx2(Elem* y, Elem a, const Elem* x,
                                               std::size_t len) {
  const Elem* t = tables().nib[a];
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 32));
    __m256i* y0 = reinterpret_cast<__m256i*>(y + i);
    __m256i* y1 = reinterpret_cast<__m256i*>(y + i + 32);
    _mm256_storeu_si256(
        y0, _mm256_xor_si256(_mm256_loadu_si256(y0), mul32(v0, lo, hi, mask)));
    _mm256_storeu_si256(
        y1, _mm256_xor_si256(_mm256_loadu_si256(y1), mul32(v1, lo, hi, mask)));
  }
  for (; i + 32 <= len; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    __m256i* yp = reinterpret_cast<__m256i*>(y + i);
    _mm256_storeu_si256(
        yp, _mm256_xor_si256(_mm256_loadu_si256(yp), mul32(v, lo, hi, mask)));
  }
  axpy_tail(y, t, x, i, len);
}

__attribute__((target("avx2"))) void mul_into_avx2(Elem* z, Elem a,
                                                   const Elem* x,
                                                   std::size_t len) {
  const Elem* t = tables().nib[a];
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(z + i),
                        mul32(v, lo, hi, mask));
  }
  mul_tail(z, t, x, i, len);
}

Elem dot_avx2(const Elem* a, const Elem* b, std::size_t len) {
  // dot runs only in StripedCode map probes and the stripewise reference
  // paths, never on a planar sweep; reuse the SSSE3 kernel.
  return dot_ssse3(a, b, len);
}

constexpr Kernels kSsse3Kernels{Isa::Ssse3, axpy_ssse3, mul_into_ssse3,
                                dot_ssse3};
constexpr Kernels kAvx2Kernels{Isa::Avx2, axpy_avx2, mul_into_avx2, dot_avx2};

}  // namespace

const Kernels* ssse3_kernels() {
  return __builtin_cpu_supports("ssse3") ? &kSsse3Kernels : nullptr;
}

const Kernels* avx2_kernels() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : nullptr;
}

const Kernels* neon_kernels() { return nullptr; }

}  // namespace lds::gf::detail

#endif  // x86
