// AVX2+FMA kernel table (see kernels.h for the dispatch contract).
// Built with per-function target attributes so the translation unit
// compiles under the project's portable flags; every function here is
// only ever called after Avx2Available() said yes.

#include "linalg/kernels.h"

#include "util/check.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

namespace ips {
namespace kernels {
namespace {

#define IPS_AVX2 __attribute__((target("avx2,fma")))

// (lane0 + lane2) + (lane1 + lane3); FMA contraction already separates
// this path from the scalar one by rounding, so the exact reduction
// tree is free to be the cheapest one.
IPS_AVX2 inline double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

IPS_AVX2 double DotAvx2(const double* x, const double* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                           _mm256_loadu_pd(y + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8),
                           _mm256_loadu_pd(y + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 12),
                           _mm256_loadu_pd(y + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                           _mm256_loadu_pd(y + i), acc0);
  }
  double total = HorizontalSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) total += x[i] * y[i];
  return total;
}

IPS_AVX2 void MatVecAvx2(const double* data, std::size_t rows,
                         std::size_t cols, const double* q, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = DotAvx2(data + r * cols, q, cols);
  }
}

// The register-blocked heart of the tiled scorer: two data rows against
// four queries. Each 4-wide column step loads the two row vectors once
// and reuses them across all four queries (6 loads feeding 8 FMAs),
// which is what lifts the batch path past the per-query memory wall.
IPS_AVX2 void Score2x4(const double* row0, const double* row1,
                       const double* q0, const double* q1, const double* q2,
                       const double* q3, std::size_t cols, double* out0,
                       double* out1) {
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a02 = _mm256_setzero_pd(), a03 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a12 = _mm256_setzero_pd(), a13 = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    const __m256d va = _mm256_loadu_pd(row0 + j);
    const __m256d vb = _mm256_loadu_pd(row1 + j);
    __m256d vq = _mm256_loadu_pd(q0 + j);
    a00 = _mm256_fmadd_pd(va, vq, a00);
    a10 = _mm256_fmadd_pd(vb, vq, a10);
    vq = _mm256_loadu_pd(q1 + j);
    a01 = _mm256_fmadd_pd(va, vq, a01);
    a11 = _mm256_fmadd_pd(vb, vq, a11);
    vq = _mm256_loadu_pd(q2 + j);
    a02 = _mm256_fmadd_pd(va, vq, a02);
    a12 = _mm256_fmadd_pd(vb, vq, a12);
    vq = _mm256_loadu_pd(q3 + j);
    a03 = _mm256_fmadd_pd(va, vq, a03);
    a13 = _mm256_fmadd_pd(vb, vq, a13);
  }
  double s00 = HorizontalSum(a00), s01 = HorizontalSum(a01);
  double s02 = HorizontalSum(a02), s03 = HorizontalSum(a03);
  double s10 = HorizontalSum(a10), s11 = HorizontalSum(a11);
  double s12 = HorizontalSum(a12), s13 = HorizontalSum(a13);
  for (; j < cols; ++j) {
    const double va = row0[j], vb = row1[j];
    s00 += va * q0[j];
    s01 += va * q1[j];
    s02 += va * q2[j];
    s03 += va * q3[j];
    s10 += vb * q0[j];
    s11 += vb * q1[j];
    s12 += vb * q2[j];
    s13 += vb * q3[j];
  }
  out0[0] = s00;
  out0[1] = s01;
  out0[2] = s02;
  out0[3] = s03;
  out1[0] = s10;
  out1[1] = s11;
  out1[2] = s12;
  out1[3] = s13;
}

IPS_AVX2 void ScoreBlockAvx2(const double* data, std::size_t rows,
                             std::size_t cols, const double* queries,
                             std::size_t num_q, std::size_t q_stride,
                             double* out, std::size_t out_stride) {
  std::size_t qi = 0;
  for (; qi + 4 <= num_q; qi += 4) {
    const double* q0 = queries + qi * q_stride;
    const double* q1 = q0 + q_stride;
    const double* q2 = q1 + q_stride;
    const double* q3 = q2 + q_stride;
    std::size_t r = 0;
    for (; r + 2 <= rows; r += 2) {
      double s0[4], s1[4];
      Score2x4(data + r * cols, data + (r + 1) * cols, q0, q1, q2, q3,
               cols, s0, s1);
      for (std::size_t t = 0; t < 4; ++t) {
        out[(qi + t) * out_stride + r] = s0[t];
        out[(qi + t) * out_stride + r + 1] = s1[t];
      }
    }
    if (r < rows) {
      const double* row = data + r * cols;
      out[qi * out_stride + r] = DotAvx2(row, q0, cols);
      out[(qi + 1) * out_stride + r] = DotAvx2(row, q1, cols);
      out[(qi + 2) * out_stride + r] = DotAvx2(row, q2, cols);
      out[(qi + 3) * out_stride + r] = DotAvx2(row, q3, cols);
    }
  }
  for (; qi < num_q; ++qi) {
    const double* q = queries + qi * q_stride;
    double* row_out = out + qi * out_stride;
    for (std::size_t r = 0; r < rows; ++r) {
      row_out[r] = DotAvx2(data + r * cols, q, cols);
    }
  }
}

// int8 fixed-point dot via the maddubs pipeline. maddubs wants one
// unsigned and one signed operand, so rewrite
//   sum x_i * y_i  =  sum |x_i| * (sign(x_i) * y_i)
// with abs_epi8 / sign_epi8. With codes clamped to [-127, 127] (the
// KernelOps contract) the i8 negation in sign_epi8 cannot overflow and
// each i16 pair sum is at most 2 * 127 * 127 = 32258 < 32767, so the
// pipeline is exact — scalar and AVX2 agree bitwise.
IPS_AVX2 inline std::int32_t HorizontalSumI32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i sum = _mm_add_epi32(lo, hi);
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(sum);
}

IPS_AVX2 std::int32_t DotI8Avx2(const std::int8_t* x, const std::int8_t* y,
                                std::size_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i vx0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + i));
    const __m256i vx1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + i + 32));
    const __m256i vy1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + i + 32));
    const __m256i p0 = _mm256_maddubs_epi16(_mm256_abs_epi8(vx0),
                                            _mm256_sign_epi8(vy0, vx0));
    const __m256i p1 = _mm256_maddubs_epi16(_mm256_abs_epi8(vx1),
                                            _mm256_sign_epi8(vy1, vx1));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(p0, ones));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(p1, ones));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i vx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(y + i));
    const __m256i p = _mm256_maddubs_epi16(_mm256_abs_epi8(vx),
                                           _mm256_sign_epi8(vy, vx));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(p, ones));
  }
  std::int32_t total = HorizontalSumI32(_mm256_add_epi32(acc0, acc1));
  for (; i < n; ++i) {
    total += static_cast<std::int32_t>(x[i]) * y[i];
  }
  return total;
}

// One 32-byte column chunk of a code row against a query chunk: eight
// int32 partial sums. The query is the maddubs unsigned operand: its
// |q| is computed once per chunk and shared by the eight rows of a
// tile, and sign_epi8 moves q's signs onto the row codes.
IPS_AVX2 inline __m256i RowChunkI8(const std::int8_t* row, __m256i abs_q,
                                   __m256i q, __m256i ones) {
  const __m256i vr =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
  const __m256i pairs = _mm256_maddubs_epi16(abs_q, _mm256_sign_epi8(vr, q));
  return _mm256_madd_epi16(pairs, ones);
}

// Eight row accumulators -> one ymm whose lane r is row r's total.
IPS_AVX2 inline __m256i ReduceRows8(__m256i a0, __m256i a1, __m256i a2,
                                    __m256i a3, __m256i a4, __m256i a5,
                                    __m256i a6, __m256i a7) {
  const __m256i h0123 = _mm256_hadd_epi32(_mm256_hadd_epi32(a0, a1),
                                          _mm256_hadd_epi32(a2, a3));
  const __m256i h4567 = _mm256_hadd_epi32(_mm256_hadd_epi32(a4, a5),
                                          _mm256_hadd_epi32(a6, a7));
  // Low 128-bit lanes hold columns 0-3 of each row's accumulator, high
  // lanes columns 4-7; pair them up across the two halves.
  return _mm256_add_epi32(_mm256_permute2x128_si256(h0123, h4567, 0x20),
                          _mm256_permute2x128_si256(h0123, h4567, 0x31));
}

// The register-blocked int8 tile: eight code rows against one query,
// out[r] = dot_i8(tile row r, q), for cols >= 32. Eight accumulators,
// the query chunk, its |q| and the ones vector stay in registers; the
// rows come from L1 once the first query of the group has pulled the
// tile in. The ALU ports, not the loads, bound this loop (sign, maddubs
// and madd per row chunk), so each query re-reads the tile from L1
// rather than trading registers for a wider query block.
IPS_AVX2 inline void Score8RowsI8(const std::int8_t* tile,
                                  std::size_t cols, const std::int8_t* q,
                                  std::int32_t* out) {
  const __m256i ones = _mm256_set1_epi16(1);
  // The first chunk initializes the accumulators (no adds into zeros).
  __m256i vq = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q));
  __m256i aq = _mm256_abs_epi8(vq);
  __m256i a0 = RowChunkI8(tile, aq, vq, ones);
  __m256i a1 = RowChunkI8(tile + cols, aq, vq, ones);
  __m256i a2 = RowChunkI8(tile + 2 * cols, aq, vq, ones);
  __m256i a3 = RowChunkI8(tile + 3 * cols, aq, vq, ones);
  __m256i a4 = RowChunkI8(tile + 4 * cols, aq, vq, ones);
  __m256i a5 = RowChunkI8(tile + 5 * cols, aq, vq, ones);
  __m256i a6 = RowChunkI8(tile + 6 * cols, aq, vq, ones);
  __m256i a7 = RowChunkI8(tile + 7 * cols, aq, vq, ones);
  std::size_t j = 32;
  for (; j + 32 <= cols; j += 32) {
    vq = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + j));
    aq = _mm256_abs_epi8(vq);
    const std::int8_t* row = tile + j;
    a0 = _mm256_add_epi32(a0, RowChunkI8(row, aq, vq, ones));
    a1 = _mm256_add_epi32(a1, RowChunkI8(row + cols, aq, vq, ones));
    a2 = _mm256_add_epi32(a2, RowChunkI8(row + 2 * cols, aq, vq, ones));
    a3 = _mm256_add_epi32(a3, RowChunkI8(row + 3 * cols, aq, vq, ones));
    a4 = _mm256_add_epi32(a4, RowChunkI8(row + 4 * cols, aq, vq, ones));
    a5 = _mm256_add_epi32(a5, RowChunkI8(row + 5 * cols, aq, vq, ones));
    a6 = _mm256_add_epi32(a6, RowChunkI8(row + 6 * cols, aq, vq, ones));
    a7 = _mm256_add_epi32(a7, RowChunkI8(row + 7 * cols, aq, vq, ones));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      ReduceRows8(a0, a1, a2, a3, a4, a5, a6, a7));
  for (; j < cols; ++j) {
    const std::int32_t qj = q[j];
    for (std::size_t r = 0; r < 8; ++r) out[r] += qj * tile[r * cols + j];
  }
}

IPS_AVX2 void ScoreBlockI8Avx2(const std::int8_t* codes, std::size_t rows,
                               std::size_t cols, const std::int8_t* queries,
                               std::size_t num_q, std::int32_t* out,
                               std::size_t out_stride) {
  // Rows narrower than one 32-byte chunk have no tile body, and the
  // rows past the last full tile go row by row.
  const std::size_t tiled = cols >= 32 ? rows - rows % 8 : 0;
  for (std::size_t qi = 0; qi < num_q; ++qi) {
    const std::int8_t* q = queries + qi * cols;
    std::int32_t* q_out = out + qi * out_stride;
    for (std::size_t r = 0; r < tiled; r += 8) {
      Score8RowsI8(codes + r * cols, cols, q, q_out + r);
    }
    for (std::size_t r = tiled; r < rows; ++r) {
      q_out[r] = DotI8Avx2(codes + r * cols, q, cols);
    }
  }
}

#undef IPS_AVX2

}  // namespace

const KernelOps& Avx2Ops() {
  IPS_CHECK(Avx2Available())
      << "Avx2Ops() requested on a CPU without AVX2+FMA";
  static const KernelOps ops = {"avx2",          &DotAvx2,
                                &MatVecAvx2,     &ScoreBlockAvx2,
                                &DotI8Avx2,      &ScoreBlockI8Avx2};
  return ops;
}

}  // namespace kernels
}  // namespace ips

#else  // non-x86: the AVX2 table must not be reachable.

namespace ips {
namespace kernels {

const KernelOps& Avx2Ops() {
  IPS_CHECK(false) << "Avx2Ops() is unavailable on this architecture";
  return ScalarOps();  // unreachable
}

}  // namespace kernels
}  // namespace ips

#endif
