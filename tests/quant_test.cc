// Tests for the quantized two-stage scoring stack (DESIGN.md §13):
// bitwise scalar/AVX2 parity of the int8 kernels (the integer contract
// of kernels.h — EXPECT_EQ, no tolerance), the QuantizedMatrix /
// QuantizeVector code contract, the rigorous ErrorBound (which is what
// makes the LSH bucket-join prefilter lossless), quantized-rerank
// top-k against exact ground truth, the filter recall sweep over
// survivor oversampling, the precision support matrix of all four
// indexes, and the two-stage accounting fields.
//
// The CI quant leg runs this same binary twice: once dispatched and
// once under IPS_FORCE_SCALAR=1 (quant_test_scalar in
// tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/query.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/quantized.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "sketch/filter.h"

namespace ips {
namespace {

// Tail coverage for the AVX2 int8 kernel: the 32-wide main loop plus
// every remainder class.
constexpr std::size_t kCodeSizes[] = {1, 2, 3, 7, 8, 15, 16, 17, 31,
                                      32, 33, 63, 64, 65, 100, 128, 257};

std::vector<std::int8_t> RandomCodes(std::size_t n, Rng* rng) {
  std::vector<std::int8_t> codes(n);
  for (auto& c : codes) {
    c = static_cast<std::int8_t>(
        static_cast<int>(rng->NextUint64() % 255) - 127);
  }
  return codes;
}

// int64 reference: exact for any code vectors, so it checks both
// implementations' int32 accumulation under the [-127, 127] contract.
std::int64_t ReferenceDotI8(const std::vector<std::int8_t>& x,
                            const std::vector<std::int8_t>& y) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<std::int64_t>(x[i]) * static_cast<std::int64_t>(y[i]);
  }
  return acc;
}

TEST(QuantKernelTest, ScalarMatchesReferenceExactly) {
  Rng rng(11);
  for (std::size_t n : kCodeSizes) {
    for (int rep = 0; rep < 4; ++rep) {
      const auto x = RandomCodes(n, &rng);
      const auto y = RandomCodes(n, &rng);
      EXPECT_EQ(kernels::ScalarOps().dot_i8(x.data(), y.data(), n),
                ReferenceDotI8(x, y));
    }
  }
}

TEST(QuantKernelTest, Avx2MatchesScalarBitwise) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(12);
  for (std::size_t n : kCodeSizes) {
    for (int rep = 0; rep < 8; ++rep) {
      const auto x = RandomCodes(n, &rng);
      const auto y = RandomCodes(n, &rng);
      // Integer kernels are bitwise identical across implementations —
      // no tolerance, unlike the double kernels.
      EXPECT_EQ(kernels::Avx2Ops().dot_i8(x.data(), y.data(), n),
                kernels::ScalarOps().dot_i8(x.data(), y.data(), n))
          << "n=" << n;
    }
  }
}

TEST(QuantKernelTest, ExtremeCodesDoNotSaturate) {
  // All-(-127) x all-(+127) over the largest supported length is the
  // worst case of the i16 pair-sum pipeline: 2^17 * 127^2 < 2^31.
  const std::size_t n = std::size_t{1} << 17;
  std::vector<std::int8_t> x(n, -127);
  std::vector<std::int8_t> y(n, 127);
  const std::int64_t expected = -static_cast<std::int64_t>(n) * 127 * 127;
  EXPECT_EQ(kernels::ScalarOps().dot_i8(x.data(), y.data(), n), expected);
  if (kernels::Avx2Available()) {
    EXPECT_EQ(kernels::Avx2Ops().dot_i8(x.data(), y.data(), n), expected);
  }
  // Mixed extremes: alternate signs so the maddubs pair sums straddle
  // the positive and negative i16 extremes.
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = (i % 2 == 0) ? 127 : -127;
    y[i] = 127;
  }
  const std::int64_t ref = ReferenceDotI8(x, y);
  EXPECT_EQ(kernels::ScalarOps().dot_i8(x.data(), y.data(), n), ref);
  if (kernels::Avx2Available()) {
    EXPECT_EQ(kernels::Avx2Ops().dot_i8(x.data(), y.data(), n), ref);
  }
}

// Tile coverage for score_block_i8: column counts around the 32-byte
// chunk of the eight-row tile (vector body plus tail), row counts on
// and off multiples of the 8-row tile and the 32-row scale block, and
// groups of one to thirteen queries.
constexpr std::size_t kTileCols[] = {1, 12, 31, 32, 33, 64, 100, 129};
constexpr std::size_t kTileRows[] = {1, 7, 8, 13, 32, 37, 45, 70};
constexpr std::size_t kTileQueries[] = {1, 3, 8, 13};

// Codes drawn from {-127, 127} only: the largest i16 pair sums the
// maddubs pipeline can meet.
std::vector<std::int8_t> ExtremeCodes(std::size_t n, Rng* rng) {
  std::vector<std::int8_t> codes(n);
  for (auto& c : codes) {
    c = static_cast<std::int8_t>(rng->NextUint64() % 2 == 0 ? 127 : -127);
  }
  return codes;
}

// Runs `ops`' tile scorer with a padded output stride and checks every
// entry against the scalar row-wise dot_i8, and that the output padding
// is left untouched.
void ExpectTileMatchesRowwiseDot(const kernels::KernelOps& ops,
                                 const std::vector<std::int8_t>& codes,
                                 std::size_t rows, std::size_t cols,
                                 const std::vector<std::int8_t>& queries) {
  constexpr std::int32_t kSentinel = 0x5a5a5a5a;
  const std::size_t num_q = queries.size() / cols;
  const std::size_t out_stride = rows + 5;
  std::vector<std::int32_t> out(num_q * out_stride, kSentinel);
  ops.score_block_i8(codes.data(), rows, cols, queries.data(), num_q,
                     out.data(), out_stride);
  for (std::size_t qi = 0; qi < num_q; ++qi) {
    for (std::size_t r = 0; r < out_stride; ++r) {
      const std::int32_t got = out[qi * out_stride + r];
      if (r >= rows) {
        EXPECT_EQ(got, kSentinel) << ops.name << " wrote past row " << rows;
        continue;
      }
      const std::int32_t want = kernels::ScalarOps().dot_i8(
          codes.data() + r * cols, queries.data() + qi * cols, cols);
      EXPECT_EQ(got, want) << ops.name << " cols=" << cols
                           << " rows=" << rows << " num_q=" << num_q
                           << " qi=" << qi << " r=" << r;
    }
  }
}

TEST(QuantKernelTest, ScoreBlockI8MatchesRowwiseDotOnEveryShape) {
  Rng rng(13);
  for (const bool extreme : {false, true}) {
    for (std::size_t cols : kTileCols) {
      for (std::size_t rows : kTileRows) {
        for (std::size_t num_q : kTileQueries) {
          const auto codes = extreme ? ExtremeCodes(rows * cols, &rng)
                                     : RandomCodes(rows * cols, &rng);
          const auto queries = extreme ? ExtremeCodes(num_q * cols, &rng)
                                       : RandomCodes(num_q * cols, &rng);
          ExpectTileMatchesRowwiseDot(kernels::ScalarOps(), codes, rows, cols,
                                      queries);
          if (kernels::Avx2Available()) {
            ExpectTileMatchesRowwiseDot(kernels::Avx2Ops(), codes, rows,
                                        cols, queries);
          }
        }
      }
    }
  }
}

TEST(QuantKernelTest, ScoreBlockI8ExtremeCodesAtFullTile) {
  // Every product at the pair-sum extreme, same and opposite signs, on
  // two full eight-row tiles: a saturating maddubs, a wrong hadd lane
  // order or a missing sign correction shows up here. Row r is all +127 or all -127 by parity of r; query
  // qi is all +127 or all -127 by parity of qi / 2.
  const std::size_t rows = 16;
  const std::size_t cols = 128;
  std::vector<std::int8_t> codes(rows * cols, 127);
  for (std::size_t r = 1; r < rows; r += 2) {
    std::fill_n(codes.begin() + r * cols, cols, std::int8_t{-127});
  }
  for (const std::size_t num_q : {std::size_t{1}, std::size_t{9}}) {
    std::vector<std::int8_t> queries(num_q * cols, 127);
    for (std::size_t qi = 0; qi < num_q; ++qi) {
      if ((qi / 2) % 2 == 1) {
        std::fill_n(queries.begin() + qi * cols, cols, std::int8_t{-127});
      }
    }
    std::vector<std::int32_t> out(num_q * rows);
    for (const kernels::KernelOps* ops :
         {&kernels::ScalarOps(),
          kernels::Avx2Available() ? &kernels::Avx2Ops() : nullptr}) {
      if (ops == nullptr) continue;
      ops->score_block_i8(codes.data(), rows, cols, queries.data(), num_q,
                          out.data(), rows);
      for (std::size_t qi = 0; qi < num_q; ++qi) {
        for (std::size_t r = 0; r < rows; ++r) {
          const int row_sign = r % 2 == 0 ? 1 : -1;
          const int query_sign = (qi / 2) % 2 == 0 ? 1 : -1;
          EXPECT_EQ(out[qi * rows + r],
                    row_sign * query_sign * 127 * 127 * static_cast<int>(cols))
              << ops->name << " query " << qi << " row " << r;
        }
      }
    }
  }
}

TEST(QuantKernelTest, DispatchHonorsForceScalar) {
  const char* forced = std::getenv("IPS_FORCE_SCALAR");
  const bool force = forced != nullptr && std::string_view(forced) != "0" &&
                     std::string_view(forced) != "";
  if (force || !kernels::Avx2Available()) {
    EXPECT_STREQ(kernels::ActiveOps().name, "scalar");
  } else {
    EXPECT_STREQ(kernels::ActiveOps().name, "avx2");
  }
}

// ---------------------------------------------------------------------
// QuantizedMatrix / QuantizeVector contract.
// ---------------------------------------------------------------------

TEST(QuantizedMatrixTest, CodesStayInContractRange) {
  Rng rng(21);
  // Latent-factor data has the norm spread that stresses per-block
  // scales: popular rows are orders of magnitude larger than the tail.
  const Matrix data = MakeLatentFactorVectors(257, 19, 1.0, &rng);
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  ASSERT_EQ(qdata.rows(), data.rows());
  ASSERT_EQ(qdata.cols(), data.cols());
  for (std::size_t r = 0; r < qdata.rows(); ++r) {
    double l1 = 0.0;
    for (std::size_t j = 0; j < qdata.cols(); ++j) {
      const int code = qdata.RowCodes(r)[j];
      EXPECT_GE(code, -127);
      EXPECT_LE(code, 127);
      l1 += std::abs(code);
    }
    EXPECT_EQ(qdata.RowCodeL1(r), l1);
    EXPECT_GE(qdata.RowScale(r), 0.0);
  }
}

TEST(QuantizedMatrixTest, ZeroVectorQuantizesToExactZero) {
  const std::vector<double> zeros(16, 0.0);
  const QuantizedVector q = QuantizeVector(zeros);
  EXPECT_EQ(q.scale, 0.0);
  EXPECT_EQ(q.code_l1, 0.0);
  for (const auto code : q.codes) EXPECT_EQ(code, 0);
}

TEST(QuantizedMatrixTest, QuantizeVectorHitsFullCodeRange) {
  // The max-|entry| coordinate must map to ±127 exactly (symmetric
  // quantization wastes no range).
  const std::vector<double> x = {0.5, -2.0, 1.0, 0.0};
  const QuantizedVector q = QuantizeVector(x);
  EXPECT_EQ(q.codes[1], -127);
  EXPECT_NEAR(q.scale, 2.0 / 127.0, 1e-15);
}

TEST(QuantizedMatrixTest, ErrorBoundIsRigorous) {
  Rng rng(22);
  // Both workload shapes: tight norms and the skewed latent-factor
  // spread. The bound certifying |exact - est| <= ErrorBound is exactly
  // the property the LSH bucket-join prefilter relies on for
  // losslessness, so this test is its correctness certificate.
  for (const Matrix& data :
       {MakeUnitBallGaussian(200, 23, 0.3, &rng),
        MakeLatentFactorVectors(200, 23, 1.2, &rng)}) {
    const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<double> query(data.cols());
      for (double& v : query) v = rng.NextGaussian() * 3.0;
      const QuantizedVector qq = QuantizeVector(query);
      std::vector<double> est(data.rows());
      qdata.EstimateAll(qq, est);
      for (std::size_t r = 0; r < data.rows(); ++r) {
        const double exact = kernels::Dot(data.Row(r), query);
        const double bound = qdata.ErrorBound(r, qq);
        EXPECT_LE(std::abs(exact - est[r]), bound + 1e-12)
            << "row " << r << " rep " << rep;
      }
    }
  }
}

TEST(QuantizedMatrixTest, EstimateGatheredMatchesEstimateAll) {
  Rng rng(23);
  const Matrix data = MakeUnitBallGaussian(97, 17, 0.3, &rng);
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  std::vector<double> query(data.cols());
  for (double& v : query) v = rng.NextGaussian();
  const QuantizedVector qq = QuantizeVector(query);
  std::vector<double> all(data.rows());
  qdata.EstimateAll(qq, all);
  const std::vector<std::size_t> picks = {0, 5, 31, 32, 33, 96};
  std::vector<double> gathered(picks.size());
  qdata.EstimateGathered(qq, picks, gathered);
  for (std::size_t j = 0; j < picks.size(); ++j) {
    EXPECT_EQ(gathered[j], all[picks[j]]);
  }
}

// A 150-row dataset built to stress the fused selection: every row is
// one base vector plus small noise, and every nonzero block carries a
// +-3 entry that pins its scale, so estimates crowd together across
// blocks and many blocks' best estimates land just above a heap floor.
// Odd rows duplicate their even neighbour (tied estimates inside one
// block), rows 32-63 are all zero (scale 0), and the last block is
// partial.
Matrix SelectionStressData(Rng* rng) {
  Matrix data(150, 24);
  std::vector<double> base(data.cols());
  for (double& v : base) v = rng->NextGaussian();
  for (std::size_t r = 0; r < data.rows(); ++r) {
    if (r >= 32 && r < 64) continue;  // zero block
    if (r % 2 == 1) {
      std::copy(data.Row(r - 1).begin(), data.Row(r - 1).end(),
                data.Row(r).begin());
      continue;
    }
    for (std::size_t j = 0; j + 1 < data.cols(); ++j) {
      data.At(r, j) = std::clamp(base[j] + 0.05 * rng->NextGaussian(),
                                 -2.5, 2.5);
    }
    data.At(r, data.cols() - 1) = (r / 2) % 2 == 0 ? 3.0 : -3.0;
  }
  return data;
}

// SelectTopEstimates over the whole group against, per query, the
// unfused reference TopEstimateIndices(EstimateAll(...)), signed and
// unsigned, for survivor counts from 1 to past n.
void ExpectSelectionMatchesEstimateAll(
    const Matrix& data, const std::vector<QuantizedVector>& queries) {
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  for (const bool absolute : {false, true}) {
    for (const std::size_t m :
         {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{40},
          data.rows() - 1, data.rows(), data.rows() + 50}) {
      std::vector<kernels::TopKHeap> heaps(queries.size(),
                                           kernels::TopKHeap(m));
      qdata.SelectTopEstimates(queries, absolute, heaps);
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        SCOPED_TRACE("absolute=" + std::to_string(absolute) +
                     " m=" + std::to_string(m) + " query " +
                     std::to_string(qi));
        std::vector<double> estimates(data.rows());
        qdata.EstimateAll(queries[qi], estimates);
        const std::vector<std::size_t> expected =
            TopEstimateIndices(estimates, m, absolute);
        std::vector<std::size_t> got;
        for (const auto& entry : heaps[qi].TakeSorted()) {
          got.push_back(entry.index);
        }
        if (m >= data.rows()) {
          // TopEstimateIndices short-circuits to every index in index
          // order; the heap holds the same set, ranked.
          std::sort(got.begin(), got.end());
        }
        EXPECT_EQ(got, expected);
      }
    }
  }
}

TEST(QuantizedMatrixTest, SelectTopEstimatesMatchesEstimateAllSelection) {
  Rng rng(24);
  const Matrix data = SelectionStressData(&rng);
  // Five queries, the last all zero (scale 0: every estimate ties at 0).
  std::vector<QuantizedVector> queries;
  for (int i = 0; i < 4; ++i) {
    std::vector<double> q(data.cols());
    for (double& v : q) v = rng.NextGaussian();
    queries.push_back(QuantizeVector(q));
  }
  queries.push_back(QuantizeVector(std::vector<double>(data.cols(), 0.0)));
  ExpectSelectionMatchesEstimateAll(data, queries);
}

TEST(QuantizedMatrixTest, SelectTopEstimatesAdmitsOneCodeStepAboveFloor) {
  // Two blocks, with a 1.0 entry pinning every block's scale, and the
  // query's, to 1/127 and the query's codes (0, 1, 127) against data
  // column 2 of zeros, so a row's int32 dot is exactly its column-1
  // code. Every row of block 0 has dot 50, so after it the top-1 and
  // top-2 floors are 50. Block 1 holds one row of dot 51, one code step
  // above that floor under both orders, at position p, among rows whose
  // |dot| is below 50. For every p the reject must keep block 1, so a
  // block maximum that misses a position shows up here.
  constexpr std::size_t kRows = QuantizedMatrix::kRowsPerBlock;
  const std::vector<double> query = {0.0, 1.0 / 127.0, 1.0};
  for (std::size_t p = 0; p < kRows; ++p) {
    SCOPED_TRACE("position " + std::to_string(p));
    Matrix data(2 * kRows, 3);
    for (std::size_t r = 0; r < data.rows(); ++r) {
      data.At(r, 0) = 1.0;
      double code = 50.0;
      if (r >= kRows) {
        code = r - kRows == p ? 51.0 : static_cast<double>(r % 81) - 40.0;
      }
      data.At(r, 1) = code / 127.0;
    }
    ExpectSelectionMatchesEstimateAll(data, {QuantizeVector(query)});
  }
}

// ---------------------------------------------------------------------
// Two-stage scoring: rerank quality, recall sweep, accounting.
// ---------------------------------------------------------------------

TEST(TwoStageTest, QuantizedRerankMatchesExactOnSeparatedData) {
  Rng rng(31);
  // Latent-factor norms separate the top-k by far more than the int8
  // rounding error, so the survivor set always contains the true
  // winners and the exact re-rank returns them in exact order.
  const Matrix data = MakeLatentFactorVectors(600, 24, 1.0, &rng);
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  QueryOptions options;
  options.k = 5;
  options.precision = QueryPrecision::kQuantizedRerank;
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<double> query(data.cols());
    for (double& v : query) v = rng.NextGaussian();
    const auto exact = TopKBruteForce(data, query, options.k, true);
    const auto reranked = QueryQuantizedRerank(data, qdata, query, options);
    ASSERT_EQ(reranked.size(), exact.size());
    for (std::size_t j = 0; j < exact.size(); ++j) {
      EXPECT_EQ(reranked[j].index, exact[j].index) << "rep " << rep;
      // Survivor scores come from the exact re-rank, not the estimate.
      EXPECT_DOUBLE_EQ(reranked[j].value, exact[j].value);
    }
  }
}

// Mean top-k recall of QueryFilteredRerank over `queries` random
// queries at the given survivor policy.
double FilterRecall(const Matrix& data, const SketchFilterParams& params,
                    std::size_t queries, Rng* rng) {
  Rng build_rng(77);
  const InnerProductFilter filter(data, params, &build_rng);
  QueryOptions options;
  options.k = 5;
  options.precision = QueryPrecision::kSketchFilter;
  std::size_t hits = 0;
  for (std::size_t qi = 0; qi < queries; ++qi) {
    std::vector<double> query(data.cols());
    for (double& v : query) v = rng->NextGaussian();
    const auto exact = TopKBruteForce(data, query, options.k, true);
    const auto approx = QueryFilteredRerank(data, filter, query, options);
    for (const auto& truth : exact) {
      for (const auto& match : approx) {
        if (match.index == truth.index) {
          ++hits;
          break;
        }
      }
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(queries * options.k);
}

TEST(TwoStageTest, FilterRecallSweepImprovesWithSurvivors) {
  Rng rng(32);
  const Matrix data = MakeLatentFactorVectors(800, 24, 1.0, &rng);
  // Same estimator (16 buckets x 4 copies) at both ends so the sweep
  // isolates the survivor oversampling knob. The copy count matters:
  // estimate noise scales with the candidate row's own norm, so on
  // skewed data a high-norm true winner can rank arbitrarily badly
  // under a noisy estimator no matter how many survivors are kept —
  // oversampling only buys recall once the estimator variance is low
  // enough that winners land inside the survivor window.
  SketchFilterParams tight;
  tight.buckets = 16;
  tight.copies = 4;
  tight.survivor_multiplier = 1.0;
  tight.survivor_floor = 5;
  SketchFilterParams wide = tight;
  wide.survivor_multiplier = 16.0;
  wide.survivor_floor = 64;
  const double tight_recall = FilterRecall(data, tight, 40, &rng);
  const double wide_recall = FilterRecall(data, wide, 40, &rng);
  // Oversampling the survivor set is what buys recall back from the
  // noisy CountSketch estimate.
  EXPECT_GE(wide_recall, tight_recall);
  EXPECT_GE(wide_recall, 0.9);
}

TEST(TwoStageTest, TwoStageStatsAndMetricsArePopulated) {
  Rng rng(33);
  const Matrix data = MakeUnitBallGaussian(500, 20, 0.3, &rng);
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  Rng build_rng(78);
  const InnerProductFilter filter(data, {}, &build_rng);
  std::vector<double> query(data.cols());
  for (double& v : query) v = rng.NextGaussian();

  QueryOptions options;
  options.k = 3;
  QueryStats quant_stats;
  (void)QueryQuantizedRerank(data, qdata, query, options, &quant_stats);
  // 500 rows, survivor set max(3*4, 32) = 32: 468 pruned, 32 reranked.
  EXPECT_GT(quant_stats.candidates_pruned, 0U);
  EXPECT_GE(quant_stats.rerank_exact_dots, options.k);
  EXPECT_EQ(quant_stats.candidates_pruned + quant_stats.rerank_exact_dots,
            data.rows());
  // Estimate pass billed at the static dot-equivalent rate.
  EXPECT_LT(quant_stats.dot_products, data.rows());
  EXPECT_EQ(quant_stats.metrics.Get("core.quant.candidates_pruned"),
            quant_stats.candidates_pruned);
  EXPECT_EQ(quant_stats.metrics.Get("core.quant.rerank_dots"),
            quant_stats.rerank_exact_dots);

  QueryStats filter_stats;
  (void)QueryFilteredRerank(data, filter, query, options, &filter_stats);
  EXPECT_GT(filter_stats.candidates_pruned, 0U);
  EXPECT_EQ(filter_stats.candidates_pruned + filter_stats.rerank_exact_dots,
            data.rows());
  EXPECT_EQ(filter_stats.metrics.Get("core.filter.candidates_pruned"),
            filter_stats.candidates_pruned);
  EXPECT_EQ(filter_stats.metrics.Get("core.filter.rerank_dots"),
            filter_stats.rerank_exact_dots);
}

TEST(TwoStageTest, SurvivorCountPolicy) {
  // max(ceil(k * multiplier), floor), capped by budget (never below k)
  // and by n.
  EXPECT_EQ(SurvivorCount(3, 1000, 0, 4.0, 32), 32U);
  EXPECT_EQ(SurvivorCount(20, 1000, 0, 4.0, 32), 80U);
  EXPECT_EQ(SurvivorCount(20, 50, 0, 4.0, 32), 50U);    // capped by n
  EXPECT_EQ(SurvivorCount(20, 1000, 40, 4.0, 32), 40U); // capped by budget
  EXPECT_EQ(SurvivorCount(20, 1000, 5, 4.0, 32), 20U);  // never below k
}

// ---------------------------------------------------------------------
// Precision support matrix across the four indexes.
// ---------------------------------------------------------------------

class PrecisionMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(41);
    data_ = MakeUnitBallGaussian(300, 16, 0.3, &rng);
    query_.resize(data_.cols());
    for (double& v : query_) v = rng.NextGaussian();
  }

  QueryOptions With(QueryPrecision precision, std::size_t k = 3,
                    bool is_signed = true) const {
    QueryOptions options;
    options.k = k;
    options.is_signed = is_signed;
    options.precision = precision;
    return options;
  }

  Matrix data_;
  std::vector<double> query_;
};

TEST_F(PrecisionMatrixTest, BruteAnswersExactAndQuantNotFilter) {
  const auto index = BruteForceIndex::Create(data_);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kAuto)).ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kExact)).ok());
  const auto quant =
      (*index)->Query(query_, With(QueryPrecision::kQuantizedRerank));
  EXPECT_TRUE(quant.ok());
  const auto filtered =
      (*index)->Query(query_, With(QueryPrecision::kSketchFilter));
  ASSERT_FALSE(filtered.ok());
  EXPECT_EQ(filtered.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PrecisionMatrixTest, BruteQuantRerankEqualsExactScores) {
  const auto index = BruteForceIndex::Create(data_);
  ASSERT_TRUE(index.ok());
  const auto quant =
      (*index)->Query(query_, With(QueryPrecision::kQuantizedRerank));
  ASSERT_TRUE(quant.ok());
  ASSERT_FALSE(quant->empty());
  for (const auto& match : *quant) {
    // Whatever the selection, every returned score is an exact dot —
    // the re-rank never reports the int8 estimate.
    EXPECT_DOUBLE_EQ(match.value,
                     kernels::Dot(data_.Row(match.index), query_));
  }
}

TEST_F(PrecisionMatrixTest, TreeIsExactOnly) {
  Rng rng(42);
  const auto index = TreeMipsIndex::Create(data_, 16, &rng);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kAuto)).ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kExact)).ok());
  for (const QueryPrecision rejected :
       {QueryPrecision::kQuantizedRerank, QueryPrecision::kSketchFilter}) {
    const auto result = (*index)->Query(query_, With(rejected));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(PrecisionMatrixTest, LshAnswersExactAndQuantNotFilter) {
  Rng rng(43);
  const SimpleMipsTransform transform(data_.cols(), 1.0);
  const SimHashFamily family(transform.output_dim());
  LshTableParams params;
  params.k = 6;
  params.l = 24;
  const auto index =
      LshMipsIndex::Create(data_, &transform, family, params, &rng);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kAuto)).ok());
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kExact)).ok());
  EXPECT_TRUE(
      (*index)->Query(query_, With(QueryPrecision::kQuantizedRerank)).ok());
  const auto filtered =
      (*index)->Query(query_, With(QueryPrecision::kSketchFilter));
  ASSERT_FALSE(filtered.ok());
  EXPECT_EQ(filtered.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PrecisionMatrixTest, SketchAnswersFilterAndAutoNotExactOrQuant) {
  Rng rng(44);
  const auto index = SketchIndex::Create(data_, SketchConfig{}, &rng);
  ASSERT_TRUE(index.ok());
  // kAuto: signed k=3 runs the filtered scan; unsigned k=1 descends the
  // argmax tree. Both must answer.
  EXPECT_TRUE((*index)->Query(query_, With(QueryPrecision::kAuto)).ok());
  EXPECT_TRUE(
      (*index)
          ->Query(query_, With(QueryPrecision::kAuto, 1, /*is_signed=*/false))
          .ok());
  EXPECT_TRUE(
      (*index)->Query(query_, With(QueryPrecision::kSketchFilter)).ok());
  for (const QueryPrecision rejected :
       {QueryPrecision::kExact, QueryPrecision::kQuantizedRerank}) {
    const auto result = (*index)->Query(query_, With(rejected));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(PrecisionMatrixTest, BatchQueryEnforcesTheSameMatrix) {
  Rng rng(45);
  Matrix queries(4, data_.cols());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    for (std::size_t j = 0; j < queries.cols(); ++j) {
      queries.At(qi, j) = rng.NextGaussian();
    }
  }
  const auto brute = BruteForceIndex::Create(data_);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(
      (*brute)->BatchQuery(queries, With(QueryPrecision::kQuantizedRerank))
          .ok());
  EXPECT_FALSE(
      (*brute)->BatchQuery(queries, With(QueryPrecision::kSketchFilter))
          .ok());
  const auto tree = TreeMipsIndex::Create(data_, 16, &rng);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(
      (*tree)->BatchQuery(queries, With(QueryPrecision::kQuantizedRerank))
          .ok());
  const auto sketch = SketchIndex::Create(data_, SketchConfig{}, &rng);
  ASSERT_TRUE(sketch.ok());
  EXPECT_FALSE(
      (*sketch)->BatchQuery(queries, With(QueryPrecision::kExact)).ok());
  EXPECT_TRUE(
      (*sketch)->BatchQuery(queries, With(QueryPrecision::kSketchFilter))
          .ok());
}

}  // namespace
}  // namespace ips
