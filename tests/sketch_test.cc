// Tests for src/sketch: CountSketch linearity, max-stability norm
// estimation, and the Section 4.3 MIPS index (value estimation, argmax
// recovery, unsigned search contract).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "linalg/kernels.h"
#include "rng/random.h"
#include "sketch/count_sketch.h"
#include "sketch/max_stability.h"
#include "sketch/sketch_mips.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ips {
namespace {

TEST(CountSketchTest, IsLinear) {
  Rng rng(3);
  const CountSketch sketch(50, 10, &rng);
  std::vector<double> x(50), y(50);
  for (double& v : x) v = rng.NextGaussian();
  for (double& v : y) v = rng.NextGaussian();
  std::vector<double> sum(50);
  for (std::size_t i = 0; i < 50; ++i) sum[i] = 2.0 * x[i] - 3.0 * y[i];
  const auto sx = sketch.Apply(x);
  const auto sy = sketch.Apply(y);
  const auto ssum = sketch.Apply(sum);
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_NEAR(ssum[b], 2.0 * sx[b] - 3.0 * sy[b], 1e-9);
  }
}

TEST(CountSketchTest, PreservesSquaredNormInExpectation) {
  Rng rng(5);
  std::vector<double> x(64);
  for (double& v : x) v = rng.NextGaussian();
  const double target = kernels::SquaredNorm(x);
  OnlineStats stats;
  for (int trial = 0; trial < 400; ++trial) {
    const CountSketch sketch(64, 16, &rng);
    stats.Add(kernels::SquaredNorm(sketch.Apply(x)));
  }
  EXPECT_NEAR(stats.Mean() / target, 1.0, 0.1);
}

TEST(CountSketchTest, SingleHeavyCoordinateSurvives) {
  Rng rng(7);
  std::vector<double> x(100, 0.0);
  x[42] = 10.0;
  for (int trial = 0; trial < 50; ++trial) {
    const CountSketch sketch(100, 20, &rng);
    const auto sx = sketch.Apply(x);
    EXPECT_DOUBLE_EQ(kernels::LInfNorm(sx), 10.0);  // alone in its bucket or not, the
                                           // only mass is x[42]
  }
}

class MaxStabilityKappaSweep : public ::testing::TestWithParam<double> {};

TEST_P(MaxStabilityKappaSweep, EstimatesLKappaNormWithinConstantFactor) {
  const double kappa = GetParam();
  Rng rng(11);
  const std::size_t kDim = 256;
  MaxStabilityParams params;
  params.kappa = kappa;
  params.copies = 9;
  params.bucket_multiplier = 6.0;
  std::vector<double> x(kDim);
  for (double& v : x) v = rng.NextGaussian();
  const double truth = kernels::LpNorm(x, kappa);
  // Median over sketches should land within a constant factor of the
  // true norm; check the typical ratio over repetitions.
  OnlineStats ratio;
  for (int trial = 0; trial < 30; ++trial) {
    const MaxStabilitySketch sketch(kDim, params, &rng);
    ratio.Add(sketch.EstimateNorm(x) / truth);
  }
  EXPECT_GT(ratio.Mean(), 0.4);
  EXPECT_LT(ratio.Mean(), 2.5);
}

INSTANTIATE_TEST_SUITE_P(Kappas, MaxStabilityKappaSweep,
                         ::testing::Values(2.0, 3.0, 4.0, 8.0));

TEST(MaxStabilityTest, SketchDimensionShrinksWithKappa) {
  Rng rng(13);
  const std::size_t kDim = 4096;
  MaxStabilityParams p2;
  p2.kappa = 2.0;
  MaxStabilityParams p8;
  p8.kappa = 8.0;
  const MaxStabilitySketch s2(kDim, p2, &rng);
  const MaxStabilitySketch s8(kDim, p8, &rng);
  // kappa = 2: m ~ n^0 (constant); kappa = 8: m ~ n^(3/4).
  EXPECT_LT(s2.buckets_per_copy(), s8.buckets_per_copy());
  EXPECT_LT(s8.buckets_per_copy(), kDim);
}

TEST(MaxStabilityTest, ApplyConcatenatesCopies) {
  Rng rng(17);
  MaxStabilityParams params;
  params.copies = 3;
  const MaxStabilitySketch sketch(32, params, &rng);
  std::vector<double> x(32, 1.0);
  EXPECT_EQ(sketch.Apply(x).size(), sketch.sketch_dim());
  EXPECT_EQ(sketch.sketch_dim(), 3 * sketch.buckets_per_copy());
}

TEST(MaxStabilityTest, SketchDataMatrixCommutesWithQuery) {
  // Pi (A q) must equal (Pi A) q -- the precomputation identity the MIPS
  // index relies on.
  Rng rng(19);
  const std::size_t kN = 40;
  const std::size_t kD = 8;
  Matrix a(kN, kD);
  for (double& v : a.data()) v = rng.NextGaussian();
  MaxStabilityParams params;
  params.copies = 2;
  const MaxStabilitySketch sketch(kN, params, &rng);
  const Matrix sketched = sketch.SketchDataMatrix(a, 0, kN);
  std::vector<double> q(kD);
  for (double& v : q) v = rng.NextGaussian();
  // Direct path: form Aq then sketch it.
  std::vector<double> aq(kN);
  for (std::size_t i = 0; i < kN; ++i) aq[i] = kernels::Dot(a.Row(i), q);
  const std::vector<double> direct = sketch.Apply(aq);
  // Precomputed path.
  ASSERT_EQ(sketched.rows(), direct.size());
  for (std::size_t r = 0; r < sketched.rows(); ++r) {
    EXPECT_NEAR(kernels::Dot(sketched.Row(r), q), direct[r], 1e-9);
  }
}

TEST(SketchMipsTest, EstimateTracksTrueMax) {
  Rng rng(23);
  const std::size_t kN = 128;
  const std::size_t kD = 16;
  Matrix data(kN, kD);
  for (double& v : data.data()) v = 0.05 * rng.NextGaussian();
  // One strong row.
  for (std::size_t j = 0; j < kD; ++j) data.At(7, j) = 1.0;
  SketchMipsParams params;
  params.kappa = 4.0;
  params.copies = 9;
  const SketchMipsIndex index(data, params, &rng);
  std::vector<double> q(kD, 1.0);
  double truth = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    truth = std::max(truth, std::abs(kernels::Dot(data.Row(i), q)));
  }
  const double estimate = index.EstimateMaxAbsInnerProduct(q);
  // ||x||_inf <= ||x||_kappa <= n^(1/kappa) ||x||_inf plus sketch noise:
  // allow a generous constant band around the truth.
  EXPECT_GT(estimate, 0.2 * truth);
  EXPECT_LT(estimate, 5.0 * truth * std::pow(kN, 1.0 / params.kappa));
}

TEST(SketchMipsTest, RecoversPlantedArgmax) {
  Rng rng(29);
  const std::size_t kN = 256;
  const std::size_t kD = 24;
  Matrix data(kN, kD);
  for (double& v : data.data()) v = 0.02 * rng.NextGaussian();
  const std::size_t kPlanted = 133;
  for (std::size_t j = 0; j < kD; ++j) data.At(kPlanted, j) = 1.0;
  SketchMipsParams params;
  params.kappa = 4.0;
  params.copies = 11;
  params.bucket_multiplier = 6.0;
  const SketchMipsIndex index(data, params, &rng);
  std::vector<double> q(kD, 1.0);
  // The planted row dominates every other |p^T q| by ~50x; the tree
  // descent must find it.
  EXPECT_EQ(index.RecoverArgmax(q), kPlanted);
}

TEST(SketchMipsTest, UnsignedSearchHonorsThreshold) {
  Rng rng(31);
  const std::size_t kN = 64;
  const std::size_t kD = 8;
  Matrix data(kN, kD);
  for (double& v : data.data()) v = 0.01 * rng.NextGaussian();
  for (std::size_t j = 0; j < kD; ++j) data.At(5, j) = -1.0;  // negative!
  SketchMipsParams params;
  params.copies = 9;
  const SketchMipsIndex index(data, params, &rng);
  std::vector<double> q(kD, 1.0);
  // |p_5^T q| = 8: unsigned search with s = 8, c = 0.5 must return 5.
  EXPECT_EQ(index.UnsignedSearch(q, 8.0, 0.5), 5u);
  // With an unreachable threshold it reports "no result".
  EXPECT_EQ(index.UnsignedSearch(q, 1000.0, 0.5), kN);
}

TEST(SketchMipsTest, TinyDatasetFallsBackToExact) {
  Rng rng(37);
  Matrix data(4, 4);
  for (double& v : data.data()) v = rng.NextGaussian();
  SketchMipsParams params;
  params.leaf_size = 8;  // root is a leaf
  const SketchMipsIndex index(data, params, &rng);
  std::vector<double> q(4, 1.0);
  double truth = 0.0;
  std::size_t arg = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double v = std::abs(kernels::Dot(data.Row(i), q));
    if (v > truth) {
      truth = v;
      arg = i;
    }
  }
  EXPECT_EQ(index.RecoverArgmax(q), arg);
  EXPECT_DOUBLE_EQ(index.EstimateMaxAbsInnerProduct(q), truth);
}

TEST(SketchMipsTest, SketchRowsSublinearInN) {
  Rng rng(41);
  SketchMipsParams params;
  params.kappa = 4.0;
  params.copies = 3;
  params.bucket_multiplier = 1.0;
  Matrix small(256, 4);
  Matrix large(4096, 4);
  for (double& v : small.data()) v = rng.NextGaussian();
  for (double& v : large.data()) v = rng.NextGaussian();
  const SketchMipsIndex small_index(small, params, &rng);
  const SketchMipsIndex large_index(large, params, &rng);
  // The per-query cost is dominated by the root sketch, whose row count
  // grows like n^(1 - 2/kappa) = sqrt(n) at kappa = 4: a 16x larger data
  // set should cost only ~4x more per query.
  const double growth = static_cast<double>(large_index.RootSketchRows()) /
                        static_cast<double>(small_index.RootSketchRows());
  EXPECT_LT(growth, 6.0);
  EXPECT_GT(growth, 2.0);
  // Total space is superlinear in the sketch rows but each data vector
  // appears in only O(log n) node sketches.
  EXPECT_GT(large_index.TotalSketchRows(), large_index.RootSketchRows());
}

Matrix GaussianRows(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (double& v : m.data()) v = rng.NextGaussian();
  return m;
}

TEST(SketchMipsBuildTest, DrawThenFinishIsTheConstructedSketch) {
  MaxStabilityParams params;
  params.copies = 3;
  Rng rng_a(61);
  Rng rng_b(61);
  const MaxStabilitySketch built(300, params, &rng_a);
  MaxStabilitySketch drawn = MaxStabilitySketch::Draw(300, params, &rng_b);
  drawn.Finish();
  EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64());
  const Matrix data = GaussianRows(300, 4, 62);
  const Matrix a = built.SketchDataMatrix(data, 0, 300);
  const Matrix b = drawn.SketchDataMatrix(data, 0, 300);
  EXPECT_EQ(a.data(), b.data());
}

TEST(SketchMipsBuildTest, IndexIsIdenticalForEveryPoolSize) {
  const Matrix data = GaussianRows(3000, 6, 63);
  ThreadPool inline_pool(0);
  ThreadPool serial(1);
  ThreadPool four(4);
  Rng rng_a(64);
  Rng rng_b(64);
  Rng rng_c(64);
  Rng rng_d(64);
  const SketchMipsIndex a(data, SketchMipsParams{}, &rng_a, &serial);
  const SketchMipsIndex b(data, SketchMipsParams{}, &rng_b, &four);
  const SketchMipsIndex c(data, SketchMipsParams{}, &rng_c);
  const SketchMipsIndex d(data, SketchMipsParams{}, &rng_d, &inline_pool);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.Fingerprint(), c.Fingerprint());
  EXPECT_EQ(a.Fingerprint(), d.Fingerprint());
  EXPECT_EQ(a.TotalSketchRows(), b.TotalSketchRows());
  const std::uint64_t next = rng_a.NextUint64();
  EXPECT_EQ(next, rng_b.NextUint64());
  EXPECT_EQ(next, rng_c.NextUint64());
  EXPECT_EQ(next, rng_d.NextUint64());
  Rng query_rng(65);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(6);
    for (double& v : q) v = query_rng.NextGaussian();
    EXPECT_EQ(a.RecoverArgmax(q), b.RecoverArgmax(q));
    EXPECT_EQ(a.EstimateMaxAbsInnerProduct(q),
              b.EstimateMaxAbsInnerProduct(q));
  }
}

TEST(SketchMipsBuildTest, FingerprintMatchesTheSerialBuilder) {
  // Pinned from the single-threaded builder this parallel one replaced:
  // an engine snapshot stores only the rng state its sketch was built
  // from and rebuilds the sketch at load, so a build from a given state
  // must keep producing these bits (and consume the same draws).
  const Matrix data = GaussianRows(600, 8, 2016);
  Rng rng(77);
  const SketchMipsIndex index(data, SketchMipsParams{}, &rng);
  EXPECT_EQ(index.Fingerprint(), 0x35ccd740552a5ba6ULL);
  EXPECT_EQ(rng.NextUint64(), 0xa1e07f5d15759c79ULL);
}

TEST(CmipsScalingTest, StepCount) {
  // gamma already >= s: no scaling needed.
  EXPECT_EQ(CmipsQueryScalingSteps(1.0, 0.5, 2.0), 0u);
  // gamma = s/8, c = 1/2: 3 doublings.
  EXPECT_EQ(CmipsQueryScalingSteps(8.0, 0.5, 1.0), 3u);
  // Matches ceil(log_{1/c}(s/gamma)).
  EXPECT_EQ(CmipsQueryScalingSteps(10.0, 0.9, 1.0),
            static_cast<std::size_t>(
                std::ceil(std::log(10.0) / std::log(1.0 / 0.9))));
}

}  // namespace
}  // namespace ips
