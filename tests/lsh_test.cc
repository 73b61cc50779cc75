// Tests for src/lsh: collision probabilities of the base families
// against their closed forms, inner-product preservation of the (A)LSH
// transforms, amplification, the (K, L) table engine, and the rho
// formulas behind Figure 2.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/dataset.h"
#include "linalg/kernels.h"
#include "linalg/quantized.h"
#include "lsh/bucket_join.h"
#include "lsh/cross_polytope.h"
#include "lsh/bit_sample.h"
#include "lsh/e2lsh.h"
#include "lsh/lsh_family.h"
#include "lsh/minhash.h"
#include "lsh/rho.h"
#include "lsh/simhash.h"
#include "lsh/tables.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "util/thread_pool.h"

namespace ips {
namespace {

std::vector<double> RandomUnit(std::size_t dim, Rng* rng) {
  std::vector<double> v(dim);
  for (double& x : v) x = rng->NextGaussian();
  kernels::NormalizeInPlace(v);
  return v;
}

// Builds a unit vector at a prescribed angle to `x`.
std::vector<double> UnitAtCosine(std::span<const double> x, double cosine,
                                 Rng* rng) {
  std::vector<double> noise = RandomUnit(x.size(), rng);
  const double along = kernels::Dot(noise, x);
  for (std::size_t i = 0; i < x.size(); ++i) noise[i] -= along * x[i];
  kernels::NormalizeInPlace(noise);
  std::vector<double> y(x.size());
  const double sine = std::sqrt(std::max(0.0, 1.0 - cosine * cosine));
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = cosine * x[i] + sine * noise[i];
  }
  return y;
}

class SimHashCosineSweep : public ::testing::TestWithParam<double> {};

TEST_P(SimHashCosineSweep, CollisionProbabilityMatchesTheory) {
  const double cosine = GetParam();
  Rng rng(11);
  const std::size_t kDim = 24;
  const SimHashFamily family(kDim);
  const auto x = RandomUnit(kDim, &rng);
  const auto y = UnitAtCosine(x, cosine, &rng);
  ASSERT_NEAR(kernels::Dot(x, y), cosine, 1e-9);
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, x, y, 20000, &rng);
  const double expected = SimHashFamily::CollisionProbability(cosine);
  EXPECT_NEAR(estimate.p_hat, expected, estimate.HalfWidth(4.0) + 0.005);
}

INSTANTIATE_TEST_SUITE_P(Cosines, SimHashCosineSweep,
                         ::testing::Values(-0.9, -0.5, 0.0, 0.3, 0.7, 0.95));

TEST(SimHashTest, IdenticalVectorsAlwaysCollide) {
  Rng rng(13);
  const SimHashFamily family(8);
  const auto x = RandomUnit(8, &rng);
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, x, x, 200, &rng);
  EXPECT_EQ(estimate.p_hat, 1.0);
}

TEST(SimHashTest, ClosedFormEndpoints) {
  EXPECT_DOUBLE_EQ(SimHashFamily::CollisionProbability(1.0), 1.0);
  EXPECT_DOUBLE_EQ(SimHashFamily::CollisionProbability(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(SimHashFamily::CollisionProbability(0.0), 0.5);
}

TEST(CrossPolytopeTest, CollisionDecreasesWithAngle) {
  Rng rng(17);
  const std::size_t kDim = 16;
  const CrossPolytopeFamily family(kDim);
  const auto x = RandomUnit(kDim, &rng);
  const auto close = UnitAtCosine(x, 0.95, &rng);
  const auto mid = UnitAtCosine(x, 0.5, &rng);
  const auto far = UnitAtCosine(x, 0.0, &rng);
  const double p_close =
      EstimateCollisionProbability(family, x, close, 4000, &rng).p_hat;
  const double p_mid =
      EstimateCollisionProbability(family, x, mid, 4000, &rng).p_hat;
  const double p_far =
      EstimateCollisionProbability(family, x, far, 4000, &rng).p_hat;
  EXPECT_GT(p_close, p_mid);
  EXPECT_GT(p_mid, p_far);
  EXPECT_GT(p_close, 0.5);
}

TEST(CrossPolytopeTest, MoreSelectiveThanSimHashFarApart) {
  // The cross-polytope hash has 2d buckets, so far-apart points collide
  // with probability ~1/(2d), far below SimHash's 1/2.
  Rng rng(19);
  const std::size_t kDim = 16;
  const CrossPolytopeFamily family(kDim);
  const auto x = RandomUnit(kDim, &rng);
  const auto far = UnitAtCosine(x, 0.0, &rng);
  const double p_far =
      EstimateCollisionProbability(family, x, far, 4000, &rng).p_hat;
  EXPECT_LT(p_far, 0.25);
}

class E2LshDistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(E2LshDistanceSweep, CollisionProbabilityMatchesClosedForm) {
  const double distance = GetParam();
  Rng rng(23);
  const std::size_t kDim = 12;
  const double kWidth = 4.0;
  const E2LshFamily family(kDim, kWidth);
  const auto x = RandomUnit(kDim, &rng);
  auto y = x;
  // Move y exactly `distance` away along a random direction.
  const auto direction = RandomUnit(kDim, &rng);
  for (std::size_t i = 0; i < kDim; ++i) y[i] += distance * direction[i];
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, x, y, 20000, &rng);
  const double expected = E2LshFamily::CollisionProbability(distance, kWidth);
  EXPECT_NEAR(estimate.p_hat, expected, estimate.HalfWidth(4.0) + 0.006);
}

INSTANTIATE_TEST_SUITE_P(Distances, E2LshDistanceSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0));

TEST(E2LshTest, ClosedFormBasics) {
  EXPECT_DOUBLE_EQ(E2LshFamily::CollisionProbability(0.0, 4.0), 1.0);
  // Monotone decreasing in distance.
  double previous = 1.0;
  for (double r = 0.5; r < 20.0; r *= 2.0) {
    const double p = E2LshFamily::CollisionProbability(r, 4.0);
    EXPECT_LT(p, previous);
    previous = p;
  }
}

TEST(MinHashTest, CollisionProbabilityIsJaccard) {
  Rng rng(29);
  const std::size_t kDim = 40;
  const MinHashFamily family(kDim);
  // |x| = 20, |y| = 20, overlap 10 -> Jaccard = 10/30.
  std::vector<double> x(kDim, 0.0);
  std::vector<double> y(kDim, 0.0);
  for (std::size_t i = 0; i < 20; ++i) x[i] = 1.0;
  for (std::size_t i = 10; i < 30; ++i) y[i] = 1.0;
  EXPECT_NEAR(MinHashFamily::Jaccard(x, y), 1.0 / 3.0, 1e-12);
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, x, y, 20000, &rng);
  EXPECT_NEAR(estimate.p_hat, 1.0 / 3.0, estimate.HalfWidth(4.0) + 0.005);
}

TEST(MinHashTest, DisjointSetsNeverCollide) {
  Rng rng(31);
  const MinHashFamily family(10);
  std::vector<double> x = {1, 1, 1, 0, 0, 0, 0, 0, 0, 0};
  std::vector<double> y = {0, 0, 0, 1, 1, 1, 0, 0, 0, 0};
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, x, y, 500, &rng);
  EXPECT_EQ(estimate.p_hat, 0.0);
}

TEST(ConcatenationTest, AmplifiesCollisionProbability) {
  Rng rng(37);
  const std::size_t kDim = 16;
  const SimHashFamily family(kDim);
  const auto x = RandomUnit(kDim, &rng);
  const auto y = UnitAtCosine(x, 0.8, &rng);
  const double base_p = SimHashFamily::CollisionProbability(0.8);
  constexpr std::size_t kK = 4;
  std::size_t collisions = 0;
  constexpr std::size_t kTrials = 20000;
  for (std::size_t t = 0; t < kTrials; ++t) {
    const ConcatenatedLshFunction h(family, kK, &rng);
    if (h.HashData(x) == h.HashQuery(y)) ++collisions;
  }
  const double expected = std::pow(base_p, kK);
  EXPECT_NEAR(collisions / static_cast<double>(kTrials), expected,
              4.0 * std::sqrt(expected / kTrials) + 0.01);
}

// --- Transforms ---

TEST(DualBallTransformTest, MapsToUnitSphereAndScalesInnerProduct) {
  Rng rng(41);
  const std::size_t kDim = 10;
  const double kU = 5.0;
  const DualBallTransform transform(kDim, kU);
  for (int trial = 0; trial < 30; ++trial) {
    auto p = RandomUnit(kDim, &rng);
    kernels::ScaleInPlace(p, rng.NextDouble());  // ||p|| <= 1
    auto q = RandomUnit(kDim, &rng);
    kernels::ScaleInPlace(q, kU * rng.NextDouble());  // ||q|| <= U
    const auto tp = transform.TransformData(p);
    const auto tq = transform.TransformQuery(q);
    ASSERT_EQ(tp.size(), kDim + 2);
    EXPECT_NEAR(kernels::Norm(tp), 1.0, 1e-9);
    EXPECT_NEAR(kernels::Norm(tq), 1.0, 1e-9);
    EXPECT_NEAR(kernels::Dot(tp, tq), kernels::Dot(p, q) / kU, 1e-9);
  }
}

TEST(SimpleMipsTransformTest, DataOnSphereQueryNormalized) {
  Rng rng(43);
  const std::size_t kDim = 8;
  const double kM = 3.0;
  const SimpleMipsTransform transform(kDim, kM);
  auto p = RandomUnit(kDim, &rng);
  kernels::ScaleInPlace(p, 2.0);  // ||p|| = 2 <= M
  auto q = RandomUnit(kDim, &rng);
  kernels::ScaleInPlace(q, 7.0);
  const auto tp = transform.TransformData(p);
  const auto tq = transform.TransformQuery(q);
  EXPECT_NEAR(kernels::Norm(tp), 1.0, 1e-9);
  EXPECT_NEAR(kernels::Norm(tq), 1.0, 1e-9);
  // <tp, tq> = <p, q> / (M ||q||).
  EXPECT_NEAR(kernels::Dot(tp, tq), kernels::Dot(p, q) / (kM * 7.0), 1e-9);
}

TEST(XboxTransformTest, EqualizesDataNorms) {
  Rng rng(47);
  const std::size_t kDim = 8;
  const double kM = 4.0;
  const XboxTransform transform(kDim, kM);
  for (int trial = 0; trial < 10; ++trial) {
    auto p = RandomUnit(kDim, &rng);
    kernels::ScaleInPlace(p, kM * rng.NextDouble());
    const auto tp = transform.TransformData(p);
    EXPECT_NEAR(kernels::Norm(tp), kM, 1e-9);
    auto q = RandomUnit(kDim, &rng);
    const auto tq = transform.TransformQuery(q);
    EXPECT_NEAR(kernels::Dot(tp, tq), kernels::Dot(p, q), 1e-9);  // inner product unchanged
  }
}

TEST(L2AlshTransformTest, DistanceEncodesInnerProduct) {
  Rng rng(53);
  const std::size_t kDim = 8;
  const std::size_t kM = 3;
  const double kUScale = 0.83;
  const double kMaxNorm = 2.0;
  const L2AlshTransform transform(kDim, kM, kUScale, kMaxNorm);
  auto p = RandomUnit(kDim, &rng);
  kernels::ScaleInPlace(p, 1.7);
  auto q = RandomUnit(kDim, &rng);
  const auto tp = transform.TransformData(p);
  const auto tq = transform.TransformQuery(q);
  ASSERT_EQ(tp.size(), kDim + kM);
  ASSERT_EQ(tq.size(), kDim + kM);
  // ||tp - tq||^2 = 1 + m/4 - 2 (U/M) <p, q> + ||x'||^(2^(m+1)).
  const double scaled_norm = kUScale * 1.7 / kMaxNorm;
  const double tail = std::pow(scaled_norm, std::pow(2.0, kM + 1));
  const double expected = 1.0 + kM / 4.0 -
                          2.0 * (kUScale / kMaxNorm) * kernels::Dot(p, q) + tail;
  EXPECT_NEAR(kernels::SquaredDistance(tp, tq), expected, 1e-9);
}

TEST(MinHashAlshTransformTest, PadsDataToConstantWeight) {
  const std::size_t kDim = 12;
  const std::size_t kMaxWeight = 6;
  const MinHashAlshTransform transform(kDim, kMaxWeight);
  std::vector<double> x(kDim, 0.0);
  x[0] = x[3] = x[5] = 1.0;  // weight 3
  std::vector<double> q(kDim, 0.0);
  q[3] = q[4] = 1.0;
  const auto tx = transform.TransformData(x);
  const auto tq = transform.TransformQuery(q);
  ASSERT_EQ(tx.size(), kDim + kMaxWeight);
  double weight = 0.0;
  for (double v : tx) weight += v;
  EXPECT_EQ(weight, static_cast<double>(kMaxWeight));
  // Intersection is preserved (query is zero on the padding).
  EXPECT_DOUBLE_EQ(kernels::Dot(tx, tq), 1.0);
  EXPECT_NEAR(MinHashFamily::Jaccard(tx, tq),
              1.0 / (kMaxWeight + 2.0 - 1.0), 1e-12);
}

TEST(MinHashAlshTransformTest, RejectsOverweightData) {
  const MinHashAlshTransform transform(4, 2);
  const std::vector<double> x = {1.0, 1.0, 1.0, 0.0};
  EXPECT_DEATH(transform.TransformData(x), "IPS_CHECK_LE");
}

TEST(SymmetricIncoherentTransformTest, PreservesDistinctInnerProducts) {
  Rng rng(59);
  const std::size_t kDim = 6;
  const double kEpsilon = 0.15;
  const SymmetricIncoherentTransform transform(kDim, kEpsilon, 16);
  EXPECT_TRUE(transform.IsSymmetric());
  for (int trial = 0; trial < 25; ++trial) {
    auto x = RandomUnit(kDim, &rng);
    kernels::ScaleInPlace(x, rng.NextDouble());
    auto y = RandomUnit(kDim, &rng);
    kernels::ScaleInPlace(y, rng.NextDouble());
    const auto tx = transform.TransformData(x);
    const auto ty = transform.TransformData(y);
    EXPECT_NEAR(kernels::Norm(tx), 1.0, 1e-9);
    EXPECT_NEAR(kernels::Norm(ty), 1.0, 1e-9);
    // |<tx, ty> - <x, y>| <= epsilon for x != y.
    EXPECT_NEAR(kernels::Dot(tx, ty), kernels::Dot(x, y), kEpsilon + 1e-9);
  }
}

TEST(SymmetricIncoherentTransformTest, IdenticalVectorsMapIdentically) {
  Rng rng(61);
  const SymmetricIncoherentTransform transform(5, 0.2, 16);
  auto x = RandomUnit(5, &rng);
  kernels::ScaleInPlace(x, 0.4);
  const auto t1 = transform.TransformData(x);
  const auto t2 = transform.TransformQuery(x);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_EQ(t1[i], t2[i]);
  // The collision-at-1 case the relaxed definition disregards.
  EXPECT_NEAR(kernels::Dot(t1, t2), 1.0, 1e-9);
}

TEST(TransformedFamilyTest, ComposesTransformAndBase) {
  Rng rng(67);
  const std::size_t kDim = 6;
  const DualBallTransform transform(kDim, 2.0);
  const SimHashFamily base(transform.output_dim());
  const TransformedLshFamily family(&transform, &base);
  EXPECT_EQ(family.dim(), kDim);
  EXPECT_FALSE(family.IsSymmetric());
  auto p = RandomUnit(kDim, &rng);
  kernels::ScaleInPlace(p, 0.9);
  // Collision probability of (p, q) should match SimHash on the lifted
  // vectors.
  auto q = RandomUnit(kDim, &rng);
  kernels::ScaleInPlace(q, 1.5);
  const auto tp = transform.TransformData(p);
  const auto tq = transform.TransformQuery(q);
  const double expected =
      SimHashFamily::CollisionProbability(kernels::Dot(tp, tq));
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, p, q, 20000, &rng);
  EXPECT_NEAR(estimate.p_hat, expected, estimate.HalfWidth(4.0) + 0.005);
}

// --- Tables ---

TEST(LshTablesTest, FindsNearNeighborsMissesFarOnes) {
  Rng rng(71);
  const std::size_t kDim = 16;
  const std::size_t kN = 200;
  Matrix data(kN, kDim);
  for (std::size_t i = 0; i < kN; ++i) {
    const auto v = RandomUnit(kDim, &rng);
    for (std::size_t j = 0; j < kDim; ++j) data.At(i, j) = v[j];
  }
  // Plant a near-duplicate of data row 0.
  const auto near = UnitAtCosine(data.Row(0), 0.98, &rng);

  const SimHashFamily family(kDim);
  LshTableParams params;
  params.k = 6;
  params.l = 16;
  const LshTables tables(family, data, params, &rng);
  const std::vector<std::size_t> candidates = tables.Query(near);
  // Row 0 should be among the candidates with overwhelming probability:
  // per-table collision prob is p^6 with p ~ 0.94.
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0u),
            candidates.end());
  // Candidates should be a small fraction of the data set.
  EXPECT_LT(candidates.size(), kN / 2);
}

TEST(LshTablesTest, CandidatesAreSortedAndUnique) {
  Rng rng(73);
  Matrix data(50, 8);
  for (double& v : data.data()) v = rng.NextGaussian();
  const SimHashFamily family(8);
  LshTableParams params;
  params.k = 2;
  params.l = 8;
  const LshTables tables(family, data, params, &rng);
  const auto candidates = tables.Query(data.Row(7));
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LT(candidates[i - 1], candidates[i]);
  }
  // The query equals a data point, so it must find itself (symmetric
  // family, identical hash inputs).
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 7u),
            candidates.end());
}

// FNV-1a over every table's buckets in iteration order: key, size and
// entries. Equal digests mean equal contents *and* bucket order.
std::uint64_t BucketDigest(const LshTables& tables) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      hash = (hash ^ ((value >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (std::size_t t = 0; t < tables.num_tables(); ++t) {
    for (const auto& [key, bucket] : tables.table_buckets(t)) {
      mix(key);
      mix(bucket.size());
      for (const std::uint32_t i : bucket) mix(i);
    }
  }
  return hash;
}

Matrix GaussianRows(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (double& v : m.data()) v = rng.NextGaussian();
  return m;
}

TEST(LshTablesTest, BucketsAreIdenticalForEveryPoolSize) {
  const Matrix data = GaussianRows(2000, 8, 81);
  const SimHashFamily family(8);
  const LshTableParams params{.k = 5, .l = 11};
  ThreadPool inline_pool(0);
  ThreadPool serial(1);
  ThreadPool four(4);
  Rng rng_a(82);
  Rng rng_b(82);
  Rng rng_c(82);
  Rng rng_d(82);
  const LshTables a(family, data, params, &rng_a, &serial);
  const LshTables b(family, data, params, &rng_b, &four);
  const LshTables c(family, data, params, &rng_c);
  const LshTables d(family, data, params, &rng_d, &inline_pool);
  EXPECT_EQ(BucketDigest(a), BucketDigest(b));
  EXPECT_EQ(BucketDigest(a), BucketDigest(c));
  EXPECT_EQ(BucketDigest(a), BucketDigest(d));
  for (std::size_t t = 0; t < a.num_tables(); ++t) {
    EXPECT_EQ(a.table_buckets(t), b.table_buckets(t)) << "table " << t;
  }
  const std::uint64_t next = rng_a.NextUint64();
  EXPECT_EQ(next, rng_b.NextUint64());
  EXPECT_EQ(next, rng_c.NextUint64());
}

TEST(LshTablesTest, BucketDigestMatchesTheSerialBuilder) {
  // Pinned from the single-threaded builder this parallel one replaced:
  // snapshots persist the buckets and replay the function draws from a
  // saved rng state, so both must stay what that builder produced.
  const Matrix data = GaussianRows(600, 8, 2016);
  const SimHashFamily family(8);
  Rng rng(91);
  const LshTables tables(family, data, LshTableParams{.k = 6, .l = 12},
                         &rng);
  EXPECT_EQ(BucketDigest(tables), 0x18aa28c55f6486e5ULL);
  EXPECT_EQ(rng.NextUint64(), 0x1a4f67c2db68d305ULL);
}

TEST(LshTableParamsTest, FromGapIsReasonable) {
  const LshTableParams params = LshTableParams::FromGap(10000, 0.9, 0.5);
  // k = ceil(ln 1e4 / ln 2) = 14; rho = ln .9 / ln .5 ~ 0.152.
  EXPECT_EQ(params.k, 14u);
  EXPECT_GE(params.l, static_cast<std::size_t>(
                          std::pow(10000.0, 0.152)));
  EXPECT_LT(params.l, 40u);
}

// --- Rho formulas (Figure 2) ---

TEST(RhoTest, DataDepClosedForm) {
  // rho = (1 - s) / (1 + (1 - 2c) s).
  EXPECT_NEAR(RhoDataDep(0.5, 0.5), 0.5 / 1.0, 1e-12);
  EXPECT_NEAR(RhoDataDep(0.8, 0.9), 0.2 / (1.0 - 0.8 * 0.8), 1e-12);
  EXPECT_DOUBLE_EQ(RhoDataDep(1.0, 0.5), 0.0);  // exact search is free
}

TEST(RhoTest, DataDepBeatsSimpleLshEverywhere) {
  // The paper: "our bound is always stronger than the one from [39]".
  for (double s = 0.05; s < 1.0; s += 0.05) {
    for (double c = 0.1; c < 1.0; c += 0.1) {
      EXPECT_LE(RhoDataDep(s, c), RhoSimpleLsh(s, c) + 1e-9)
          << "s=" << s << " c=" << c;
    }
  }
}

TEST(RhoTest, AllRhosInUnitInterval) {
  for (double s = 0.05; s < 1.0; s += 0.1) {
    for (double c = 0.1; c < 1.0; c += 0.1) {
      for (double rho : {RhoDataDep(s, c), RhoSimpleLsh(s, c),
                         RhoMhAlsh(s, c)}) {
        EXPECT_GT(rho, 0.0);
        EXPECT_LT(rho, 1.0 + 1e-12);
      }
    }
  }
}

TEST(RhoTest, SmallerCMakesSearchEasier) {
  // A weaker approximation requirement (smaller c) lowers every rho.
  for (double s : {0.2, 0.5, 0.8}) {
    EXPECT_LT(RhoDataDep(s, 0.3), RhoDataDep(s, 0.7));
    EXPECT_LT(RhoSimpleLsh(s, 0.3), RhoSimpleLsh(s, 0.7));
    EXPECT_LT(RhoMhAlsh(s, 0.3), RhoMhAlsh(s, 0.7));
  }
}

TEST(RhoTest, SphereAnnExponent) {
  EXPECT_DOUBLE_EQ(RhoSphereAnn(std::numbers::sqrt2), 1.0 / 3.0);
  EXPECT_NEAR(RhoSphereAnn(2.0), 1.0 / 7.0, 1e-12);
}

TEST(RhoTest, FromProbabilities) {
  EXPECT_DOUBLE_EQ(RhoFromProbabilities(0.25, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(RhoFromProbabilities(0.5, 0.25), 0.5);
}

TEST(RhoTest, L2AlshNumericIsValidAndDominatedBySimple) {
  // Neyshabur-Srebro introduced SIMPLE-LSH as dominating L2-ALSH; the
  // numerically optimized L2-ALSH exponent must be a valid rho in (0,1]
  // and never beat SIMP by more than numerical noise on this grid.
  for (double s : {0.3, 0.5, 0.7, 0.9}) {
    for (double c : {0.5, 0.7, 0.9}) {
      const double rho_l2 = RhoL2AlshNumeric(s, c);
      EXPECT_GT(rho_l2, 0.0) << "s=" << s << " c=" << c;
      EXPECT_LE(rho_l2, 1.0) << "s=" << s << " c=" << c;
      EXPECT_GE(rho_l2, RhoSimpleLsh(s, c) - 0.02)
          << "s=" << s << " c=" << c;
    }
  }
}

TEST(BitSampleTest, CollisionProbabilityIsNormalizedInnerProduct) {
  Rng rng(83);
  const std::size_t kDim = 50;
  const BitSampleFamily family(kDim);
  // |p AND q| = 15 out of 50 coordinates.
  std::vector<double> p(kDim, 0.0);
  std::vector<double> q(kDim, 0.0);
  for (std::size_t i = 0; i < 25; ++i) p[i] = 1.0;
  for (std::size_t i = 10; i < 40; ++i) q[i] = 1.0;
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, p, q, 20000, &rng);
  EXPECT_NEAR(estimate.p_hat, 15.0 / 50.0,
              estimate.HalfWidth(4.0) + 0.005);
  EXPECT_DOUBLE_EQ(BitSampleFamily::CollisionProbability(15, 50), 0.3);
}

TEST(BitSampleTest, DisjointVectorsNeverCollide) {
  Rng rng(89);
  const BitSampleFamily family(10);
  std::vector<double> p = {1, 1, 0, 0, 0, 0, 0, 0, 0, 0};
  std::vector<double> q = {0, 0, 1, 1, 0, 0, 0, 0, 0, 0};
  const BernoulliEstimate estimate =
      EstimateCollisionProbability(family, p, q, 1000, &rng);
  EXPECT_EQ(estimate.p_hat, 0.0);
}

TEST(BitSampleTest, RhoMatchesTableOneExponent) {
  // rho = log(s/d)/log(cs/d): the {0,1} permissible range of Table 1.
  EXPECT_NEAR(BitSampleFamily::Rho(10.0, 5.0, 100),
              std::log(0.1) / std::log(0.05), 1e-12);
  // As cs -> s the exponent goes to 1 (quadratic); for cs << s it drops.
  EXPECT_GT(BitSampleFamily::Rho(10.0, 9.0, 100),
            BitSampleFamily::Rho(10.0, 1.0, 100));
}

TEST(BucketJoinTest, DeduplicatesPairsAcrossTablesBeforeVerification) {
  // Short hashes (k=2) across many tables (l=8) make the same (data,
  // query) pair collide repeatedly; the join must verify it only once.
  Rng rng(97);
  const Matrix data = MakeUnitBallGaussian(64, 6, 0.9, &rng);
  const Matrix queries = MakeUnitBallGaussian(16, 6, 0.9, &rng);
  const SimHashFamily family(6);
  LshTableParams params;
  params.k = 2;
  params.l = 8;
  const BucketJoinResult result =
      LshBucketJoin(family, data, data, queries, queries, /*s=*/0.9,
                    /*cs=*/0.0, /*is_signed=*/true, params, &rng);

  // With 8 near-identical tables, cross-table repeats are guaranteed.
  EXPECT_GT(result.metrics.Get("lsh.join.duplicate_pairs"), 0u);
  // The accounting identity of the dedup + quantized-prefilter passes:
  // every candidate pair is either a repeat, skipped by the lossless
  // int8 bound, or verified exactly.
  EXPECT_EQ(result.metrics.Get("lsh.join.candidate_pairs"),
            result.metrics.Get("lsh.join.verified_pairs") +
                result.metrics.Get("lsh.join.duplicate_pairs") +
                result.metrics.Get("lsh.join.pairs_prefiltered"));
  // Each pair verified at most once: verified count is bounded by the
  // number of distinct (query, data) pairs.
  EXPECT_LE(result.metrics.Get("lsh.join.verified_pairs"),
            data.rows() * queries.rows());
}

// --- Bucket join parity against the per-table reference loop ---

// The original single-threaded bucket join, kept verbatim as the oracle:
// one ConcatenatedLshFunction per table drawn inside the loop, node-map
// buckets, and a global set of verified pairs.
BucketJoinResult ReferenceBucketJoin(const LshFamily& family,
                                     const Matrix& hash_data,
                                     const Matrix& data,
                                     const Matrix& hash_queries,
                                     const Matrix& queries,
                                     double cs_threshold, bool is_signed,
                                     LshTableParams params, Rng* rng) {
  BucketJoinResult result;
  result.per_query.resize(queries.rows());
  std::size_t candidate_pairs = 0;
  std::size_t verified_pairs = 0;
  std::size_t duplicate_pairs = 0;
  std::size_t prefiltered_pairs = 0;
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  std::vector<QuantizedVector> qqueries;
  qqueries.reserve(queries.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    qqueries.push_back(QuantizeVector(queries.Row(qi)));
  }
  std::unordered_set<std::uint64_t> verified;
  for (std::size_t table = 0; table < params.l; ++table) {
    const ConcatenatedLshFunction function(family, params.k, rng);
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
    for (std::size_t i = 0; i < hash_data.rows(); ++i) {
      buckets[function.HashData(hash_data.Row(i))].push_back(
          static_cast<std::uint32_t>(i));
    }
    for (std::size_t qi = 0; qi < hash_queries.rows(); ++qi) {
      const auto it = buckets.find(function.HashQuery(hash_queries.Row(qi)));
      if (it == buckets.end()) continue;
      for (std::uint32_t di : it->second) {
        ++candidate_pairs;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(qi) << 32) | di;
        if (!verified.insert(key).second) {
          ++duplicate_pairs;
          continue;
        }
        const QuantizedVector& qq = qqueries[qi];
        const double est =
            static_cast<double>(kernels::DotI8(
                {qdata.RowCodes(di), data.cols()}, qq.codes)) *
            qdata.RowScale(di) * qq.scale;
        const double bound = qdata.ErrorBound(di, qq);
        const double ceiling = is_signed ? est + bound : std::abs(est) + bound;
        if (ceiling < cs_threshold) {
          ++prefiltered_pairs;
          continue;
        }
        ++verified_pairs;
        const double raw = kernels::Dot(data.Row(di), queries.Row(qi));
        const double score = is_signed ? raw : std::abs(raw);
        if (score < cs_threshold) continue;
        auto& best = result.per_query[qi];
        if (!best.has_value() || score > best->second ||
            (score == best->second && di < best->first)) {
          best = std::make_pair(static_cast<std::size_t>(di), score);
        }
      }
    }
  }
  result.metrics.Set("lsh.join.candidate_pairs", candidate_pairs);
  result.metrics.Set("lsh.join.verified_pairs", verified_pairs);
  result.metrics.Set("lsh.join.duplicate_pairs", duplicate_pairs);
  result.metrics.Set("lsh.join.pairs_prefiltered", prefiltered_pairs);
  return result;
}

void ExpectSameJoin(const BucketJoinResult& got,
                    const BucketJoinResult& expected) {
  ASSERT_EQ(got.per_query.size(), expected.per_query.size());
  for (std::size_t q = 0; q < expected.per_query.size(); ++q) {
    ASSERT_EQ(got.per_query[q], expected.per_query[q]) << "query " << q;
  }
  for (const char* name :
       {"lsh.join.candidate_pairs", "lsh.join.verified_pairs",
        "lsh.join.duplicate_pairs", "lsh.join.pairs_prefiltered"}) {
    EXPECT_EQ(got.metrics.Get(name), expected.metrics.Get(name)) << name;
  }
}

// Pools the parity cases run under: none, one worker (inline), four.
class BucketJoinParityTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (GetParam() > 0) pool_ = std::make_unique<ThreadPool>(GetParam());
  }
  ThreadPool* pool() const { return pool_.get(); }

 private:
  std::unique_ptr<ThreadPool> pool_;
};

TEST_P(BucketJoinParityTest, SimHashMatchesReference) {
  Rng rng(31);
  const PlantedInstance instance =
      MakePlantedInstance(700, 160, 8, 0.9, 1.0, &rng);
  const SimHashFamily family(8);
  const LshTableParams params{.k = 4, .l = 9};
  for (const bool is_signed : {true, false}) {
    Rng reference_rng(5);
    const BucketJoinResult expected = ReferenceBucketJoin(
        family, instance.data, instance.data, instance.queries,
        instance.queries, 0.5, is_signed, params, &reference_rng);
    Rng join_rng(5);
    const BucketJoinResult got = LshBucketJoin(
        family, instance.data, instance.data, instance.queries,
        instance.queries, 0.8, 0.5, is_signed, params, &join_rng, pool());
    ExpectSameJoin(got, expected);
    // Both consumed the same draws.
    EXPECT_EQ(join_rng.NextUint64(), reference_rng.NextUint64());
    // The case exercises every branch of the accounting.
    EXPECT_GT(expected.metrics.Get("lsh.join.duplicate_pairs"), 0u);
    EXPECT_GT(expected.metrics.Get("lsh.join.pairs_prefiltered"), 0u);
    EXPECT_GT(expected.metrics.Get("lsh.join.verified_pairs"), 0u);
    std::size_t matched = 0;
    for (const auto& match : expected.per_query) matched += match.has_value();
    EXPECT_GT(matched, 0u);
  }
}

TEST_P(BucketJoinParityTest, TransformedFamilyMatchesPretransformedReference) {
  // The dual-ball ALSH through TransformedLshFamily, against the
  // reference run on pre-transformed rows under the base family.
  Rng rng(32);
  const PlantedInstance instance =
      MakePlantedInstance(700, 160, 8, 0.9, 1.0, &rng);
  const DualBallTransform transform(8, 1.0);
  const SimHashFamily base(transform.output_dim());
  const TransformedLshFamily family(&transform, &base);
  const LshTableParams params{.k = 5, .l = 8};
  const Matrix hash_data = transform.TransformDataset(instance.data);
  const Matrix hash_queries = transform.TransformQueries(instance.queries);

  Rng reference_rng(6);
  const BucketJoinResult expected = ReferenceBucketJoin(
      base, hash_data, instance.data, hash_queries, instance.queries, 0.5,
      /*is_signed=*/true, params, &reference_rng);
  Rng join_rng(6);
  const BucketJoinResult got = LshBucketJoin(
      family, instance.data, instance.data, instance.queries,
      instance.queries, 0.8, 0.5, /*is_signed=*/true, params, &join_rng,
      pool());
  ExpectSameJoin(got, expected);
  EXPECT_GT(expected.metrics.Get("lsh.join.verified_pairs"), 0u);

  // The reference through the transformed family itself agrees too.
  Rng family_rng(6);
  ExpectSameJoin(got, ReferenceBucketJoin(family, instance.data,
                                          instance.data, instance.queries,
                                          instance.queries, 0.5, true,
                                          params, &family_rng));
}

INSTANTIATE_TEST_SUITE_P(Pools, BucketJoinParityTest,
                         ::testing::Values(0u, 1u, 4u),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(BucketJoinTest, TransformedKeysEqualBaseKeysOnTransformedRows) {
  Rng rng(33);
  const Matrix points = MakeUnitBallGaussian(50, 6, 0.2, &rng);
  const DualBallTransform transform(6, 1.0);
  const SimHashFamily base(transform.output_dim());
  const TransformedLshFamily family(&transform, &base);
  EXPECT_EQ(family.Split().transform, &transform);
  EXPECT_EQ(family.Split().base, &base);
  EXPECT_EQ(base.Split().transform, nullptr);
  EXPECT_EQ(base.Split().base, &base);

  Rng family_rng(7);
  Rng base_rng(7);
  const ConcatenatedLshFunction through_family(family, 12, &family_rng);
  const ConcatenatedLshFunction through_base(base, 12, &base_rng);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const auto row = points.Row(i);
    EXPECT_EQ(through_family.HashData(row),
              through_base.HashData(transform.TransformData(row)));
    EXPECT_EQ(through_family.HashQuery(row),
              through_base.HashQuery(transform.TransformQuery(row)));
  }
}

TEST(RhoTest, L2AlshNumericDecreasesWithS) {
  double previous = 1.0;
  for (double s : {0.2, 0.4, 0.6, 0.8}) {
    const double rho = RhoL2AlshNumeric(s, 0.5);
    EXPECT_LE(rho, previous + 1e-9);
    previous = rho;
  }
}

}  // namespace
}  // namespace ips
