// Tests for src/core: dataset generators, the MipsIndex
// implementations, join drivers, and the Definition 1 contract verifier.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/norm_range_index.h"
#include "core/similarity_join.h"
#include "core/symmetric_index.h"
#include "linalg/kernels.h"
#include "lsh/simhash.h"
#include "rng/random.h"
#include "util/thread_pool.h"

namespace ips {
namespace {

TEST(DatasetTest, UnitBallGaussianNorms) {
  Rng rng(3);
  const Matrix points = MakeUnitBallGaussian(200, 16, 0.5, &rng);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    const double norm = kernels::Norm(points.Row(i));
    EXPECT_GE(norm, 0.5 - 1e-9);
    EXPECT_LE(norm, 1.0 + 1e-9);
  }
}

TEST(DatasetTest, LatentFactorNormsDecay) {
  Rng rng(5);
  const Matrix points = MakeLatentFactorVectors(100, 8, 0.5, &rng);
  EXPECT_NEAR(kernels::Norm(points.Row(0)), 1.0, 1e-9);
  EXPECT_GT(kernels::Norm(points.Row(10)), kernels::Norm(points.Row(90)));
  EXPECT_NEAR(kernels::Norm(points.Row(63)), std::pow(64.0, -0.5), 1e-9);
}

TEST(DatasetTest, BinarySetsHaveExactWeight) {
  Rng rng(7);
  const Matrix points = MakeBinarySets(50, 64, 12, &rng);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    double weight = 0.0;
    for (double v : points.Row(i)) {
      EXPECT_TRUE(v == 0.0 || v == 1.0);
      weight += v;
    }
    EXPECT_EQ(weight, 12.0);
  }
}

TEST(DatasetTest, PlantedInstanceHasStrongPairs) {
  Rng rng(11);
  const PlantedInstance instance =
      MakePlantedInstance(300, 20, 32, 0.8, 1.0, &rng);
  for (std::size_t i = 0; i < 20; ++i) {
    const double value = kernels::Dot(instance.data.Row(instance.plants[i]),
                             instance.queries.Row(i));
    EXPECT_GT(value, 0.6);  // close to target 0.8 minus noise
    EXPECT_LE(kernels::Norm(instance.queries.Row(i)), 1.0 + 1e-9);
  }
}

class IndexAgreementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(13);
    data_ = MakeUnitBallGaussian(400, 12, 0.3, &rng);
    queries_ = MakeUnitBallGaussian(30, 12, 0.8, &rng);
  }
  Matrix data_;
  Matrix queries_;
};

TEST_F(IndexAgreementTest, BruteForceFindsTrueMax) {
  const BruteForceIndex index(data_);
  JoinSpec spec;
  spec.s = 0.0;
  spec.c = 0.5;
  spec.is_signed = true;
  std::size_t products = 0;
  for (std::size_t qi = 0; qi < queries_.rows(); ++qi) {
    QueryStats stats;
    const auto match = index.Search(queries_.Row(qi), spec, &stats);
    products += stats.dot_products;
    ASSERT_TRUE(match.has_value());
    double truth = -1e300;
    for (std::size_t i = 0; i < data_.rows(); ++i) {
      truth = std::max(truth, kernels::Dot(data_.Row(i), queries_.Row(qi)));
    }
    EXPECT_NEAR(match->value, truth, 1e-9);
  }
  EXPECT_EQ(products, queries_.rows() * data_.rows());
}

TEST_F(IndexAgreementTest, TreeAgreesWithBruteForce) {
  Rng rng(17);
  const BruteForceIndex brute(data_);
  const TreeMipsIndex tree(data_, 8, &rng);
  for (const bool is_signed : {true, false}) {
    JoinSpec spec;
    spec.s = 0.0;
    spec.c = 0.9;
    spec.is_signed = is_signed;
    for (std::size_t qi = 0; qi < queries_.rows(); ++qi) {
      const auto brute_match = brute.Search(queries_.Row(qi), spec);
      const auto tree_match = tree.Search(queries_.Row(qi), spec);
      ASSERT_EQ(brute_match.has_value(), tree_match.has_value());
      if (brute_match.has_value()) {
        EXPECT_NEAR(brute_match->value, tree_match->value, 1e-9);
      }
    }
  }
}

TEST_F(IndexAgreementTest, LshIndexFindsPlantedMatches) {
  Rng rng(19);
  const PlantedInstance planted =
      MakePlantedInstance(500, 25, 24, 0.9, 1.0, &rng);
  const DualBallTransform transform(24, 1.0);
  const SimHashFamily base(transform.output_dim());
  LshTableParams params;
  params.k = 8;
  params.l = 32;
  const LshMipsIndex index(planted.data, &transform, base, params, &rng);
  JoinSpec spec;
  spec.s = 0.8;
  spec.c = 0.7;
  spec.is_signed = true;
  std::size_t found = 0;
  std::size_t candidates = 0;
  for (std::size_t qi = 0; qi < planted.queries.rows(); ++qi) {
    QueryStats stats;
    const auto match = index.Search(planted.queries.Row(qi), spec, &stats);
    candidates += stats.candidates;
    if (match.has_value() && match->value >= spec.cs()) ++found;
  }
  // High recall expected on near-duplicate planted pairs.
  EXPECT_GE(found, 22u);
  const double mean_candidates = static_cast<double>(candidates) /
                                 static_cast<double>(planted.queries.rows());
  EXPECT_GT(mean_candidates, 0.0);
  EXPECT_LT(mean_candidates, 250.0);  // prunes most of the data
}

TEST_F(IndexAgreementTest, SketchIndexAnswersUnsignedOnly) {
  Rng rng(23);
  SketchMipsParams params;
  params.copies = 5;
  const SketchIndex index(data_, SketchConfig{params, {}}, &rng);
  JoinSpec spec;
  spec.s = 0.1;
  spec.c = 0.5;
  spec.is_signed = true;
  EXPECT_DEATH(index.Search(queries_.Row(0), spec), "unsigned");
}

TEST(ExactJoinTest, ThresholdRespected) {
  Rng rng(29);
  const PlantedInstance planted =
      MakePlantedInstance(100, 10, 16, 0.9, 1.0, &rng);
  JoinSpec spec;
  spec.s = 0.7;
  spec.c = 0.8;
  spec.is_signed = true;
  const JoinResult result =
      ExactJoin(planted.data, planted.queries, spec, nullptr);
  EXPECT_EQ(result.per_query.size(), 10u);
  EXPECT_EQ(result.NumMatched(), 10u);  // all planted pairs exceed s
  for (const auto& match : result.per_query) {
    ASSERT_TRUE(match.has_value());
    EXPECT_GE(match->value, spec.s);
  }
  EXPECT_EQ(result.inner_products, 100u * 10u);
}

TEST(ExactJoinTest, ParallelMatchesSequential) {
  Rng rng(31);
  const Matrix data = MakeUnitBallGaussian(150, 8, 0.2, &rng);
  const Matrix queries = MakeUnitBallGaussian(40, 8, 0.7, &rng);
  JoinSpec spec;
  spec.s = 0.2;
  spec.c = 0.5;
  spec.is_signed = false;
  ThreadPool pool(4);
  const JoinResult sequential = ExactJoin(data, queries, spec, nullptr);
  const JoinResult parallel = ExactJoin(data, queries, spec, &pool);
  ASSERT_EQ(sequential.per_query.size(), parallel.per_query.size());
  for (std::size_t i = 0; i < sequential.per_query.size(); ++i) {
    ASSERT_EQ(sequential.per_query[i].has_value(),
              parallel.per_query[i].has_value());
    if (sequential.per_query[i].has_value()) {
      EXPECT_EQ(sequential.per_query[i]->data,
                parallel.per_query[i]->data);
    }
  }
}

TEST(IndexJoinTest, BruteForceIndexJoinEqualsExactJoin) {
  Rng rng(37);
  const Matrix data = MakeUnitBallGaussian(120, 8, 0.2, &rng);
  const Matrix queries = MakeUnitBallGaussian(15, 8, 0.9, &rng);
  JoinSpec spec;
  spec.s = 0.3;
  spec.c = 1.0 - 1e-12;  // cs == s: index join must match exact join
  spec.is_signed = true;
  const BruteForceIndex index(data);
  const JoinResult via_index = IndexJoin(index, queries, spec);
  const JoinResult exact = ExactJoin(data, queries, spec, nullptr);
  ASSERT_EQ(via_index.per_query.size(), exact.per_query.size());
  for (std::size_t i = 0; i < exact.per_query.size(); ++i) {
    EXPECT_EQ(via_index.per_query[i].has_value(),
              exact.per_query[i].has_value());
  }
}

// The six indexes over one seeded planted instance. The queries are the
// planted ones plus four data rows, so the symmetric index's membership
// step answers some of them.
class SixIndexesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(41);
    planted_ = MakePlantedInstance(300, 20, 12, 0.9, 1.0, &rng);
    queries_ = planted_.queries;
    for (std::size_t i = 0; i < 4; ++i) {
      queries_.AppendRow(planted_.data.Row(i));
    }
    const Matrix& data = planted_.data;
    brute_ = std::make_unique<BruteForceIndex>(data);
    Rng tree_rng(43);
    tree_ = std::make_unique<TreeMipsIndex>(data, 8, &tree_rng);
    Rng lsh_rng(47);
    lsh_ = std::make_unique<LshMipsIndex>(data, &transform_, base_,
                                          LshTableParams{.k = 6, .l = 16},
                                          &lsh_rng);
    Rng sketch_rng(53);
    SketchMipsParams sketch_params;
    sketch_params.copies = 5;
    sketch_ = std::make_unique<SketchIndex>(
        data, SketchConfig{sketch_params, {}}, &sketch_rng);
    Rng symmetric_rng(59);
    symmetric_ = std::make_unique<SymmetricMipsIndex>(
        data, 0.1, LshTableParams{.k = 6, .l = 16}, &symmetric_rng);
    Rng norm_rng(61);
    NormRangeParams norm_params;
    norm_params.bucket_size = 32;
    norm_params.lsh_cosine_threshold = 0.75;
    norm_range_ =
        std::make_unique<NormRangeIndex>(data, norm_params, &norm_rng);
  }

  // The sketch index searches unsigned; every other one signed.
  JoinSpec SpecFor(const MipsIndex* index) const {
    JoinSpec spec;
    spec.s = 0.6;
    spec.c = 0.7;
    spec.is_signed = index != sketch_.get();
    return spec;
  }

  PlantedInstance planted_;
  Matrix queries_;
  const DualBallTransform transform_{12, 1.0};
  const SimHashFamily base_{transform_.output_dim()};
  std::unique_ptr<BruteForceIndex> brute_;
  std::unique_ptr<TreeMipsIndex> tree_;
  std::unique_ptr<LshMipsIndex> lsh_;
  std::unique_ptr<SketchIndex> sketch_;
  std::unique_ptr<SymmetricMipsIndex> symmetric_;
  std::unique_ptr<NormRangeIndex> norm_range_;
};

// IndexJoin's work is the sum of its Search calls' dot_products, and
// answers and work are pinned to the values the per-index counters
// reported before Search took a stats out-parameter.
TEST_F(SixIndexesTest, IndexJoinWorkIsSumOfPerCallStats) {
  struct Pinned {
    const MipsIndex* index;
    std::size_t inner_products;
    std::size_t matched;
    std::size_t data_index_sum;
  };
  // The symmetric index hashes the incoherent embedding of each row
  // through the dispatched dots, which round differently under the
  // scalar and AVX2 tables (kernels.h: they agree to rounding, not
  // bitwise), so a few rows land in other buckets and its candidate
  // count is pinned per table. Its answers are the same under both.
  const bool scalar = std::string_view(kernels::ActiveIsaName()) == "scalar";
  const Pinned pinned[] = {
      {brute_.get(), 7200, 21, 3517},
      {tree_.get(), 798, 21, 3517},
      {lsh_.get(), 1698, 21, 3517},
      {sketch_.get(), 24, 18, 3580},
      {symmetric_.get(), scalar ? 1791u : 1750u, 21, 3517},
      {norm_range_.get(), 675, 21, 3517},
  };
  for (const Pinned& want : pinned) {
    SCOPED_TRACE(want.index->Name());
    const JoinSpec spec = SpecFor(want.index);
    std::size_t per_call_dots = 0;
    for (std::size_t qi = 0; qi < queries_.rows(); ++qi) {
      QueryStats stats;
      (void)want.index->Search(queries_.Row(qi), spec, &stats);
      per_call_dots += stats.dot_products;
    }
    const JoinResult join = IndexJoin(*want.index, queries_, spec);
    std::size_t data_index_sum = 0;
    for (const auto& match : join.per_query) {
      if (match.has_value()) data_index_sum += match->data;
    }
    EXPECT_EQ(join.inner_products, per_call_dots);
    EXPECT_EQ(join.inner_products, want.inner_products);
    EXPECT_EQ(join.NumMatched(), want.matched);
    EXPECT_EQ(data_index_sum, want.data_index_sum);
  }
}

// Search mutates nothing: calls racing on a thread pool return the
// same matches and per-call work as a serial run.
TEST_F(SixIndexesTest, ConcurrentSearchMatchesSerial) {
  constexpr std::size_t kRounds = 8;
  ThreadPool pool(4);
  const std::size_t m = queries_.rows();
  const std::vector<const MipsIndex*> indexes = {
      brute_.get(), tree_.get(), lsh_.get(), norm_range_.get()};
  for (const MipsIndex* index : indexes) {
    SCOPED_TRACE(index->Name());
    const JoinSpec spec = SpecFor(index);
    std::vector<std::optional<SearchMatch>> serial(m);
    std::vector<std::size_t> serial_dots(m);
    for (std::size_t qi = 0; qi < m; ++qi) {
      QueryStats stats;
      serial[qi] = index->Search(queries_.Row(qi), spec, &stats);
      serial_dots[qi] = stats.dot_products;
    }
    std::vector<std::optional<SearchMatch>> parallel(m * kRounds);
    std::vector<std::size_t> parallel_dots(m * kRounds);
    ParallelFor(&pool, m * kRounds, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        QueryStats stats;
        parallel[i] = index->Search(queries_.Row(i % m), spec, &stats);
        parallel_dots[i] = stats.dot_products;
      }
    });
    for (std::size_t i = 0; i < m * kRounds; ++i) {
      const std::size_t qi = i % m;
      ASSERT_EQ(parallel[i].has_value(), serial[qi].has_value()) << i;
      if (serial[qi].has_value()) {
        EXPECT_EQ(parallel[i]->index, serial[qi]->index) << i;
        EXPECT_EQ(parallel[i]->value, serial[qi]->value) << i;
      }
      EXPECT_EQ(parallel_dots[i], serial_dots[qi]) << i;
    }
  }
}

// The validated join rejects a spec the index cannot search instead of
// tripping Search's precondition check.
TEST_F(SixIndexesTest, IndexJoinCheckedRejectsUnsearchableSpec) {
  JoinSpec unsigned_spec;
  unsigned_spec.is_signed = false;
  const auto signed_sketch = IndexJoinChecked(*sketch_, queries_, JoinSpec{});
  EXPECT_EQ(signed_sketch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(IndexJoinChecked(*sketch_, queries_, unsigned_spec).ok());
  const auto unsigned_norm =
      IndexJoinChecked(*norm_range_, queries_, unsigned_spec);
  EXPECT_EQ(unsigned_norm.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(IndexJoinChecked(*norm_range_, queries_, JoinSpec{}).ok());
}

TEST(VerifyJoinContractTest, CountsViolations) {
  JoinSpec spec;
  spec.s = 1.0;
  spec.c = 0.5;
  JoinResult truth;
  truth.per_query = {JoinMatch{0, 5, 1.2},   // promised
                     JoinMatch{1, 6, 0.4},   // below s: not promised
                     JoinMatch{2, 7, 2.0},   // promised
                     std::nullopt};          // no match at all
  JoinResult reported;
  reported.per_query = {JoinMatch{0, 5, 0.9},  // >= cs: OK
                        std::nullopt,          // not promised: OK
                        JoinMatch{2, 9, 0.3},  // < cs: violation
                        std::nullopt};
  double recall = 0.0;
  const std::size_t violations =
      VerifyJoinContract(reported, truth, spec, &recall);
  EXPECT_EQ(violations, 1u);
  EXPECT_DOUBLE_EQ(recall, 0.5);
}

TEST(VerifyJoinContractTest, PerfectResultHasNoViolations) {
  JoinSpec spec;
  spec.s = 0.5;
  spec.c = 0.5;
  JoinResult truth;
  truth.per_query = {JoinMatch{0, 1, 0.8}};
  double recall = 0.0;
  EXPECT_EQ(VerifyJoinContract(truth, truth, spec, &recall), 0u);
  EXPECT_DOUBLE_EQ(recall, 1.0);
}

}  // namespace
}  // namespace ips
