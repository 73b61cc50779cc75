// Tests for top-k MIPS retrieval (core/top_k.h and the ball tree's
// k-best branch-and-bound).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "tree/mips_tree.h"

namespace ips {
namespace {

struct TopKCase {
  std::size_t n;
  std::size_t dim;
  std::size_t k;
};

class TopKSweep : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKSweep, BallTreeMatchesBruteForce) {
  const auto [n, dim, k] = GetParam();
  Rng rng(5);
  const Matrix data = MakeUnitBallGaussian(n, dim, 0.2, &rng);
  const MipsBallTree tree(data, 8, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(dim);
    for (double& v : q) v = rng.NextGaussian();
    const auto brute = TopKBruteForce(data, q, k, /*is_signed=*/true);
    const auto via_tree = TopKBallTree(tree, data, q, k);
    ASSERT_EQ(brute.size(), via_tree.size());
    for (std::size_t t = 0; t < brute.size(); ++t) {
      EXPECT_NEAR(brute[t].value, via_tree[t].value, 1e-9)
          << "rank " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopKSweep,
                         ::testing::Values(TopKCase{50, 8, 1},
                                           TopKCase{200, 8, 5},
                                           TopKCase{200, 16, 10},
                                           TopKCase{500, 4, 3},
                                           TopKCase{64, 8, 64},
                                           TopKCase{30, 8, 100}));

TEST(TopKTest, BruteForceOrderingAndSize) {
  Rng rng(7);
  const Matrix data = MakeUnitBallGaussian(40, 6, 0.3, &rng);
  std::vector<double> q(6);
  for (double& v : q) v = rng.NextGaussian();
  const auto top = TopKBruteForce(data, q, 10, true);
  ASSERT_EQ(top.size(), 10u);
  for (std::size_t t = 1; t < top.size(); ++t) {
    EXPECT_GE(top[t - 1].value, top[t].value);
  }
  // Distinct indices.
  std::set<std::size_t> indices;
  for (const auto& match : top) indices.insert(match.index);
  EXPECT_EQ(indices.size(), top.size());
}

TEST(TopKTest, KLargerThanNReturnsAll) {
  Rng rng(11);
  const Matrix data = MakeUnitBallGaussian(7, 4, 0.3, &rng);
  std::vector<double> q(4, 1.0);
  EXPECT_EQ(TopKBruteForce(data, q, 100, true).size(), 7u);
}

TEST(TopKTest, UnsignedRanksByMagnitude) {
  Matrix data(3, 2);
  data.At(0, 0) = 0.5;    // +0.5
  data.At(1, 0) = -0.9;   // -0.9, |.| = 0.9
  data.At(2, 0) = 0.7;    // +0.7
  std::vector<double> q = {1.0, 0.0};
  const auto top = TopKBruteForce(data, q, 2, /*is_signed=*/false);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].index, 1u);  // |-0.9| wins
  EXPECT_EQ(top[1].index, 2u);
}

TEST(TopKTest, LshCandidatesRecoverPlantedTopOne) {
  Rng rng(13);
  const std::size_t kDim = 20;
  const PlantedInstance planted =
      MakePlantedInstance(500, 20, kDim, 0.9, 1.0, &rng);
  const DualBallTransform transform(kDim, 1.0);
  const SimHashFamily base(transform.output_dim());
  LshTableParams params;
  params.k = 8;
  params.l = 48;
  const LshMipsIndex index(planted.data, &transform, base, params, &rng);
  std::size_t hits = 0;
  for (std::size_t qi = 0; qi < planted.queries.rows(); ++qi) {
    const auto candidates = index.Candidates(planted.queries.Row(qi));
    const auto top = TopKFromCandidates(planted.data,
                                        planted.queries.Row(qi), candidates,
                                        5, /*is_signed=*/true);
    for (const auto& match : top) {
      if (match.index == planted.plants[qi]) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(hits, 18u);
}

TEST(TopKTest, TiesBreakTowardSmallerIndexDeterministically) {
  // Five identical rows plus one weaker row: every permutation of heap
  // evictions must still report indices 0..4 in ascending order.
  Matrix data(6, 3);
  for (std::size_t i = 0; i < 5; ++i) {
    data.At(i, 0) = 1.0;
  }
  data.At(5, 0) = 0.5;
  const std::vector<double> q = {1.0, 0.0, 0.0};
  const auto top = TopKBruteForce(data, q, 4, /*is_signed=*/true);
  ASSERT_EQ(top.size(), 4u);
  for (std::size_t t = 0; t < top.size(); ++t) {
    EXPECT_EQ(top[t].index, t);
    EXPECT_DOUBLE_EQ(top[t].value, 1.0);
  }
}

TEST(TopKTest, TreeTieOrderMatchesBruteForce) {
  // Duplicate rows force score ties; the tree's top-k must return the
  // same indices in the same order as the deterministic brute force,
  // regardless of tree structure.
  Rng rng(18);
  Matrix data = MakeUnitBallGaussian(100, 6, 0.2, &rng);
  for (std::size_t i = 0; i < 40; ++i) {
    const std::size_t src = i;
    const std::size_t dst = 50 + i;
    for (std::size_t j = 0; j < data.cols(); ++j) {
      data.At(dst, j) = data.At(src, j);
    }
  }
  const MipsBallTree tree(data, 8, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(6);
    for (double& v : q) v = rng.NextGaussian();
    const auto exact = TopKBruteForce(data, q, 7, /*is_signed=*/true);
    const auto via_tree = tree.QueryTopK(q, 7);
    ASSERT_EQ(via_tree.size(), exact.size());
    for (std::size_t t = 0; t < exact.size(); ++t) {
      EXPECT_EQ(via_tree[t].first, exact[t].index) << "rank " << t;
      EXPECT_NEAR(via_tree[t].second, exact[t].value, 1e-12);
    }
  }
}

// Full-sort reference for the partial-select top-k: every row scored
// by the same MatVec the brute force uses, sorted under (value desc,
// index asc), truncated to k.
std::vector<SearchMatch> FullSortTopK(const Matrix& data,
                                      std::span<const double> q,
                                      std::size_t k, bool is_signed) {
  std::vector<double> raw(data.rows());
  kernels::MatVec(data, q, raw);
  std::vector<SearchMatch> all;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    all.push_back({i, is_signed ? raw[i] : std::abs(raw[i])});
  }
  std::sort(all.begin(), all.end(),
            [](const SearchMatch& a, const SearchMatch& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.index < b.index;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameMatches(const std::vector<SearchMatch>& got,
                       const std::vector<SearchMatch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    EXPECT_EQ(got[t].index, want[t].index) << "rank " << t;
    EXPECT_EQ(got[t].value, want[t].value) << "rank " << t;
  }
}

TEST(TopKTest, PartialSelectMatchesFullSortReference) {
  // 120 rows in runs of three identical rows (score ties at every
  // cut), plus sign-flipped copies so the unsigned scores tie across
  // signs too. k sweeps the edges: 1, a cut inside a tie run, n, > n.
  Rng rng(19);
  Matrix data(120, 5);
  for (std::size_t r = 0; r < 60; ++r) {
    if (r % 3 == 0) {
      for (double& v : data.Row(r)) v = rng.NextGaussian();
    } else {
      std::copy(data.Row(r - 1).begin(), data.Row(r - 1).end(),
                data.Row(r).begin());
    }
    for (std::size_t j = 0; j < data.cols(); ++j) {
      data.At(r + 60, j) = -data.At(r, j);
    }
  }
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> q(data.cols());
    for (double& v : q) v = rng.NextGaussian();
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < data.rows(); i += 2) candidates.push_back(i);
    for (const bool is_signed : {true, false}) {
      for (const std::size_t k : {1UL, 2UL, 7UL, 119UL, 120UL, 500UL}) {
        SCOPED_TRACE("signed=" + std::to_string(is_signed) +
                     " k=" + std::to_string(k));
        ExpectSameMatches(TopKBruteForce(data, q, k, is_signed),
                          FullSortTopK(data, q, k, is_signed));
        // The candidate flavor over every other row: same order, same
        // exact scores, restricted to the candidate set.
        std::vector<SearchMatch> want;
        for (const SearchMatch& match :
             FullSortTopK(data, q, data.rows(), is_signed)) {
          if (match.index % 2 == 0 && want.size() < k) want.push_back(match);
        }
        ExpectSameMatches(
            TopKFromCandidates(data, q, candidates, k, is_signed), want);
      }
    }
  }
}

TEST(TopKTest, StreamingBruteForceMatchesKBestAcrossBlocks) {
  // TopKBruteForce streams the scan through a heap block by block;
  // TopKFromCandidates over every row still scores all rows and runs
  // KBest's select-then-sort. Rows repeat every 250, so each score ties
  // with rows in other blocks, and sign-flipped copies make the
  // unsigned scores tie across signs too.
  Rng rng(23);
  Matrix data(2000, 6);
  for (std::size_t r = 0; r < 1000; ++r) {
    for (std::size_t j = 0; j < data.cols(); ++j) {
      data.At(r, j) = r < 250 ? rng.NextGaussian() : data.At(r % 250, j);
      data.At(r + 1000, j) = -data.At(r, j);
    }
  }
  std::vector<std::size_t> every_row(data.rows());
  for (std::size_t i = 0; i < every_row.size(); ++i) every_row[i] = i;
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> q(data.cols());
    for (double& v : q) v = rng.NextGaussian();
    for (const bool is_signed : {true, false}) {
      for (const std::size_t k : {1UL, 3UL, 9UL, 100UL, 1999UL, 2000UL,
                                  3000UL}) {
        SCOPED_TRACE("signed=" + std::to_string(is_signed) +
                     " k=" + std::to_string(k));
        ExpectSameMatches(
            TopKBruteForce(data, q, k, is_signed),
            TopKFromCandidates(data, q, every_row, k, is_signed));
      }
    }
  }
}

TEST(TopKTest, TreeTopOneMatchesQueryMax) {
  Rng rng(17);
  const Matrix data = MakeUnitBallGaussian(300, 10, 0.2, &rng);
  const MipsBallTree tree(data, 16, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(10);
    for (double& v : q) v = rng.NextGaussian();
    const auto top1 = tree.QueryTopK(q, 1);
    const MipsResult max = tree.QueryMax(q);
    ASSERT_EQ(top1.size(), 1u);
    EXPECT_EQ(top1[0].first, max.index);
    EXPECT_NEAR(top1[0].second, max.value, 1e-12);
  }
}

}  // namespace
}  // namespace ips
