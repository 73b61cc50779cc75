// Tests for src/tree: the exact ball-tree MIPS baseline must agree with
// brute force on every query while pruning work; the median-split build
// must stay balanced and reproducible across pool sizes; and Restore
// must reject artifacts whose ranges would let search skip rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/dataset.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "rng/random.h"
#include "tree/mips_tree.h"
#include "util/thread_pool.h"

namespace ips {
namespace {

Matrix RandomMatrix(std::size_t n, std::size_t d, Rng* rng) {
  Matrix m(n, d);
  for (double& v : m.data()) v = rng->NextGaussian();
  return m;
}

std::pair<std::size_t, double> BruteMax(const Matrix& data,
                                        std::span<const double> q,
                                        bool absolute) {
  std::size_t best_index = 0;
  double best = -1e300;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    double v = kernels::Dot(data.Row(i), q);
    if (absolute) v = std::abs(v);
    if (v > best) {
      best = v;
      best_index = i;
    }
  }
  return {best_index, best};
}

struct TreeCase {
  std::size_t n;
  std::size_t d;
  std::size_t leaf;
};

class BallTreeSweep : public ::testing::TestWithParam<TreeCase> {};

TEST_P(BallTreeSweep, SignedQueryMatchesBruteForce) {
  const auto [n, d, leaf] = GetParam();
  Rng rng(7);
  const Matrix data = RandomMatrix(n, d, &rng);
  const MipsBallTree tree(data, leaf, &rng);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> q(d);
    for (double& v : q) v = rng.NextGaussian();
    const MipsResult result = tree.QueryMax(q);
    const auto [truth_index, truth_value] = BruteMax(data, q, false);
    EXPECT_NEAR(result.value, truth_value, 1e-9);
    EXPECT_EQ(result.index, truth_index);
  }
}

TEST_P(BallTreeSweep, UnsignedQueryMatchesBruteForce) {
  const auto [n, d, leaf] = GetParam();
  Rng rng(11);
  const Matrix data = RandomMatrix(n, d, &rng);
  const MipsBallTree tree(data, leaf, &rng);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> q(d);
    for (double& v : q) v = rng.NextGaussian();
    const MipsResult result = tree.QueryMaxAbs(q);
    const auto [truth_index, truth_value] = BruteMax(data, q, true);
    EXPECT_NEAR(result.value, truth_value, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BallTreeSweep,
                         ::testing::Values(TreeCase{1, 4, 4},
                                           TreeCase{10, 3, 2},
                                           TreeCase{100, 8, 8},
                                           TreeCase{500, 4, 16},
                                           TreeCase{300, 32, 8},
                                           TreeCase{512, 2, 1}));

TEST(BallTreeTest, PrunesInLowDimension) {
  // In 2-d with clustered data the bound should prune most leaves.
  Rng rng(13);
  const std::size_t kN = 2000;
  Matrix data(kN, 2);
  for (double& v : data.data()) v = rng.NextGaussian();
  const MipsBallTree tree(data, 8, &rng);
  std::size_t total_evaluated = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q = {rng.NextGaussian(), rng.NextGaussian()};
    total_evaluated += tree.QueryMax(q).evaluated;
  }
  // Far fewer than 20 * 2000 full evaluations.
  EXPECT_LT(total_evaluated, 20 * kN / 2);
}

TEST(BallTreeTest, HandlesDuplicatePoints) {
  Rng rng(17);
  Matrix data(64, 4);
  // All rows identical: the degenerate-split fallback must terminate.
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 4; ++j) data.At(i, j) = 1.0;
  }
  const MipsBallTree tree(data, 4, &rng);
  std::vector<double> q = {1.0, 0.0, 0.0, 0.0};
  const MipsResult result = tree.QueryMax(q);
  EXPECT_NEAR(result.value, 1.0, 1e-12);
}

TEST(BallTreeTest, NegativeInnerProductsHandled) {
  // Unsigned search must find a strongly *negative* inner product.
  Rng rng(19);
  Matrix data(50, 6);
  for (double& v : data.data()) v = 0.01 * rng.NextGaussian();
  for (std::size_t j = 0; j < 6; ++j) data.At(31, j) = -1.0;
  const MipsBallTree tree(data, 4, &rng);
  std::vector<double> q(6, 1.0);
  const MipsResult unsigned_result = tree.QueryMaxAbs(q);
  EXPECT_EQ(unsigned_result.index, 31u);
  EXPECT_NEAR(unsigned_result.value, 6.0, 1e-9);
  // The signed maximum is some noise vector, not row 31.
  const MipsResult signed_result = tree.QueryMax(q);
  EXPECT_NE(signed_result.index, 31u);
}

// Nodes on the longest root-to-leaf path.
std::size_t Depth(const MipsBallTree& tree, int index) {
  const MipsBallTree::Node& node = tree.nodes()[index];
  if (node.IsLeaf()) return 1;
  return 1 + std::max(Depth(tree, node.left), Depth(tree, node.right));
}

std::size_t DepthBound(std::size_t n, std::size_t leaf) {
  std::size_t splits = 0;
  while ((n + (std::size_t{1} << splits) - 1) >> splits > leaf) ++splits;
  return splits + 1;  // ceil(log2(n / leaf)) + 1
}

TEST(BallTreeBuildTest, DepthIsLogarithmicOnZipfNorms) {
  // Norms spread over orders of magnitude: splitting by nearer pivot
  // peeled the outliers off one at a time here.
  Rng rng(23);
  const Matrix data = MakeLatentFactorVectors(6000, 16, 1.0, &rng);
  for (const std::size_t leaf : {1u, 8u, 16u}) {
    const MipsBallTree tree(data, leaf, &rng);
    EXPECT_LE(Depth(tree, tree.root()), DepthBound(data.rows(), leaf))
        << "leaf " << leaf;
    for (const MipsBallTree::Node& node : tree.nodes()) {
      if (node.IsLeaf()) {
        EXPECT_LE(node.end - node.begin, leaf);
      }
    }
  }
}

TEST(BallTreeBuildTest, DepthIsLogarithmicOnDuplicateRows) {
  Rng rng(29);
  Matrix data(1000, 5);
  for (double& v : data.data()) v = 0.25;
  const MipsBallTree tree(data, 4, &rng);
  EXPECT_EQ(Depth(tree, tree.root()), DepthBound(1000, 4));
  std::vector<double> q = {1.0, -1.0, 2.0, 0.5, 0.0};
  const MipsResult best = tree.QueryMax(q);
  EXPECT_EQ(best.index, 0u);  // every row ties: the smallest index wins
  EXPECT_EQ(best.value, kernels::Dot(data.Row(0), q));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(BallTreeBuildTest, BuildIsIdenticalForEveryPoolSize) {
  // Large enough that the top nodes run their passes in several blocks
  // on the pool and the subtrees below are shaped by separate tasks.
  Rng data_rng(31);
  const Matrix data = MakeLatentFactorVectors(20000, 12, 1.0, &data_rng);
  ThreadPool inline_pool(0);
  ThreadPool serial(1);
  ThreadPool four(4);
  Rng rng_a(37);
  Rng rng_b(37);
  Rng rng_c(37);
  Rng rng_d(37);
  const MipsBallTree a(data, 8, &rng_a, &serial);
  const MipsBallTree b(data, 8, &rng_b, &four);
  const MipsBallTree c(data, 8, &rng_c);  // the build's own pool
  const MipsBallTree d(data, 8, &rng_d, &inline_pool);
  for (const MipsBallTree* other : {&b, &c, &d}) {
    EXPECT_EQ(a.root(), other->root());
    EXPECT_EQ(a.point_order(), other->point_order());
    ASSERT_EQ(a.num_nodes(), other->num_nodes());
    for (std::size_t i = 0; i < a.num_nodes(); ++i) {
      const MipsBallTree::Node& x = a.nodes()[i];
      const MipsBallTree::Node& y = other->nodes()[i];
      ASSERT_EQ(x.begin, y.begin) << "node " << i;
      ASSERT_EQ(x.end, y.end) << "node " << i;
      ASSERT_EQ(x.left, y.left) << "node " << i;
      ASSERT_EQ(x.right, y.right) << "node " << i;
      ASSERT_TRUE(SameBits(x.radius, y.radius)) << "node " << i;
      for (std::size_t c = 0; c < x.center.size(); ++c) {
        ASSERT_TRUE(SameBits(x.center[c], y.center[c])) << "node " << i;
      }
    }
  }
  // The rng is consumed identically too.
  EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64());
}

TEST(BallTreeBuildTest, TopKEqualsBruteForceBitwise) {
  Rng rng(41);
  Matrix data = MakeLatentFactorVectors(5000, 10, 1.0, &rng);
  // Duplicate a block of rows so exact ties occur.
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      data.At(4000 + i, c) = data.At(i, c);
    }
  }
  const MipsBallTree tree(data, 16, &rng);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q(data.cols());
    for (double& v : q) v = rng.NextGaussian();
    if (trial % 4 == 0) {
      // Aim at a duplicated row so the top answers tie.
      const auto row = data.Row(static_cast<std::size_t>(trial));
      q.assign(row.begin(), row.end());
    }
    for (const std::size_t k : {1u, 10u}) {
      const auto want = TopKBruteForce(data, q, k, /*is_signed=*/true);
      const auto got = tree.QueryTopK(q, k);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].index) << "trial " << trial;
        EXPECT_TRUE(SameBits(got[i].second, want[i].value));
      }
    }
    const MipsResult best = tree.QueryMax(q);
    const auto want = TopKBruteForce(data, q, 1, /*is_signed=*/true);
    EXPECT_EQ(best.index, want[0].index) << "trial " << trial;
    const MipsResult best_abs = tree.QueryMaxAbs(q);
    const auto want_abs = TopKBruteForce(data, q, 1, /*is_signed=*/false);
    EXPECT_EQ(best_abs.index, want_abs[0].index) << "trial " << trial;
  }
}

// Restore's structural checks, against mutations of a built tree.
class BallTreeRestoreTest : public ::testing::Test {
 protected:
  BallTreeRestoreTest() {
    Rng rng(43);
    data_ = Matrix(40, 3);
    for (double& v : data_.data()) v = rng.NextGaussian();
    const MipsBallTree tree(data_, 4, &rng);
    nodes_ = tree.nodes();
    order_ = tree.point_order();
    root_ = tree.root();
  }

  StatusOr<MipsBallTree> Restore() const {
    return MipsBallTree::Restore(data_, nodes_, order_, root_);
  }

  void ExpectDataLoss(const std::string& what) const {
    const auto restored = Restore();
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss) << what;
  }

  Matrix data_;
  std::vector<MipsBallTree::Node> nodes_;
  std::vector<std::size_t> order_;
  int root_ = -1;
};

TEST_F(BallTreeRestoreTest, AcceptsTheBuiltTree) {
  EXPECT_TRUE(Restore().ok());
}

TEST_F(BallTreeRestoreTest, RejectsRootNotSpanningEveryPoint) {
  nodes_[root_].end -= 1;
  ExpectDataLoss("root range");
}

TEST_F(BallTreeRestoreTest, RejectsChildrenThatLeaveAGap) {
  const int left = nodes_[root_].left;
  nodes_[left].end -= 1;  // the last row of the left half is never scanned
  ExpectDataLoss("gap");
}

TEST_F(BallTreeRestoreTest, RejectsChildrenThatOverlap) {
  const int right = nodes_[root_].right;
  nodes_[right].begin -= 1;
  ExpectDataLoss("overlap");
}

TEST_F(BallTreeRestoreTest, RejectsANodeWithTwoParents) {
  // Both children of the root's right child point at one subtree, and
  // the subtree it replaced becomes unreachable.
  MipsBallTree::Node& right = nodes_[nodes_[root_].right];
  ASSERT_FALSE(right.IsLeaf());
  right.right = right.left;
  ExpectDataLoss("two parents");
}

TEST_F(BallTreeRestoreTest, RejectsAnOrphanNode) {
  nodes_.push_back(nodes_.back());
  ExpectDataLoss("orphan");
}

}  // namespace
}  // namespace ips
