#include "tree/mips_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ips {

namespace {

// Rows per block of a node pass. Block boundaries depend on the node's
// range alone, so every pass -- the blocked centroid sum included --
// yields the same bits whether its blocks run on a pool or inline.
constexpr std::size_t kPassBlockRows = 4096;

// Depth whose subtrees are shaped whole by one pool task each. The
// 2^4 = 16 subtrees are of equal size, which keeps a few workers busy
// even when one of them stalls; the nodes above run their passes on
// the pool instead.
constexpr std::size_t kTaskDepth = 4;

// Farthest row of a scan: the first maximum, as a serial scan with a
// strict > finds it.
struct Farthest {
  double distance = -1.0;
  std::size_t offset = 0;  // within the node's range
};

void KeepFarther(const Farthest& candidate, Farthest* best) {
  if (candidate.distance > best->distance) *best = candidate;
}

// Runs fn(block, lo, hi) over [0, count) cut into kPassBlockRows-row
// blocks: on `pool` when non-null, inline otherwise.
template <typename Fn>
void RunBlocks(ThreadPool* pool, std::size_t count, const Fn& fn) {
  const std::size_t blocks = (count + kPassBlockRows - 1) / kPassBlockRows;
  ParallelFor(pool, blocks, [&](std::size_t first, std::size_t last) {
    for (std::size_t b = first; b < last; ++b) {
      fn(b, b * kPassBlockRows, std::min(count, (b + 1) * kPassBlockRows));
    }
  });
}

}  // namespace

// Per-task scratch, reused across the nodes one task shapes.
struct MipsBallTree::BuildScratch {
  std::vector<double> partial_sums;  // blocks x cols
  std::vector<Farthest> from_center;
  std::vector<Farthest> from_pivot;
  std::vector<double> axis;
  // (projection, data index): the split's total order.
  std::vector<std::pair<double, std::size_t>> keys;
};

MipsBallTree::MipsBallTree(const Matrix& data, std::size_t leaf_size,
                           Rng* rng, ThreadPool* pool)
    : data_(&data), point_order_(data.rows()) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_GT(data.rows(), 0u);
  IPS_CHECK_GE(leaf_size, 1u);
  for (std::size_t i = 0; i < data.rows(); ++i) point_order_[i] = i;
  root_ = LayOut(0, data.rows(), leaf_size);
  const std::uint64_t seed = rng->NextUint64();

  std::optional<ThreadPool> local_pool;
  if (pool == nullptr && data.rows() > kPassBlockRows) {
    pool = &local_pool.emplace(ThreadPool::DefaultThreadCount());
  }
  // Top levels, one node at a time with each pass on the pool; every
  // node there spans at least n / 2^kTaskDepth points.
  BuildScratch scratch;
  std::vector<int> level = {root_};
  for (std::size_t depth = 0; depth < kTaskDepth && !level.empty();
       ++depth) {
    std::vector<int> next;
    for (const int index : level) {
      ShapeNode(index, seed, pool, &scratch);
      if (!nodes_[index].IsLeaf()) {
        next.push_back(nodes_[index].left);
        next.push_back(nodes_[index].right);
      }
    }
    level = std::move(next);
  }
  // Below: the subtrees are independent (disjoint nodes and disjoint
  // point_order ranges), one pool task each.
  ParallelFor(pool, level.size(), [&](std::size_t first, std::size_t last) {
    BuildScratch task_scratch;
    for (std::size_t i = first; i < last; ++i) {
      ShapeSubtree(level[i], seed, &task_scratch);
    }
  });
}

StatusOr<MipsBallTree> MipsBallTree::Restore(
    const Matrix& data, std::vector<Node> nodes,
    std::vector<std::size_t> point_order, int root) {
  const std::size_t n = data.rows();
  if (n == 0) {
    return Status::InvalidArgument("tree restore needs a non-empty dataset");
  }
  if (point_order.size() != n) {
    return Status::DataLoss("tree artifact orders " +
                            std::to_string(point_order.size()) +
                            " points but the dataset has " +
                            std::to_string(n));
  }
  std::vector<bool> seen(n, false);
  for (std::size_t p : point_order) {
    if (p >= n || seen[p]) {
      return Status::DataLoss(
          "tree artifact point order is not a permutation of the dataset");
    }
    seen[p] = true;
  }
  if (nodes.empty() || root < 0 ||
      static_cast<std::size_t>(root) >= nodes.size()) {
    return Status::DataLoss("tree artifact root " + std::to_string(root) +
                            " is outside its " +
                            std::to_string(nodes.size()) + " nodes");
  }
  if (nodes[root].begin != 0 || nodes[root].end != n) {
    return Status::DataLoss("tree artifact root does not span the " +
                            std::to_string(n) + " points");
  }
  std::vector<std::uint8_t> parents(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& node = nodes[i];
    if (node.center.size() != data.cols()) {
      return Status::DataLoss("tree artifact node " + std::to_string(i) +
                              " has a " + std::to_string(node.center.size()) +
                              "-dimensional center in a " +
                              std::to_string(data.cols()) +
                              "-dimensional dataset");
    }
    if (node.begin > node.end || node.end > n ||
        !(node.radius >= 0.0) || !std::isfinite(node.radius)) {
      return Status::DataLoss("tree artifact node " + std::to_string(i) +
                              " has an invalid range or radius");
    }
    if (node.IsLeaf()) continue;
    // Children were always allocated after their parent (both builders
    // lay nodes out in preorder), so forward-only links also certify
    // the restored graph is acyclic.
    const bool left_ok =
        node.left > static_cast<int>(i) &&
        static_cast<std::size_t>(node.left) < nodes.size();
    const bool right_ok =
        node.right > static_cast<int>(i) &&
        static_cast<std::size_t>(node.right) < nodes.size();
    if (!left_ok || !right_ok) {
      return Status::DataLoss("tree artifact node " + std::to_string(i) +
                              " has invalid child links");
    }
    // The children must tile the parent's range: a gap is a row search
    // would silently never score.
    const Node& left = nodes[node.left];
    const Node& right = nodes[node.right];
    if (left.begin != node.begin || left.end != right.begin ||
        right.end != node.end) {
      return Status::DataLoss("tree artifact node " + std::to_string(i) +
                              "'s children do not tile its range");
    }
    for (const int child : {node.left, node.right}) {
      if (++parents[child] > 1) {
        return Status::DataLoss("tree artifact node " +
                                std::to_string(child) +
                                " has more than one parent");
      }
    }
  }
  // With forward links, one parent per non-root node makes every node
  // reachable from the root, so the leaves partition [0, n).
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const bool is_root = static_cast<int>(i) == root;
    if (parents[i] != (is_root ? 0 : 1)) {
      return Status::DataLoss("tree artifact node " + std::to_string(i) +
                              (is_root ? " is the root but has a parent"
                                       : " has no parent"));
    }
  }
  MipsBallTree tree;
  tree.data_ = &data;
  tree.nodes_ = std::move(nodes);
  tree.point_order_ = std::move(point_order);
  tree.root_ = root;
  return tree;
}

int MipsBallTree::LayOut(std::size_t begin, std::size_t end,
                         std::size_t leaf_size) {
  const int index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[index].begin = begin;
  nodes_[index].end = end;
  if (end - begin > leaf_size) {
    const std::size_t mid = begin + (end - begin) / 2;
    // Note: the recursive calls reallocate nodes_; hold no references.
    const int left = LayOut(begin, mid, leaf_size);
    const int right = LayOut(mid, end, leaf_size);
    nodes_[index].left = left;
    nodes_[index].right = right;
  }
  return index;
}

void MipsBallTree::ShapeNode(int index, std::uint64_t seed, ThreadPool* pool,
                             BuildScratch* scratch) {
  Node& node = nodes_[index];  // nodes_ is laid out: no reallocation
  const std::size_t begin = node.begin;
  const std::size_t count = node.end - node.begin;
  const std::size_t cols = data_->cols();
  const auto row_at = [&](std::size_t offset) {
    return data_->Row(point_order_[begin + offset]);
  };

  // Center = mean of the points: per-block partial sums, added in
  // block order (one block is the plain running sum).
  const std::size_t blocks = (count + kPassBlockRows - 1) / kPassBlockRows;
  scratch->partial_sums.assign(blocks * cols, 0.0);
  RunBlocks(pool, count, [&](std::size_t b, std::size_t lo, std::size_t hi) {
    double* sum = scratch->partial_sums.data() + b * cols;
    for (std::size_t t = lo; t < hi; ++t) {
      const std::span<const double> row = row_at(t);
      for (std::size_t c = 0; c < cols; ++c) sum[c] += row[c];
    }
  });
  node.center.assign(scratch->partial_sums.begin(),
                     scratch->partial_sums.begin() + cols);
  for (std::size_t b = 1; b < blocks; ++b) {
    for (std::size_t c = 0; c < cols; ++c) {
      node.center[c] += scratch->partial_sums[b * cols + c];
    }
  }
  const double inv = 1.0 / static_cast<double>(count);
  for (double& c : node.center) c *= inv;

  // Radius = max distance to the center. An internal node also needs
  // pivot A, the farthest point from its seed point, found in the same
  // sweep. The seed is a per-node hash of the one build draw, so it
  // does not depend on which task shapes the node.
  const bool split = !node.IsLeaf();
  std::uint64_t mix = seed ^ (static_cast<std::uint64_t>(index) *
                              0xd1342543de82ef95ULL);
  const std::span<const double> seed_row =
      row_at(static_cast<std::size_t>(SplitMix64(mix) % count));
  scratch->from_center.assign(blocks, Farthest{});
  scratch->from_pivot.assign(blocks, Farthest{});
  RunBlocks(pool, count, [&](std::size_t b, std::size_t lo, std::size_t hi) {
    Farthest center_best;
    Farthest seed_best;
    for (std::size_t t = lo; t < hi; ++t) {
      const std::span<const double> row = row_at(t);
      KeepFarther({kernels::SquaredDistance(row, node.center), t},
                  &center_best);
      if (split) {
        KeepFarther({kernels::SquaredDistance(row, seed_row), t}, &seed_best);
      }
    }
    scratch->from_center[b] = center_best;
    scratch->from_pivot[b] = seed_best;
  });
  Farthest radius;
  Farthest pivot_a;
  for (std::size_t b = 0; b < blocks; ++b) {
    KeepFarther(scratch->from_center[b], &radius);
    KeepFarther(scratch->from_pivot[b], &pivot_a);
  }
  node.radius = std::sqrt(radius.distance);
  if (!split) return;

  // Pivot B: the farthest point from A.
  const std::span<const double> a_row = row_at(pivot_a.offset);
  scratch->from_pivot.assign(blocks, Farthest{});
  RunBlocks(pool, count, [&](std::size_t b, std::size_t lo, std::size_t hi) {
    Farthest best;
    for (std::size_t t = lo; t < hi; ++t) {
      KeepFarther({kernels::SquaredDistance(row_at(t), a_row), t}, &best);
    }
    scratch->from_pivot[b] = best;
  });
  Farthest pivot_b;
  for (const Farthest& block : scratch->from_pivot) {
    KeepFarther(block, &pivot_b);
  }
  const std::span<const double> b_row = row_at(pivot_b.offset);

  // Median split along A -> B under the total order (projection, data
  // index): each child gets half the points whatever the data, where
  // splitting by nearer pivot peels norm outliers off one at a time.
  scratch->axis.resize(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    scratch->axis[c] = b_row[c] - a_row[c];
  }
  scratch->keys.resize(count);
  RunBlocks(pool, count, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t t = lo; t < hi; ++t) {
      scratch->keys[t] = {kernels::Dot(row_at(t), scratch->axis),
                          point_order_[begin + t]};
    }
  });
  std::nth_element(scratch->keys.begin(),
                   scratch->keys.begin() +
                       static_cast<std::ptrdiff_t>(count / 2),
                   scratch->keys.end());
  for (std::size_t t = 0; t < count; ++t) {
    point_order_[begin + t] = scratch->keys[t].second;
  }
}

void MipsBallTree::ShapeSubtree(int index, std::uint64_t seed,
                                BuildScratch* scratch) {
  ShapeNode(index, seed, nullptr, scratch);
  const Node& node = nodes_[index];
  if (node.IsLeaf()) return;
  ShapeSubtree(node.left, seed, scratch);
  ShapeSubtree(node.right, seed, scratch);
}

double MipsBallTree::SignedBound(const Node& node, std::span<const double> q,
                                 double q_norm) const {
  return kernels::Dot(node.center, q) + q_norm * node.radius;
}

double MipsBallTree::UnsignedBound(const Node& node,
                                   std::span<const double> q,
                                   double q_norm) const {
  return std::abs(kernels::Dot(node.center, q)) + q_norm * node.radius;
}

void MipsBallTree::SearchSigned(int node_index, std::span<const double> q,
                                double q_norm, MipsResult* best) const {
  const Node& node = nodes_[node_index];
  if (SignedBound(node, q, q_norm) < best->value) return;
  if (node.IsLeaf()) {
    for (std::size_t t = node.begin; t < node.end; ++t) {
      const std::size_t point = point_order_[t];
      const double value = kernels::Dot(data_->Row(point), q);
      ++best->evaluated;
      if (value > best->value ||
          (value == best->value && point < best->index)) {
        best->value = value;
        best->index = point;
      }
    }
    return;
  }
  // Visit the more promising child first for better pruning.
  const double left_bound = SignedBound(nodes_[node.left], q, q_norm);
  const double right_bound = SignedBound(nodes_[node.right], q, q_norm);
  if (left_bound >= right_bound) {
    SearchSigned(node.left, q, q_norm, best);
    SearchSigned(node.right, q, q_norm, best);
  } else {
    SearchSigned(node.right, q, q_norm, best);
    SearchSigned(node.left, q, q_norm, best);
  }
}

void MipsBallTree::SearchUnsigned(int node_index, std::span<const double> q,
                                  double q_norm, MipsResult* best) const {
  const Node& node = nodes_[node_index];
  if (UnsignedBound(node, q, q_norm) < best->value) return;
  if (node.IsLeaf()) {
    for (std::size_t t = node.begin; t < node.end; ++t) {
      const std::size_t point = point_order_[t];
      const double value = std::abs(kernels::Dot(data_->Row(point), q));
      ++best->evaluated;
      if (value > best->value ||
          (value == best->value && point < best->index)) {
        best->value = value;
        best->index = point;
      }
    }
    return;
  }
  const double left_bound = UnsignedBound(nodes_[node.left], q, q_norm);
  const double right_bound = UnsignedBound(nodes_[node.right], q, q_norm);
  if (left_bound >= right_bound) {
    SearchUnsigned(node.left, q, q_norm, best);
    SearchUnsigned(node.right, q, q_norm, best);
  } else {
    SearchUnsigned(node.right, q, q_norm, best);
    SearchUnsigned(node.left, q, q_norm, best);
  }
}

std::vector<std::pair<std::size_t, double>> MipsBallTree::QueryTopK(
    std::span<const double> q, std::size_t k, std::size_t* evaluated) const {
  TreeQueryInfo info;
  auto result = QueryTopK(q, k, nullptr, &info);
  if (evaluated != nullptr) *evaluated = info.points_scored;
  return result;
}

std::vector<std::pair<std::size_t, double>> MipsBallTree::QueryTopK(
    std::span<const double> q, std::size_t k, Trace* trace,
    TreeQueryInfo* info) const {
  IPS_CHECK_EQ(q.size(), data_->cols());
  IPS_CHECK_GE(k, 1u);
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("tree.queries");
  static Counter* const nodes_visited =
      MetricsRegistry::Global().GetCounter("tree.nodes_visited");
  static Counter* const nodes_pruned =
      MetricsRegistry::Global().GetCounter("tree.nodes_pruned");
  static Counter* const points_scored =
      MetricsRegistry::Global().GetCounter("tree.points_scored");

  WallTimer total_timer;
  double leaf_seconds = 0.0;
  TreeQueryInfo local;
  const double q_norm = kernels::Norm(q);
  std::size_t leaf_points_scored = 0;
  // Scratch reused across every leaf this descent visits.
  std::vector<double> leaf_scores;
  // Min-heap on (score, inverted index): heap.front() is the current
  // k-th best, where equal scores rank the *larger* index as worse so
  // ties break toward the smaller data index deterministically.
  std::vector<std::pair<double, std::size_t>> heap;
  auto worse = [](const std::pair<double, std::size_t>& a,
                  const std::pair<double, std::size_t>& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  auto heap_greater = [worse](const std::pair<double, std::size_t>& a,
                              const std::pair<double, std::size_t>& b) {
    return worse(b, a);
  };
  // Iterative DFS with best-first child ordering.
  std::vector<int> stack = {root_};
  while (!stack.empty()) {
    const int node_index = stack.back();
    stack.pop_back();
    const Node& node = nodes_[node_index];
    ++local.nodes_visited;
    if (heap.size() == k && SignedBound(node, q, q_norm) < heap.front().first) {
      ++local.nodes_pruned;
      continue;
    }
    if (node.IsLeaf()) {
      // One clock read per leaf visited, amortized over the leaf's
      // points; the descent/leaf_scan split is recorded only when
      // tracing.
      WallTimer leaf_timer;
      // Score the whole leaf block through the dispatched gather
      // kernel, then feed the heap from the scratch scores.
      const std::size_t count = node.end - node.begin;
      leaf_scores.resize(count);
      kernels::GatherScores(
          *data_,
          std::span<const std::size_t>(point_order_).subspan(node.begin,
                                                             count),
          q, leaf_scores);
      for (std::size_t t = 0; t < count; ++t) {
        const std::size_t point = point_order_[node.begin + t];
        const double value = leaf_scores[t];
        ++leaf_points_scored;
        if (heap.size() < k) {
          heap.emplace_back(value, point);
          std::push_heap(heap.begin(), heap.end(), heap_greater);
        } else if (worse(heap.front(), {value, point})) {
          std::pop_heap(heap.begin(), heap.end(), heap_greater);
          heap.back() = {value, point};
          std::push_heap(heap.begin(), heap.end(), heap_greater);
        }
      }
      if (trace != nullptr) leaf_seconds += leaf_timer.Seconds();
      continue;
    }
    // Push the less promising child first so the better one pops first.
    const double left_bound = SignedBound(nodes_[node.left], q, q_norm);
    const double right_bound = SignedBound(nodes_[node.right], q, q_norm);
    if (left_bound >= right_bound) {
      stack.push_back(node.right);
      stack.push_back(node.left);
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  std::sort(heap.begin(), heap.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<std::pair<std::size_t, double>> result;
  result.reserve(heap.size());
  for (const auto& [value, index] : heap) result.emplace_back(index, value);

  local.points_scored = leaf_points_scored;
  if (trace != nullptr) {
    const double total = total_timer.Seconds();
    const std::size_t descent = trace->RecordSpan(
        "descent", std::max(0.0, total - leaf_seconds));
    trace->AddCount(descent, "nodes_visited", local.nodes_visited);
    trace->AddCount(descent, "nodes_pruned", local.nodes_pruned);
    const std::size_t leaf_scan = trace->RecordSpan("leaf_scan", leaf_seconds);
    trace->AddCount(leaf_scan, "points_scored", local.points_scored);
  }
  queries->Increment();
  nodes_visited->Add(local.nodes_visited);
  nodes_pruned->Add(local.nodes_pruned);
  points_scored->Add(local.points_scored);
  if (info != nullptr) *info = local;
  return result;
}

MipsResult MipsBallTree::QueryMax(std::span<const double> q) const {
  IPS_CHECK_EQ(q.size(), data_->cols());
  MipsResult best;
  best.value = -std::numeric_limits<double>::infinity();
  SearchSigned(root_, q, kernels::Norm(q), &best);
  return best;
}

MipsResult MipsBallTree::QueryMaxAbs(std::span<const double> q) const {
  IPS_CHECK_EQ(q.size(), data_->cols());
  MipsResult best;
  best.value = -1.0;
  SearchUnsigned(root_, q, kernels::Norm(q), &best);
  return best;
}

}  // namespace ips
