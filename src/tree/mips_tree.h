// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Exact maximum-inner-product search by branch-and-bound on a ball tree
// (Ram-Gray [43], Koenigstein et al. [30]): every node stores the center
// and radius of the ball enclosing its points, and for a query q the
// best inner product inside the ball is at most
//   q^T center + ||q|| * radius
// (and at least q^T center - ||q|| * radius for the signed minimum, which
// gives |q^T p| <= |q^T center| + ||q|| * radius for unsigned search).
// Subtrees whose bound cannot beat the current best are pruned. This is
// the exact tree baseline the paper's related-work section contrasts
// with LSH approaches -- correct in any dimension, fast only when the
// curse of dimensionality spares it.
//
// Build: every internal node splits at the median of its points'
// projections onto a two-pivot axis A-B, so a node over c points has
// children over floor(c/2) and ceil(c/2) points and the depth is at
// most ceil(log2(n / leaf_size)) + 1 whatever the data. The topology
// therefore depends on n alone: it is laid out in preorder up front and
// the geometry of independent subtrees is filled in on a thread pool.
// Nothing depends on thread timing, so the nodes and point order are
// bitwise the same for any pool size.

#ifndef IPS_TREE_MIPS_TREE_H_
#define IPS_TREE_MIPS_TREE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "obs/trace.h"
#include "rng/random.h"
#include "util/status.h"

namespace ips {

class ThreadPool;  // util/thread_pool.h

/// Result of an exact MIPS query.
struct MipsResult {
  std::size_t index = 0;
  double value = 0.0;
  /// Number of leaf points whose inner product was evaluated (pruning
  /// diagnostic; equals n when nothing could be pruned).
  std::size_t evaluated = 0;
};

/// Per-query accounting of one branch-and-bound descent, for callers
/// that fold the numbers into a core::QueryStats.
struct TreeQueryInfo {
  /// Nodes whose bound was evaluated.
  std::size_t nodes_visited = 0;
  /// Visited nodes whose subtree the bound pruned away.
  std::size_t nodes_pruned = 0;
  /// Leaf points whose exact inner product was computed.
  std::size_t points_scored = 0;
};

/// Ball tree over the rows of a data matrix with MIP branch-and-bound.
class MipsBallTree {
 public:
  /// One tree node: the ball (center, radius) enclosing the points of
  /// point_order[begin, end), and children indexes into nodes().
  /// Public so the storage layer can persist the built tree verbatim
  /// (snapshots restore through Restore, which re-validates everything).
  struct Node {
    std::vector<double> center;
    double radius = 0.0;
    std::size_t begin = 0;  // range into point_order_
    std::size_t end = 0;
    int left = -1;
    int right = -1;
    bool IsLeaf() const { return left < 0; }
  };

  /// Builds the tree; `data` must outlive it. Leaves hold at most
  /// `leaf_size` points. Draws one value from `rng`, which seeds every
  /// node's pivot search. Runs on `pool` when given, else (above 4096
  /// rows) on a local pool of ThreadPool::DefaultThreadCount() workers;
  /// the result does not depend on the pool.
  MipsBallTree(const Matrix& data, std::size_t leaf_size, Rng* rng,
               ThreadPool* pool = nullptr);

  /// Reassembles a tree from persisted build artifacts without
  /// rebuilding. Every structural invariant is re-validated (the root
  /// spans every point, each node's children tile its range, every
  /// non-root node has exactly one parent, center dimensions,
  /// point_order a permutation), so a corrupted-but-CRC-valid artifact
  /// yields a Status, not undefined search behavior or skipped rows.
  /// Any valid tree is accepted, balanced or not: snapshots written
  /// before the median split restore their old tree verbatim. `data`
  /// must outlive the tree.
  [[nodiscard]] static StatusOr<MipsBallTree> Restore(
      const Matrix& data, std::vector<Node> nodes,
      std::vector<std::size_t> point_order, int root);

  std::size_t num_points() const { return data_->rows(); }

  /// argmax_p q^T p (signed maximum), exact; ties break toward the
  /// smaller data index, so the answer does not depend on the tree.
  MipsResult QueryMax(std::span<const double> q) const;

  /// argmax_p |q^T p| (unsigned maximum), exact, with the same ties.
  MipsResult QueryMaxAbs(std::span<const double> q) const;

  /// Exact top-k by signed inner product, descending; branch-and-bound
  /// against the current k-th best. Ties break toward the smaller data
  /// index, so the returned ordering is deterministic. Returns min(k, n)
  /// entries. When `evaluated` is non-null it receives the number of
  /// leaf points scored (pruning diagnostic, used by the serve planner).
  std::vector<std::pair<std::size_t, double>> QueryTopK(
      std::span<const double> q, std::size_t k,
      std::size_t* evaluated = nullptr) const;

  /// Instrumented flavor: when `trace` is non-null, records "descent"
  /// and "leaf_scan" child spans (leaf-scan time is accumulated across
  /// all leaves visited, descent is the remainder) under the trace's
  /// open span; when `info` is non-null, fills the per-query
  /// accounting. Every call bumps the "tree.*" registry counters.
  std::vector<std::pair<std::size_t, double>> QueryTopK(
      std::span<const double> q, std::size_t k, Trace* trace,
      TreeQueryInfo* info) const;

  std::size_t num_nodes() const { return nodes_.size(); }

  /// Build artifacts, exposed for snapshotting (immutable once built).
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<std::size_t>& point_order() const { return point_order_; }
  int root() const { return root_; }

 private:
  MipsBallTree() = default;  // Restore fills the members.

  struct BuildScratch;

  /// Appends the node over [begin, end) and its subtree in preorder:
  /// ranges and child links only, which the median split fixes.
  int LayOut(std::size_t begin, std::size_t end, std::size_t leaf_size);

  /// Fills node `index`'s center and radius and, for an internal node,
  /// orders its points so each child's range holds the child's points.
  /// Its passes run on `pool` when non-null.
  void ShapeNode(int index, std::uint64_t seed, ThreadPool* pool,
                 BuildScratch* scratch);

  /// ShapeNode over the subtree at `index`, depth first, inline.
  void ShapeSubtree(int index, std::uint64_t seed, BuildScratch* scratch);

  /// Upper bound on q^T p over the node's ball.
  double SignedBound(const Node& node, std::span<const double> q,
                     double q_norm) const;

  /// Upper bound on |q^T p| over the node's ball.
  double UnsignedBound(const Node& node, std::span<const double> q,
                       double q_norm) const;

  void SearchSigned(int node_index, std::span<const double> q, double q_norm,
                    MipsResult* best) const;
  void SearchUnsigned(int node_index, std::span<const double> q,
                      double q_norm, MipsResult* best) const;

  const Matrix* data_;
  std::vector<Node> nodes_;
  std::vector<std::size_t> point_order_;
  int root_ = -1;
};

}  // namespace ips

#endif  // IPS_TREE_MIPS_TREE_H_
