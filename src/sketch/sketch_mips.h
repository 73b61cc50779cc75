// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The Section 4.3 data structure for unsigned c-MIPS via linear sketches.
//
// Estimating the value: max_p |p^T q| = ||A q||_inf for the data matrix
// A. Sketch A once as A_s = Pi A (Pi a max-stability ell_kappa sketch
// over R^n); a query costs O(rows(Pi) * d) to form Pi (A q) = A_s q and
// the estimate ||A_s q||_inf ~ ||A q||_kappa is an O(n^(1/kappa))-
// approximation of ||A q||_inf, i.e. approximation factor c = n^(-1/kappa).
//
// Recovering the argmax: a binary tree over the data indices; every node
// holds a sketch of its index range, and the query walks from the root
// towards the child whose estimated max is larger ("recover the index
// bit by bit"). Each data vector appears in O(log n) node sketches, so
// construction stays O~(d n^(2-2/kappa)) and a query O~(d n^(1-2/kappa)).
//
// Build: every node's randomness is drawn serially, in preorder (the
// order snapshot loads replay from a pinned rng state); the per-node
// math -- the Exp(1) scales and the sketched sub-matrix -- then runs on
// a thread pool. The index is bitwise the same for a given rng state
// and any pool size.

#ifndef IPS_SKETCH_SKETCH_MIPS_H_
#define IPS_SKETCH_SKETCH_MIPS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.h"
#include "obs/trace.h"
#include "sketch/max_stability.h"
#include "util/status.h"

namespace ips {

class ThreadPool;  // util/thread_pool.h

/// Per-query accounting of one RecoverArgmax descent, for callers that
/// fold the numbers into a core::QueryStats.
struct SketchProbeInfo {
  /// Tree levels descended (node pairs estimated).
  std::size_t levels = 0;
  /// Sketch-row inner products computed during the descent (each costs
  /// one length-d dot product, the dot-equivalent work measure).
  std::size_t rows_multiplied = 0;
  /// Leaf points rescanned exactly at the end of the descent.
  std::size_t leaf_points = 0;
};

/// Tuning of the Section 4.3 MIPS index.
struct SketchMipsParams {
  /// Approximation exponent: c = n^(-1/kappa); kappa >= 2.
  double kappa = 4.0;
  /// Median copies per node sketch.
  std::size_t copies = 7;
  /// Bucket multiplier per node sketch.
  double bucket_multiplier = 4.0;
  /// Index ranges of at most this size are scanned exactly.
  std::size_t leaf_size = 8;
};

/// Unsigned c-MIPS index over a fixed data matrix (rows = data vectors).
class SketchMipsIndex {
 public:
  /// Builds the tree of sketched sub-matrices. `data` must outlive the
  /// index. Runs on `pool` when given, else on a local pool of
  /// ThreadPool::DefaultThreadCount() workers; the result does not
  /// depend on the pool. Preconditions are IPS_CHECKed; prefer Create
  /// for untrusted input.
  SketchMipsIndex(const Matrix& data, const SketchMipsParams& params,
                  Rng* rng, ThreadPool* pool = nullptr);

  /// Validated construction: rejects an empty or non-finite `data`,
  /// kappa < 2, copies == 0, leaf_size == 0, a non-positive bucket
  /// multiplier, and a null `rng` with a descriptive Status instead of
  /// aborting. Failpoint: "sketch/build".
  [[nodiscard]] static StatusOr<std::unique_ptr<SketchMipsIndex>> Create(
      const Matrix& data, const SketchMipsParams& params, Rng* rng);

  /// The validation behind Create, without building anything (also used
  /// by the core SketchIndex wrapper to avoid sketching twice).
  static Status Validate(const Matrix& data, const SketchMipsParams& params,
                         Rng* rng);

  std::size_t num_points() const { return data_->rows(); }
  std::size_t dim() const { return data_->cols(); }

  /// Estimated max_p |p^T q| (root sketch only; no recovery).
  double EstimateMaxAbsInnerProduct(std::span<const double> q) const;

  /// Index of a data vector whose |p^T q| approximately maximizes the
  /// absolute inner product (tree descent + exact rescan of the leaf).
  std::size_t RecoverArgmax(std::span<const double> q) const {
    return RecoverArgmax(q, nullptr, nullptr);
  }

  /// Instrumented flavor: when `trace` is non-null, records "probe"
  /// (sketch-estimate descent) and "rerank" (exact leaf rescan) child
  /// spans under the trace's open span; when `info` is non-null, fills
  /// the per-query accounting. Every call bumps the "sketch.*" registry
  /// counters.
  std::size_t RecoverArgmax(std::span<const double> q, Trace* trace,
                            SketchProbeInfo* info) const;

  /// Unsigned (cs, s) search: returns the recovered index if its exact
  /// |p^T q| >= cs, otherwise returns num_points() (no result). The
  /// promise is that some p' has |p'^T q| >= s.
  std::size_t UnsignedSearch(std::span<const double> q, double s,
                             double c) const;

  /// Total number of sketch rows across all nodes (space diagnostic).
  std::size_t TotalSketchRows() const { return total_sketch_rows_; }

  /// Rows of the root sketch: O~(n^(1-2/kappa)), the per-query cost of
  /// value estimation (recovery touches two nodes per level, a geometric
  /// sum dominated by the root).
  std::size_t RootSketchRows() const;

  const SketchMipsParams& params() const { return params_; }

  /// 64-bit FNV-1a digest of the built index: every node's range, child
  /// links and sketched rows, bit for bit. Equal digests mean the
  /// builds answer every query identically; tests pin it to hold builds
  /// reproducible across pool sizes and releases.
  std::uint64_t Fingerprint() const;

 private:
  struct Node {
    std::size_t begin = 0;
    std::size_t end = 0;  // exclusive
    // Sketched sub-matrix: sketch of the |range|-dimensional vector
    // (p_i^T q)_{i in range} is (sketched_rows * q); sketched_rows has
    // sketch_dim rows of dimension d.
    std::unique_ptr<MaxStabilitySketch> sketch;
    Matrix sketched_rows;  // sketch_dim x d, a view into sketch_storage_
    int left = -1;
    int right = -1;
  };

  /// Lays out the node over [begin, end) and its subtree in preorder,
  /// drawing each internal node's sketch (MaxStabilitySketch::Draw);
  /// returns its index.
  int DrawNode(std::size_t begin, std::size_t end, Rng* rng);

  /// ||A[range] q||_inf estimate at `node`.
  double EstimateNode(const Node& node, std::span<const double> q) const;

  const Matrix* data_;
  SketchMipsParams params_;
  std::vector<Node> nodes_;
  int root_ = -1;
  std::size_t total_sketch_rows_ = 0;
  // Every node's sketched rows, back to back in preorder: one
  // allocation, first touched by the pool task that fills each node.
  std::unique_ptr<double[]> sketch_storage_;
};

/// The Section 4.3 remark: a data structure for unsigned (cs, s) *search*
/// solves unsigned c-MIPS by scaling the query up, q / c^i, until the
/// threshold fires. Returns the number of scaling steps needed for a
/// maximum inner product `gamma` <= value < `s`; used by examples/tests
/// to demonstrate the reduction.
std::size_t CmipsQueryScalingSteps(double s, double c, double gamma);

}  // namespace ips

#endif  // IPS_SKETCH_SKETCH_MIPS_H_
