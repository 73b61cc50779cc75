// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The LSH *bucket join*: instead of probing an index once per query,
// hash both point sets into the same (K, L) tables and enumerate
// colliding (data, query) pairs bucket by bucket -- the classic
// similarity-join operator built on LSH (cf. the I/O-efficient joins of
// [41]). Each candidate pair passes a lossless int8 prefilter (skipped
// only when its quantized estimate plus the rigorous rounding-error
// bound cannot reach cs), is then verified with one exact inner
// product, and for every query the best verified pair above cs is
// reported. The prefilter never changes the result set — it only
// replaces full-precision dots with one-byte-per-entry estimates for
// pairs that cannot qualify.
//
// How it runs: the L concatenated functions are drawn up front in table
// order. Every row is hashed once into all L tables; a family that is a
// transform over a base family (LshFamily::Split, e.g.
// TransformedLshFamily) has each row transformed once and hashed with
// the base functions, which yields the same keys as hashing through the
// family. Each table's data side is a flat array of (key, row) pairs
// sorted by key. Probing is query-major: a query gathers its L buckets
// and sort-uniques them, so each distinct pair is prefiltered and
// verified at most once without a global pair set.
//
// Threads: hashing, bucket building and probing run as ParallelFor over
// `pool` (null = the calling thread). Results and all four counters are
// bitwise identical for every thread count: the functions are drawn
// before any parallel work, each query's work is independent of the
// others, and the per-query best is the maximum under the total order
// (score descending, then smaller data index).

#ifndef IPS_LSH_BUCKET_JOIN_H_
#define IPS_LSH_BUCKET_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/quantized.h"
#include "lsh/lsh_family.h"
#include "lsh/tables.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ips {

/// One query's best match: (index into data, exact score), or nullopt
/// when no colliding pair scored >= cs.
using BucketJoinMatch = std::optional<std::pair<std::size_t, double>>;

/// Result of a bucket join: per-query best match. Accounting lives in
/// `metrics` under the run's registry metric names (unified
/// QueryStats-style labels, not bespoke fields):
///   "lsh.join.candidate_pairs" -- pairs enumerated across all tables
///                                 (before dedup);
///   "lsh.join.verified_pairs"  -- distinct pairs verified with an exact
///                                 inner product (each pair at most once
///                                 even when it collides in several
///                                 tables);
///   "lsh.join.duplicate_pairs" -- pairs skipped by cross-table
///                                 deduplication;
///   "lsh.join.pairs_prefiltered" -- distinct pairs the lossless int8
///                                 bound proved below cs, skipped before
///                                 exact verification. candidate ==
///                                 verified + duplicate + prefiltered.
struct BucketJoinResult {
  std::vector<BucketJoinMatch> per_query;
  MetricSet metrics;
};

/// Runs the (cs, s) bucket join of `data` and `queries` under `family`
/// (typically a TransformedLshFamily for IPS; the transform is applied
/// once per row). Scores are signed or absolute inner products of the
/// *original* rows per `is_signed`; hashing uses HashData on `data` rows
/// and HashQuery on `queries` rows.
///
/// `hash_data` / `hash_queries` are the representations to hash (must
/// have family.dim() columns); `data` / `queries` are the originals to
/// verify on. Pass the same matrix twice when no transform is involved.
/// `pool` may be null (single-threaded); the result does not depend on
/// it.
BucketJoinResult LshBucketJoin(const LshFamily& family,
                               const Matrix& hash_data, const Matrix& data,
                               const Matrix& hash_queries,
                               const Matrix& queries, double s_threshold,
                               double cs_threshold, bool is_signed,
                               LshTableParams params, Rng* rng,
                               ThreadPool* pool = nullptr);

/// Validated flavor of LshBucketJoin for untrusted input: rejects empty
/// or non-finite matrices, row/column mismatches between the hash-space
/// and original matrices, k/l of zero, a null rng, and non-finite or
/// inverted thresholds (cs > s) with a Status instead of aborting.
/// Failpoint: "lsh/bucket-join".
StatusOr<BucketJoinResult> LshBucketJoinChecked(
    const LshFamily& family, const Matrix& hash_data, const Matrix& data,
    const Matrix& hash_queries, const Matrix& queries, double s_threshold,
    double cs_threshold, bool is_signed, LshTableParams params, Rng* rng);

/// The four join counters (see BucketJoinResult).
struct BucketJoinCounters {
  std::size_t candidate_pairs = 0;
  std::size_t verified_pairs = 0;
  std::size_t duplicate_pairs = 0;
  std::size_t prefiltered_pairs = 0;

  /// Writes the counters into `metrics` and adds them, plus one
  /// "lsh.join.runs", to the global registry. Call once per join.
  void Publish(MetricSet* metrics) const;
};

/// The engine behind LshBucketJoin, split so that a blocked join
/// (storage::BlockedBucketJoin) hashes and quantizes each query block
/// once and probes it against every data block. Joining a query block
/// against data blocks that partition the data gives the same matches
/// and counter sums as one join against all of it. Join checks that each
/// block starts on a QuantizedMatrix::kRowsPerBlock boundary: the
/// prefilter's quantization scales are per row block, so that keeps the
/// counters equal (matches never depend on it).
class BucketJoiner {
 public:
  /// Draws the L concatenated functions of `params` from `rng` in table
  /// order (the same draws as L successive ConcatenatedLshFunctions).
  /// `family` and `pool` must outlive the joiner; `pool` may be null.
  BucketJoiner(const LshFamily& family, LshTableParams params,
               double cs_threshold, bool is_signed, Rng* rng,
               ThreadPool* pool);

  /// Bytes the join holds per row when a data block and a query block
  /// both have that many rows of `cols` columns under `l` tables: the
  /// row itself on each side, the data row's (key, row) entry in every
  /// table and its int8 codes, and the query row's key in every table
  /// and its QuantizedVector. Sizes storage::BlockedBucketJoin's blocks.
  static std::size_t WorkingSetBytesPerRow(std::size_t cols, std::size_t l);

  /// Hashes and quantizes a block of queries, replacing the previous
  /// block. Both matrices must outlive the Join calls that follow.
  void SetQueries(const Matrix& hash_queries, const Matrix& queries);

  /// Joins the current query block against one data block whose row i
  /// is global data row `data_offset + i`; `data_offset` must be a
  /// multiple of QuantizedMatrix::kRowsPerBlock. Each query's best match
  /// is merged into `best[q]` (same total order); counters are added.
  void Join(const Matrix& hash_data, const Matrix& data,
            std::size_t data_offset, std::span<BucketJoinMatch> best,
            BucketJoinCounters* counters) const;

 private:
  /// Hashes every row into all L tables, calling store(t, i, key) for
  /// row i's key in table t (from several threads, once per (t, i)).
  template <typename Store>
  void HashRows(const Matrix& rows, bool as_queries, Store store) const;

  LshFamilySplit split_;
  std::size_t dim_;
  double cs_threshold_;
  bool is_signed_;
  ThreadPool* pool_;
  std::vector<ConcatenatedLshFunction> functions_;
  // The current query block.
  const Matrix* queries_ = nullptr;
  std::vector<std::uint64_t> query_keys_;
  std::vector<QuantizedVector> quantized_queries_;
};

}  // namespace ips

#endif  // IPS_LSH_BUCKET_JOIN_H_
