// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The classic (K, L) LSH index: L hash tables, each keyed by the
// concatenation of K draws from a family (AND-amplification inside a
// table, OR-amplification across tables). A query retrieves the union of
// its L buckets as candidates. With base gap (P1, P2), choosing
// K = log n / log(1/P2) and L = n^rho gives the usual sublinear search.

#ifndef IPS_LSH_TABLES_H_
#define IPS_LSH_TABLES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.h"
#include "lsh/lsh_family.h"
#include "obs/trace.h"
#include "rng/random.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ips {

class ThreadPool;  // util/thread_pool.h

/// Per-query accounting of one LshTables::Query call, for callers that
/// fold the numbers into a core::QueryStats (which this layer cannot
/// see — core depends on lsh, not the other way around).
struct LshQueryInfo {
  /// Tables whose bucket was looked up (always params().l).
  std::size_t tables_probed = 0;
  /// Tables whose query bucket was non-empty.
  std::size_t buckets_hit = 0;
  /// Bucket entries gathered before cross-table deduplication.
  std::size_t raw_candidates = 0;
  /// Distinct data rows returned; raw - unique were duplicates.
  std::size_t unique_candidates = 0;
};

/// Amplification parameters of an LSH index.
struct LshTableParams {
  /// Number of concatenated hash functions per table (AND).
  std::size_t k = 4;
  /// Number of tables (OR).
  std::size_t l = 8;

  /// Standard theory-driven choice: k = ceil(ln n / ln(1/p2)),
  /// l = ceil(n^rho) with rho = ln p1 / ln p2.
  static LshTableParams FromGap(std::size_t n, double p1, double p2);
};

/// L hash tables over a fixed data matrix.
class LshTables {
 public:
  /// Builds the index. `family` must outlive the index; `data` is
  /// referenced, not copied, and must outlive the index as well. The
  /// l functions are drawn serially, then the tables are hashed on
  /// `pool` when given, else on a local pool of
  /// ThreadPool::DefaultThreadCount() workers; the buckets do not depend
  /// on the pool. `family`'s functions must be safe to call
  /// concurrently (LshFunction's hashes are const). Preconditions are
  /// IPS_CHECKed; prefer Create for untrusted input.
  LshTables(const LshFamily& family, const Matrix& data,
            LshTableParams params, Rng* rng, ThreadPool* pool = nullptr);

  /// Validated construction: rejects an empty or non-finite `data`,
  /// a dimension mismatch with `family`, k or l of zero, and a null
  /// `rng` with a descriptive Status instead of aborting. Failpoint:
  /// "lsh/tables-build".
  [[nodiscard]] static StatusOr<std::unique_ptr<LshTables>> Create(
      const LshFamily& family, const Matrix& data, LshTableParams params,
      Rng* rng);

  /// Restores an index from persisted buckets, skipping the O(n k l)
  /// re-hash of every data row — the expensive part of Create. `rng`
  /// must be positioned at the same state the building rng had (the
  /// storage layer saves Rng::State alongside the buckets), so the
  /// per-table function draws replay bit-identically and the saved
  /// buckets stay consistent with the functions. `buckets[t]` is
  /// installed as table t; entries are validated against `num_rows`.
  /// Takes the row count rather than the hashed matrix: the buckets
  /// already encode every data hash, so the restore path never needs
  /// the (possibly transformed) dataset at all.
  [[nodiscard]] static StatusOr<std::unique_ptr<LshTables>> CreateFromBuckets(
      const LshFamily& family, std::size_t num_rows, LshTableParams params,
      Rng* rng,
      std::vector<std::unordered_map<std::uint64_t,
                                     std::vector<std::uint32_t>>> buckets);

  /// Indices of data rows sharing at least one bucket with `q`
  /// (deduplicated, ascending). Thread-safe: uses no per-query shared
  /// scratch, so a built index may serve concurrent queries.
  [[nodiscard]] std::vector<std::size_t> Query(std::span<const double> q)
      const {
    return Query(q, nullptr, nullptr);
  }

  /// Instrumented flavor: when `trace` is non-null, records the
  /// hash -> bucket -> dedup stage spans under the trace's open span;
  /// when `info` is non-null, fills the per-query accounting. Both may
  /// be null. Every call bumps the "lsh.tables.*" registry counters.
  [[nodiscard]] std::vector<std::size_t> Query(std::span<const double> q,
                                               Trace* trace,
                                               LshQueryInfo* info) const;

  /// Number of candidates Query would return, without materializing them.
  [[nodiscard]] std::size_t CountCandidates(std::span<const double> q) const;

  const LshTableParams& params() const { return params_; }

  /// Bucket map of table `t` (immutable once built), for snapshotting.
  std::size_t num_tables() const { return tables_.size(); }
  const std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>&
  table_buckets(std::size_t t) const {
    return tables_[t].buckets;
  }

  /// Average bucket occupancy across tables (diagnostic). The tables are
  /// immutable after construction, so the O(#buckets) scan is computed
  /// once and memoized behind stats_mutex_; safe to call concurrently
  /// with queries.
  double MeanBucketSize() const IPS_EXCLUDES(stats_mutex_);

 private:
  LshTables() = default;  // CreateFromBuckets fills the members.

  struct Table {
    std::unique_ptr<ConcatenatedLshFunction> function;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  };

  LshTableParams params_;
  std::vector<Table> tables_;
  // Lazily-memoized MeanBucketSize (negative = not yet computed).
  mutable Mutex stats_mutex_;
  mutable double mean_bucket_size_ IPS_GUARDED_BY(stats_mutex_) = -1.0;
};

}  // namespace ips

#endif  // IPS_LSH_TABLES_H_
