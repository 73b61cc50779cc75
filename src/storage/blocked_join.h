// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Out-of-core bucket join: joins two point sets that live in matrix
// snapshot files and may be far larger than RAM. Rows are streamed in
// memory-budgeted blocks and every (query block, data block) pair runs
// through the in-memory bucket join engine (BucketJoiner, which also
// backs LshBucketJoin); per-query bests merge across block pairs under
// the project-wide deterministic ordering (score descending, then
// smaller global data index).
//
// Determinism: the L concatenated hash functions are drawn once from
// Rng(options.seed) in table order — exactly the draws of a monolithic
// LshBucketJoin run with Rng(options.seed) — and serve every block pair.
// Each query block is hashed and quantized once and probed against every
// data block. So a (data, query) pair collides in some table of the
// blocked join iff it collides in the same table of the monolithic run,
// and the blocked result equals the monolithic result exactly
// (tests/storage_test.cc holds it to that), while peak memory stays
// within the block budget instead of O(n). Block sizes are whole
// QuantizedMatrix row blocks, so the four lsh.join.* counters also sum
// to the monolithic run's. The join runs on a ThreadPool of
// ThreadPool::DefaultThreadCount() threads; results and counters do not
// depend on the thread count.

#ifndef IPS_STORAGE_BLOCKED_JOIN_H_
#define IPS_STORAGE_BLOCKED_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "lsh/bucket_join.h"
#include "lsh/lsh_family.h"
#include "lsh/tables.h"
#include "util/status.h"

namespace ips {
namespace storage {

/// Tuning of one blocked join run.
struct BlockedJoinOptions {
  /// Budget for the join's working set: both resident blocks, the data
  /// block's flat bucket tables and int8 codes, and the query block's
  /// keys and codes (BucketJoiner::WorkingSetBytesPerRow per row). The
  /// blocked-join RSS test asserts the process peak stays within this.
  /// A budget below one 32-row block's working set still runs 32-row
  /// blocks.
  std::size_t memory_budget_bytes = 64u << 20;
  /// Rows per block; 0 derives the most rows whose working set fits the
  /// budget. An explicit or derived size is rounded down to whole
  /// QuantizedMatrix row blocks (32 rows, at least one); the stats
  /// report the size used.
  std::size_t block_rows = 0;
  /// (K, L) amplification of every block pair's tables.
  LshTableParams params;
  /// Join thresholds and score mode (as LshBucketJoin).
  double s_threshold = 0.0;
  double cs_threshold = 0.0;
  bool is_signed = true;
  /// Seed of the per-block-pair hash function draws (see header note).
  std::uint64_t seed = 2026;
  /// Verify the snapshots' DSET checksums (streaming, bounded memory)
  /// before joining.
  bool verify_checksums = true;
};

/// Work accounting of one blocked join run.
struct BlockedJoinStats {
  std::size_t data_rows = 0;
  std::size_t query_rows = 0;
  std::size_t block_rows = 0;   // resolved block size
  std::size_t data_blocks = 0;
  std::size_t query_blocks = 0;
  std::size_t block_pairs = 0;
  /// Snapshot bytes streamed from disk across all block reads.
  std::size_t bytes_read = 0;
};

/// Joins the matrix snapshots at `data_path` and `queries_path` under
/// `family` (which hashes original rows — pass a TransformedLshFamily
/// for IPS). Scores are signed or absolute inner products per
/// options.is_signed; the result indexes rows of the data snapshot
/// globally. Failpoint: "storage/blocked-join".
[[nodiscard]] StatusOr<BucketJoinResult> BlockedBucketJoin(
    const LshFamily& family, const std::string& data_path,
    const std::string& queries_path, const BlockedJoinOptions& options,
    BlockedJoinStats* stats = nullptr);

}  // namespace storage
}  // namespace ips

#endif  // IPS_STORAGE_BLOCKED_JOIN_H_
