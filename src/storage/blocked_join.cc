#include "storage/blocked_join.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "linalg/quantized.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "storage/snapshot.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace ips {
namespace storage {
namespace {

// Rows per block: the explicit options.block_rows, or the most rows
// whose join working set (BucketJoiner::WorkingSetBytesPerRow, with the
// data block and the query block both full) fits the budget. Either is
// rounded down to whole quantization row blocks, at least one, which
// BucketJoiner::Join requires of every data block but the last so the
// join counters equal a monolithic run's.
std::size_t ResolveBlockRows(const BlockedJoinOptions& options,
                             std::size_t cols) {
  const std::size_t rows =
      options.block_rows > 0
          ? options.block_rows
          : options.memory_budget_bytes /
                BucketJoiner::WorkingSetBytesPerRow(cols, options.params.l);
  constexpr std::size_t kAlign = QuantizedMatrix::kRowsPerBlock;
  return std::max(kAlign, rows - rows % kAlign);
}

}  // namespace

StatusOr<BucketJoinResult> BlockedBucketJoin(const LshFamily& family,
                                             const std::string& data_path,
                                             const std::string& queries_path,
                                             const BlockedJoinOptions& options,
                                             BlockedJoinStats* stats) {
  IPS_FAILPOINT("storage/blocked-join");
  if (options.params.k < 1 || options.params.l < 1) {
    return Status::InvalidArgument(
        "blocked join needs k >= 1 and l >= 1, got k=" +
        std::to_string(options.params.k) + ", l=" +
        std::to_string(options.params.l));
  }
  if (options.memory_budget_bytes == 0) {
    return Status::InvalidArgument("blocked join memory budget must be > 0");
  }
  if (!std::isfinite(options.s_threshold) ||
      !std::isfinite(options.cs_threshold)) {
    return Status::InvalidArgument("join thresholds must be finite");
  }
  if (options.cs_threshold > options.s_threshold) {
    return Status::InvalidArgument(
        "cs threshold " + std::to_string(options.cs_threshold) +
        " exceeds s threshold " + std::to_string(options.s_threshold));
  }

  auto data_reader =
      MatrixBlockReader::Open(data_path, options.verify_checksums);
  IPS_RETURN_IF_ERROR(data_reader.status());
  auto query_reader =
      MatrixBlockReader::Open(queries_path, options.verify_checksums);
  IPS_RETURN_IF_ERROR(query_reader.status());

  if (data_reader->rows() == 0 || query_reader->rows() == 0) {
    return Status::InvalidArgument("blocked join inputs must be non-empty");
  }
  if (data_reader->cols() != query_reader->cols()) {
    return Status::InvalidArgument(
        "data dimension " + std::to_string(data_reader->cols()) +
        " != query dimension " + std::to_string(query_reader->cols()));
  }
  if (data_reader->cols() != family.dim()) {
    return Status::InvalidArgument(
        "snapshot dimension " + std::to_string(data_reader->cols()) +
        " != lsh family dimension " + std::to_string(family.dim()));
  }

  const std::size_t block_rows = ResolveBlockRows(options,
                                                  data_reader->cols());
  BlockedJoinStats local;
  local.data_rows = data_reader->rows();
  local.query_rows = query_reader->rows();
  local.block_rows = block_rows;
  local.data_blocks = (local.data_rows + block_rows - 1) / block_rows;
  local.query_blocks = (local.query_rows + block_rows - 1) / block_rows;

  BucketJoinResult result;
  result.per_query.resize(local.query_rows);
  BucketJoinCounters counters;
  // One draw of the L functions serves every block pair, so a (data,
  // query) pair collides here iff it collides in the monolithic join
  // (see header). Each query block is hashed and quantized once and
  // probed against every data block.
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  Rng rng(options.seed);
  BucketJoiner joiner(family, options.params, options.cs_threshold,
                      options.is_signed, &rng, &pool);

  // Blocks are reused across iterations (ReadRows only reallocates on a
  // shape change), so the steady-state footprint is the two blocks plus
  // the query block's keys and codes and the data block's flat buckets
  // and codes: the working set ResolveBlockRows sized.
  Matrix query_block;
  Matrix data_block;
  for (std::size_t q0 = 0; q0 < local.query_rows; q0 += block_rows) {
    const std::size_t qn = std::min(block_rows, local.query_rows - q0);
    IPS_RETURN_IF_ERROR(query_reader->ReadRows(q0, qn, &query_block));
    local.bytes_read += qn * query_reader->cols() * sizeof(double);
    joiner.SetQueries(query_block, query_block);
    const std::span<BucketJoinMatch> best(result.per_query.data() + q0, qn);
    for (std::size_t d0 = 0; d0 < local.data_rows; d0 += block_rows) {
      const std::size_t dn = std::min(block_rows, local.data_rows - d0);
      IPS_RETURN_IF_ERROR(data_reader->ReadRows(d0, dn, &data_block));
      local.bytes_read += dn * data_reader->cols() * sizeof(double);
      ++local.block_pairs;
      joiner.Join(data_block, data_block, d0, best, &counters);
    }
  }

  counters.Publish(&result.metrics);
  static Counter* const runs =
      MetricsRegistry::Global().GetCounter("storage.blocked_join.runs");
  static Counter* const pairs =
      MetricsRegistry::Global().GetCounter("storage.blocked_join.block_pairs");
  static Counter* const bytes =
      MetricsRegistry::Global().GetCounter("storage.blocked_join.bytes_read");
  runs->Increment();
  pairs->Add(local.block_pairs);
  bytes->Add(local.bytes_read);
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace storage
}  // namespace ips
