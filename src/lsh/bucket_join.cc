#include "lsh/bucket_join.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "linalg/validate.h"
#include "linalg/kernels.h"
#include "lsh/transforms.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace ips {
namespace {

// One data row's entry in a flat bucket table.
using BucketEntry = std::pair<std::uint64_t, std::uint32_t>;

}  // namespace

void BucketJoinCounters::Publish(MetricSet* metrics) const {
  metrics->Set("lsh.join.candidate_pairs", candidate_pairs);
  metrics->Set("lsh.join.verified_pairs", verified_pairs);
  metrics->Set("lsh.join.duplicate_pairs", duplicate_pairs);
  metrics->Set("lsh.join.pairs_prefiltered", prefiltered_pairs);
  static Counter* const joins =
      MetricsRegistry::Global().GetCounter("lsh.join.runs");
  static Counter* const candidate_counter =
      MetricsRegistry::Global().GetCounter("lsh.join.candidate_pairs");
  static Counter* const verified_counter =
      MetricsRegistry::Global().GetCounter("lsh.join.verified_pairs");
  static Counter* const duplicate_counter =
      MetricsRegistry::Global().GetCounter("lsh.join.duplicate_pairs");
  static Counter* const prefiltered_counter =
      MetricsRegistry::Global().GetCounter("lsh.join.pairs_prefiltered");
  joins->Increment();
  candidate_counter->Add(candidate_pairs);
  verified_counter->Add(verified_pairs);
  duplicate_counter->Add(duplicate_pairs);
  prefiltered_counter->Add(prefiltered_pairs);
}

BucketJoiner::BucketJoiner(const LshFamily& family, LshTableParams params,
                           double cs_threshold, bool is_signed, Rng* rng,
                           ThreadPool* pool)
    : split_(family.Split()),
      dim_(family.dim()),
      cs_threshold_(cs_threshold),
      is_signed_(is_signed),
      pool_(pool) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK(split_.base != nullptr);
  // Table order, as L successive ConcatenatedLshFunction(family, k, rng)
  // draws: Split() promises the base family draws what the family would.
  functions_.reserve(params.l);
  for (std::size_t t = 0; t < params.l; ++t) {
    functions_.emplace_back(*split_.base, params.k, rng);
  }
}

std::size_t BucketJoiner::WorkingSetBytesPerRow(std::size_t cols,
                                                std::size_t l) {
  // A QuantizedVector's codes live in their own heap block, which the
  // allocator prefixes with a header of about this size.
  constexpr std::size_t kAllocationHeader = 16;
  const std::size_t data_row = cols * sizeof(double) +
                               l * sizeof(BucketEntry) +
                               cols * sizeof(std::int8_t) +
                               sizeof(std::int32_t);  // code L1 sum
  const std::size_t query_row = cols * sizeof(double) +
                                l * sizeof(std::uint64_t) +
                                sizeof(QuantizedVector) +
                                cols * sizeof(std::int8_t) +
                                kAllocationHeader;
  return data_row + query_row;
}

template <typename Store>
void BucketJoiner::HashRows(const Matrix& rows, bool as_queries,
                            Store store) const {
  IPS_CHECK_EQ(rows.cols(), dim_);
  ParallelFor(pool_, rows.rows(), [&](std::size_t begin, std::size_t end) {
    std::vector<double> transformed;  // this chunk's transform scratch
    for (std::size_t i = begin; i < end; ++i) {
      std::span<const double> row = rows.Row(i);
      if (split_.transform != nullptr) {
        transformed = as_queries ? split_.transform->TransformQuery(row)
                                 : split_.transform->TransformData(row);
        row = transformed;
      }
      for (std::size_t t = 0; t < functions_.size(); ++t) {
        store(t, i, as_queries ? functions_[t].HashQuery(row)
                               : functions_[t].HashData(row));
      }
    }
  });
}

void BucketJoiner::SetQueries(const Matrix& hash_queries,
                              const Matrix& queries) {
  IPS_CHECK_EQ(hash_queries.rows(), queries.rows());
  queries_ = &queries;
  const std::size_t m = queries.rows();
  query_keys_.resize(functions_.size() * m);
  HashRows(hash_queries, /*as_queries=*/true,
           [&](std::size_t t, std::size_t q, std::uint64_t key) {
             query_keys_[t * m + q] = key;
           });
  quantized_queries_.resize(queries.rows());
  ParallelFor(pool_, queries.rows(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t q = begin; q < end; ++q) {
      quantized_queries_[q] = QuantizeVector(queries.Row(q));
    }
  });
}

void BucketJoiner::Join(const Matrix& hash_data, const Matrix& data,
                        std::size_t data_offset,
                        std::span<BucketJoinMatch> best,
                        BucketJoinCounters* counters) const {
  IPS_CHECK(queries_ != nullptr) << "SetQueries must precede Join";
  IPS_CHECK(counters != nullptr);
  IPS_CHECK_EQ(best.size(), queries_->rows());
  IPS_CHECK_EQ(hash_data.rows(), data.rows());
  IPS_CHECK_EQ(data.cols(), queries_->cols());
  IPS_CHECK_EQ(data_offset % QuantizedMatrix::kRowsPerBlock, 0u)
      << "data blocks must start on a quantization row block";
  const std::size_t n = data.rows();
  IPS_CHECK_LE(n, std::numeric_limits<std::uint32_t>::max());
  const std::size_t m = queries_->rows();
  const std::size_t l = functions_.size();

  // Flat buckets: table t occupies [t * n, (t + 1) * n) of `buckets`,
  // its (key, row) entries sorted by key.
  std::vector<BucketEntry> buckets(l * n);
  HashRows(hash_data, /*as_queries=*/false,
           [&](std::size_t t, std::size_t i, std::uint64_t key) {
             buckets[t * n + i] = {key, static_cast<std::uint32_t>(i)};
           });
  ParallelFor(pool_, l, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const auto first = buckets.begin() + static_cast<std::ptrdiff_t>(t * n);
      std::sort(first, first + static_cast<std::ptrdiff_t>(n));
    }
  });

  // Lossless quantized prefilter: a pair is skipped only when its int8
  // estimate plus the rigorous rounding-error bound stays below the cs
  // threshold, so no pair that could pass verification is ever dropped.
  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  std::atomic<std::size_t> candidate_pairs{0};
  std::atomic<std::size_t> verified_pairs{0};
  std::atomic<std::size_t> duplicate_pairs{0};
  std::atomic<std::size_t> prefiltered_pairs{0};
  ParallelFor(pool_, m, [&](std::size_t begin, std::size_t end) {
    BucketJoinCounters local;
    std::vector<std::uint32_t> candidates;
    for (std::size_t q = begin; q < end; ++q) {
      // Gather the query's L buckets, then keep each data row once:
      // a pair colliding in several tables is verified at most once.
      candidates.clear();
      for (std::size_t t = 0; t < l; ++t) {
        const std::uint64_t key = query_keys_[t * m + q];
        const auto first =
            buckets.begin() + static_cast<std::ptrdiff_t>(t * n);
        const auto last = first + static_cast<std::ptrdiff_t>(n);
        for (auto it = std::lower_bound(
                 first, last, key,
                 [](const BucketEntry& e, std::uint64_t k) { return e.first < k; });
             it != last && it->first == key; ++it) {
          candidates.push_back(it->second);
        }
      }
      local.candidate_pairs += candidates.size();
      std::sort(candidates.begin(), candidates.end());
      const auto distinct_end =
          std::unique(candidates.begin(), candidates.end());
      local.duplicate_pairs +=
          static_cast<std::size_t>(candidates.end() - distinct_end);
      candidates.erase(distinct_end, candidates.end());

      const QuantizedVector& qq = quantized_queries_[q];
      const std::span<const double> query = queries_->Row(q);
      BucketJoinMatch& match = best[q];
      for (const std::uint32_t di : candidates) {
        const double est =
            static_cast<double>(kernels::DotI8(
                {qdata.RowCodes(di), data.cols()}, qq.codes)) *
            qdata.RowScale(di) * qq.scale;
        const double bound = qdata.ErrorBound(di, qq);
        const double ceiling =
            is_signed_ ? est + bound : std::abs(est) + bound;
        if (ceiling < cs_threshold_) {
          ++local.prefiltered_pairs;
          continue;
        }
        ++local.verified_pairs;
        const double raw = kernels::Dot(data.Row(di), query);
        const double score = is_signed_ ? raw : std::abs(raw);
        if (score < cs_threshold_) continue;
        // Ties break toward the smaller data index, so the best is the
        // maximum of a total order: independent of table, block and
        // thread order.
        const std::size_t index = data_offset + di;
        if (!match.has_value() || score > match->second ||
            (score == match->second && index < match->first)) {
          match = std::make_pair(index, score);
        }
      }
    }
    candidate_pairs += local.candidate_pairs;
    verified_pairs += local.verified_pairs;
    duplicate_pairs += local.duplicate_pairs;
    prefiltered_pairs += local.prefiltered_pairs;
  });
  counters->candidate_pairs += candidate_pairs;
  counters->verified_pairs += verified_pairs;
  counters->duplicate_pairs += duplicate_pairs;
  counters->prefiltered_pairs += prefiltered_pairs;
}

BucketJoinResult LshBucketJoin(const LshFamily& family,
                               const Matrix& hash_data, const Matrix& data,
                               const Matrix& hash_queries,
                               const Matrix& queries, double s_threshold,
                               double cs_threshold, bool is_signed,
                               LshTableParams params, Rng* rng,
                               ThreadPool* pool) {
  IPS_CHECK_LE(cs_threshold, s_threshold);
  (void)s_threshold;  // the contract's promise level; joins filter at cs

  BucketJoiner joiner(family, params, cs_threshold, is_signed, rng, pool);
  joiner.SetQueries(hash_queries, queries);
  BucketJoinResult result;
  result.per_query.resize(queries.rows());
  BucketJoinCounters counters;
  joiner.Join(hash_data, data, /*data_offset=*/0, result.per_query,
              &counters);
  counters.Publish(&result.metrics);
  return result;
}

StatusOr<BucketJoinResult> LshBucketJoinChecked(
    const LshFamily& family, const Matrix& hash_data, const Matrix& data,
    const Matrix& hash_queries, const Matrix& queries, double s_threshold,
    double cs_threshold, bool is_signed, LshTableParams params, Rng* rng) {
  IPS_FAILPOINT("lsh/bucket-join");
  if (rng == nullptr) {
    return Status::InvalidArgument("LshBucketJoin requires a non-null rng");
  }
  if (params.k < 1 || params.l < 1) {
    return Status::InvalidArgument(
        "LshBucketJoin needs k >= 1 and l >= 1, got k=" +
        std::to_string(params.k) + ", l=" + std::to_string(params.l));
  }
  if (!std::isfinite(s_threshold) || !std::isfinite(cs_threshold)) {
    return Status::InvalidArgument("join thresholds must be finite");
  }
  if (cs_threshold > s_threshold) {
    return Status::InvalidArgument(
        "cs threshold " + std::to_string(cs_threshold) +
        " exceeds s threshold " + std::to_string(s_threshold));
  }
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(data, "data"));
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(queries, "queries"));
  IPS_RETURN_IF_ERROR(ValidateFinite(data, "data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(queries, "queries"));
  IPS_RETURN_IF_ERROR(ValidateFinite(hash_data, "hash-space data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(hash_queries, "hash-space queries"));
  IPS_RETURN_IF_ERROR(ValidateDims(hash_data, family.dim(),
                                   "hash-space data"));
  IPS_RETURN_IF_ERROR(ValidateDims(hash_queries, family.dim(),
                                   "hash-space queries"));
  if (hash_data.rows() != data.rows()) {
    return Status::InvalidArgument(
        "hash-space data has " + std::to_string(hash_data.rows()) +
        " rows but the original has " + std::to_string(data.rows()));
  }
  if (hash_queries.rows() != queries.rows()) {
    return Status::InvalidArgument(
        "hash-space queries have " + std::to_string(hash_queries.rows()) +
        " rows but the original has " + std::to_string(queries.rows()));
  }
  if (data.cols() != queries.cols()) {
    return Status::InvalidArgument(
        "data dimension " + std::to_string(data.cols()) +
        " != query dimension " + std::to_string(queries.cols()));
  }
  return LshBucketJoin(family, hash_data, data, hash_queries, queries,
                       s_threshold, cs_threshold, is_signed, params, rng);
}

}  // namespace ips
