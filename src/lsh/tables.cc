#include "lsh/tables.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "linalg/validate.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace ips {

LshTableParams LshTableParams::FromGap(std::size_t n, double p1, double p2) {
  IPS_CHECK_GT(n, 1u);
  IPS_CHECK_GT(p1, 0.0);
  IPS_CHECK_LT(p2, 1.0);
  IPS_CHECK_GT(p2, 0.0);
  IPS_CHECK_GE(p1, p2);
  LshTableParams params;
  const double ln_n = std::log(static_cast<double>(n));
  params.k = static_cast<std::size_t>(
      std::max(1.0, std::ceil(ln_n / std::log(1.0 / p2))));
  const double rho = std::log(p1) / std::log(p2);
  // Success probability per table is ~p1^k = n^-rho; use 3 n^rho tables
  // for a constant success probability per query around 1 - e^-3.
  params.l = static_cast<std::size_t>(
      std::max(1.0, std::ceil(3.0 * std::pow(static_cast<double>(n), rho))));
  return params;
}

LshTables::LshTables(const LshFamily& family, const Matrix& data,
                     LshTableParams params, Rng* rng, ThreadPool* pool)
    : params_(params) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_GE(params.k, 1u);
  IPS_CHECK_GE(params.l, 1u);
  IPS_CHECK_EQ(family.dim(), data.cols());
  tables_.resize(params_.l);
  // The functions are drawn serially, in table order (the stream a
  // snapshot load replays); each table then hashes every row on its
  // own task, inserting in row order, so its buckets -- contents and
  // iteration order -- match a serial build.
  for (auto& table : tables_) {
    table.function =
        std::make_unique<ConcatenatedLshFunction>(family, params_.k, rng);
  }
  std::optional<ThreadPool> local_pool;
  if (pool == nullptr) {
    pool = &local_pool.emplace(ThreadPool::DefaultThreadCount());
  }
  ParallelFor(pool, tables_.size(), [&](std::size_t first, std::size_t last) {
    for (std::size_t t = first; t < last; ++t) {
      Table& table = tables_[t];
      for (std::size_t i = 0; i < data.rows(); ++i) {
        const std::uint64_t key = table.function->HashData(data.Row(i));
        table.buckets[key].push_back(static_cast<std::uint32_t>(i));
      }
    }
  });
}

StatusOr<std::unique_ptr<LshTables>> LshTables::Create(
    const LshFamily& family, const Matrix& data, LshTableParams params,
    Rng* rng) {
  IPS_FAILPOINT("lsh/tables-build");
  if (rng == nullptr) {
    return Status::InvalidArgument("LshTables requires a non-null rng");
  }
  if (params.k < 1 || params.l < 1) {
    return Status::InvalidArgument(
        "LshTables needs k >= 1 and l >= 1, got k=" +
        std::to_string(params.k) + ", l=" + std::to_string(params.l));
  }
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(data, "lsh data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(data, "lsh data"));
  IPS_RETURN_IF_ERROR(ValidateDims(data, family.dim(), "lsh data"));
  return std::make_unique<LshTables>(family, data, params, rng);
}

StatusOr<std::unique_ptr<LshTables>> LshTables::CreateFromBuckets(
    const LshFamily& family, std::size_t num_rows, LshTableParams params,
    Rng* rng,
    std::vector<std::unordered_map<std::uint64_t,
                                   std::vector<std::uint32_t>>> buckets) {
  IPS_FAILPOINT("lsh/tables-build");
  if (rng == nullptr) {
    return Status::InvalidArgument("LshTables requires a non-null rng");
  }
  if (params.k < 1 || params.l < 1) {
    return Status::InvalidArgument(
        "LshTables needs k >= 1 and l >= 1, got k=" +
        std::to_string(params.k) + ", l=" + std::to_string(params.l));
  }
  if (num_rows == 0) {
    return Status::InvalidArgument("lsh artifact restore with zero rows");
  }
  if (buckets.size() != params.l) {
    return Status::DataLoss("lsh artifact holds " +
                            std::to_string(buckets.size()) +
                            " tables but params say l=" +
                            std::to_string(params.l));
  }
  for (const auto& table : buckets) {
    for (const auto& [key, bucket] : table) {
      (void)key;
      for (std::uint32_t i : bucket) {
        if (i >= num_rows) {
          return Status::DataLoss(
              "lsh artifact bucket entry " + std::to_string(i) +
              " is outside the dataset of " + std::to_string(num_rows) +
              " rows");
        }
      }
    }
  }
  std::unique_ptr<LshTables> tables(new LshTables());
  tables->params_ = params;
  tables->tables_.resize(params.l);
  for (std::size_t t = 0; t < params.l; ++t) {
    // Replaying the function draws (instead of persisting hyperplanes)
    // keeps the artifact family-agnostic; determinism of Rng plus the
    // saved pre-build state makes the replay bit-identical.
    tables->tables_[t].function =
        std::make_unique<ConcatenatedLshFunction>(family, params.k, rng);
    tables->tables_[t].buckets = std::move(buckets[t]);
  }
  return tables;
}

std::vector<std::size_t> LshTables::Query(std::span<const double> q,
                                          Trace* trace,
                                          LshQueryInfo* info) const {
  // Registry handles resolved once per process; the per-query cost is a
  // handful of relaxed per-thread increments, not map lookups.
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("lsh.tables.queries");
  static Counter* const buckets_probed =
      MetricsRegistry::Global().GetCounter("lsh.tables.buckets_probed");
  static Counter* const raw =
      MetricsRegistry::Global().GetCounter("lsh.tables.candidates_raw");
  static Counter* const unique =
      MetricsRegistry::Global().GetCounter("lsh.tables.candidates_unique");

  LshQueryInfo local;
  std::vector<std::uint64_t> keys(tables_.size());
  {
    TraceSpan span(trace, "hash");
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      keys[t] = tables_[t].function->HashQuery(q);
    }
    span.AddCount("tables", tables_.size());
  }
  std::vector<std::size_t> candidates;
  {
    TraceSpan span(trace, "bucket");
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const auto it = tables_[t].buckets.find(keys[t]);
      if (it == tables_[t].buckets.end()) continue;
      ++local.buckets_hit;
      candidates.insert(candidates.end(), it->second.begin(),
                        it->second.end());
    }
    span.AddCount("buckets_hit", local.buckets_hit);
    span.AddCount("raw_candidates", candidates.size());
  }
  local.tables_probed = tables_.size();
  local.raw_candidates = candidates.size();
  {
    TraceSpan span(trace, "dedup");
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    span.AddCount("unique_candidates", candidates.size());
    span.AddCount("duplicates", local.raw_candidates - candidates.size());
  }
  local.unique_candidates = candidates.size();

  queries->Increment();
  buckets_probed->Add(local.tables_probed);
  raw->Add(local.raw_candidates);
  unique->Add(local.unique_candidates);
  if (info != nullptr) *info = local;
  return candidates;
}

std::size_t LshTables::CountCandidates(std::span<const double> q) const {
  return Query(q).size();
}

double LshTables::MeanBucketSize() const {
  MutexLock lock(stats_mutex_);
  if (mean_bucket_size_ >= 0.0) return mean_bucket_size_;
  std::size_t total_entries = 0;
  std::size_t total_buckets = 0;
  for (const auto& table : tables_) {
    total_buckets += table.buckets.size();
    for (const auto& [key, bucket] : table.buckets) {
      (void)key;
      total_entries += bucket.size();
    }
  }
  mean_bucket_size_ = total_buckets == 0
                          ? 0.0
                          : static_cast<double>(total_entries) /
                                static_cast<double>(total_buckets);
  return mean_bucket_size_;
}

}  // namespace ips
