#include "core/norm_range_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace ips {
namespace {

// The bucket bound max_norm * ||q|| caps signed scores only.
Status RequireSigned(bool is_signed) {
  if (!is_signed) {
    return Status::InvalidArgument(
        "norm-range index answers signed queries only");
  }
  return Status::Ok();
}

}  // namespace

NormRangeIndex::NormRangeIndex(const Matrix& data,
                               const NormRangeParams& params, Rng* rng)
    : data_(&data), params_(params) {
  IPS_CHECK(rng != nullptr);
  IPS_CHECK_GT(data.rows(), 0u);
  IPS_CHECK_GE(params.bucket_size, 1u);
  // Sort indices by norm, descending.
  std::vector<std::uint32_t> order(data.rows());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> norms(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) norms[i] = kernels::Norm(data.Row(i));
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return norms[a] > norms[b];
  });

  for (std::size_t begin = 0; begin < order.size();
       begin += params.bucket_size) {
    const std::size_t end =
        std::min(begin + params.bucket_size, order.size());
    Bucket bucket;
    bucket.members.assign(order.begin() + begin, order.begin() + end);
    bucket.max_norm = norms[bucket.members.front()];
    for (std::uint32_t member : bucket.members) {
      bucket.directions.AppendRow(kernels::Normalized(data.Row(member)));
    }
    bucket.family = std::make_unique<SimHashFamily>(data.cols());
    bucket.tables = std::make_unique<LshTables>(
        *bucket.family, bucket.directions, params.lsh_params, rng);
    buckets_.push_back(std::move(bucket));
  }
}

Status NormRangeIndex::ValidateSearch(const JoinSpec& spec) const {
  return RequireSigned(spec.is_signed);
}

std::optional<SearchMatch> NormRangeIndex::Search(std::span<const double> q,
                                                  const JoinSpec& spec,
                                                  QueryStats* stats) const {
  IPS_CHECK_OK(ValidateSearch(spec));
  const double query_norm = kernels::Norm(q);
  if (query_norm == 0.0) {
    if (stats != nullptr) *stats = QueryStats{};
    return std::nullopt;
  }
  const std::vector<double> direction = kernels::Normalized(q);

  SearchMatch best;
  best.value = -std::numeric_limits<double>::infinity();
  std::size_t scored = 0;
  std::size_t pruned = 0;
  for (const Bucket& bucket : buckets_) {
    const double bucket_bound = bucket.max_norm * query_norm;
    // Prune: nothing in this (or any later) bucket can beat both the
    // current best and the cs threshold.
    if (bucket_bound <= std::max(best.value, spec.cs())) {
      pruned = 1;
      break;
    }
    const double local_cosine =
        std::max(best.value, spec.cs()) / bucket_bound;
    auto consider = [&](std::size_t position) {
      const std::uint32_t member = bucket.members[position];
      const double value = kernels::Dot(data_->Row(member), q);
      ++scored;
      if (value > best.value) {
        best.value = value;
        best.index = member;
      }
    };
    if (local_cosine >= params_.lsh_cosine_threshold) {
      // Selective regime: probe the bucket's cosine tables.
      for (std::size_t position : bucket.tables->Query(direction)) {
        consider(position);
      }
    } else {
      // Low local threshold: scanning is cheaper than high-recall LSH.
      for (std::size_t position = 0; position < bucket.members.size();
           ++position) {
        consider(position);
      }
    }
  }
  if (stats != nullptr) {
    *stats = QueryStats{};
    stats->candidates = scored;
    stats->dot_products = scored;
    stats->metrics.Set("normrange.buckets_pruned", pruned);
  }
  if (best.value >= spec.cs()) return best;
  return std::nullopt;
}

StatusOr<std::vector<SearchMatch>> NormRangeIndex::Query(
    std::span<const double> q, const QueryOptions& options, QueryStats* stats,
    Trace* trace) const {
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("core.normrange.queries");
  static Counter* const buckets_visited =
      MetricsRegistry::Global().GetCounter("core.normrange.buckets_visited");
  static Counter* const buckets_pruned =
      MetricsRegistry::Global().GetCounter("core.normrange.buckets_pruned");
  static Counter* const points_scored =
      MetricsRegistry::Global().GetCounter("core.normrange.points_scored");

  IPS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  if (q.size() != dim()) {
    return Status::InvalidArgument(
        "query dimension " + std::to_string(q.size()) +
        " != index dimension " + std::to_string(dim()));
  }
  IPS_RETURN_IF_ERROR(RequireSigned(options.is_signed));
  std::unique_ptr<Trace> owned;
  if (options.trace && trace == nullptr) {
    owned = std::make_unique<Trace>(Name());
  }
  Trace* t = trace != nullptr ? trace : owned.get();

  std::vector<SearchMatch> best;  // sorted: score desc, index asc
  std::size_t visited = 0;
  std::size_t pruned = 0;
  std::size_t scored = 0;
  {
    TraceSpan span(t, "norm-range");
    const double query_norm = kernels::Norm(q);
    if (query_norm > 0.0) {
      const std::vector<double> direction = kernels::Normalized(q);
      const auto order = [](const SearchMatch& a, const SearchMatch& b) {
        if (a.value != b.value) return a.value > b.value;
        return a.index < b.index;
      };
      // Score of the k-th best so far: the bucket prune bound (no
      // threshold here, unlike Search, so top-k stands in for cs).
      const auto kth = [&]() {
        return best.size() < options.k
                   ? -std::numeric_limits<double>::infinity()
                   : best.back().value;
      };
      for (const Bucket& bucket : buckets_) {
        const double bucket_bound = bucket.max_norm * query_norm;
        if (bucket_bound <= kth()) {
          pruned = buckets_.size() - visited;
          break;
        }
        ++visited;
        const double local_cosine = kth() / bucket_bound;
        auto consider = [&](std::size_t position) {
          const std::uint32_t member = bucket.members[position];
          const SearchMatch m{member, kernels::Dot(data_->Row(member), q)};
          ++scored;
          const auto it = std::lower_bound(best.begin(), best.end(), m, order);
          best.insert(it, m);
          if (best.size() > options.k) best.pop_back();
        };
        if (local_cosine >= params_.lsh_cosine_threshold) {
          for (std::size_t position : bucket.tables->Query(direction)) {
            consider(position);
          }
        } else {
          for (std::size_t position = 0; position < bucket.members.size();
               ++position) {
            consider(position);
          }
        }
      }
    }
    span.AddCount("buckets_visited", visited);
    span.AddCount("buckets_pruned", pruned);
    span.AddCount("points_scored", scored);
  }
  queries->Increment();
  buckets_visited->Add(visited);
  buckets_pruned->Add(pruned);
  points_scored->Add(scored);

  QueryStats local;
  local.candidates = scored;
  local.dot_products = scored;
  local.metrics.Set("normrange.buckets_visited", visited);
  local.metrics.Set("normrange.buckets_pruned", pruned);
  local.metrics.Set("normrange.points_scored", scored);
  if (owned != nullptr) {
    local.trace = std::shared_ptr<const Trace>(std::move(owned));
  }
  if (stats != nullptr) *stats = std::move(local);
  return best;
}

}  // namespace ips
