#include "core/top_k.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace ips {
namespace {

std::vector<SearchMatch> KBest(std::vector<SearchMatch> scored,
                               std::size_t k) {
  // Score descending, then index ascending: equal scores always rank in
  // the same order, so results are stable across engines, thread counts,
  // and planner A/B comparisons. The order is total, so selecting the k
  // best first and sorting only them returns exactly the prefix a full
  // sort would, in O(n + k log k) instead of O(n log n).
  const auto better = [](const SearchMatch& a, const SearchMatch& b) {
    if (a.value != b.value) return a.value > b.value;
    return a.index < b.index;
  };
  if (scored.size() > k) {
    std::nth_element(scored.begin(), scored.begin() + k, scored.end(),
                     better);
    scored.resize(k);
  }
  std::sort(scored.begin(), scored.end(), better);
  return scored;
}

}  // namespace

std::vector<SearchMatch> TopKBruteForce(const Matrix& data,
                                        std::span<const double> q,
                                        std::size_t k, bool is_signed) {
  IPS_CHECK_GE(k, 1u);
  // Streams the scan: MatVec scores one cache-resident block of rows at
  // a time, and a heap under the same (score desc, index asc) order as
  // KBest keeps the k best, rejecting most rows with one compare
  // against a register-held floor. No n-length buffer is allocated.
  constexpr std::size_t kBlockRows = 512;
  double scores[kBlockRows];
  kernels::TopKHeap heap(k);
  double floor = heap.Floor();
  const std::size_t cols = data.cols();
  for (std::size_t begin = 0; begin < data.rows(); begin += kBlockRows) {
    const std::size_t rows = std::min(kBlockRows, data.rows() - begin);
    kernels::MatVec(Matrix::View(data.raw() + begin * cols, rows, cols), q,
                    std::span<double>(scores, rows));
    for (std::size_t j = 0; j < rows; ++j) {
      const double value = is_signed ? scores[j] : std::abs(scores[j]);
      if (value < floor || !heap.Accepts(value, begin + j)) continue;
      heap.Push(begin + j, value);
      floor = heap.Floor();
    }
  }
  std::vector<SearchMatch> matches;
  matches.reserve(heap.size());
  for (const kernels::ScoredIndex& entry : heap.TakeSorted()) {
    matches.push_back({entry.index, entry.value});
  }
  return matches;
}

std::vector<SearchMatch> TopKBallTree(const MipsBallTree& tree,
                                      const Matrix& data,
                                      std::span<const double> q,
                                      std::size_t k) {
  (void)data;
  std::vector<SearchMatch> result;
  for (const auto& [index, value] : tree.QueryTopK(q, k)) {
    result.push_back({index, value});
  }
  return result;
}

std::vector<SearchMatch> TopKFromCandidates(
    const Matrix& data, std::span<const double> q,
    const std::vector<std::size_t>& candidates, std::size_t k,
    bool is_signed) {
  IPS_CHECK_GE(k, 1u);
  std::vector<double> raw(candidates.size());
  kernels::GatherScores(data, candidates, q, raw);
  std::vector<SearchMatch> scored;
  scored.reserve(candidates.size());
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    scored.push_back({candidates[j], is_signed ? raw[j] : std::abs(raw[j])});
  }
  return KBest(std::move(scored), k);
}

std::vector<SearchMatch> QueryBruteForce(const Matrix& data,
                                         std::span<const double> q,
                                         const QueryOptions& options,
                                         QueryStats* stats, Trace* trace) {
  static Counter* const queries =
      MetricsRegistry::Global().GetCounter("core.brute.queries");
  static Counter* const points_scored =
      MetricsRegistry::Global().GetCounter("core.brute.points_scored");
  std::vector<SearchMatch> matches;
  {
    TraceSpan span(trace, "brute");
    matches = TopKBruteForce(data, q, options.k, options.is_signed);
    span.AddCount("points_scored", data.rows());
  }
  // One pair of per-thread relaxed increments per query — nothing in
  // the scan loop itself, so the instrumented path tracks the plain one.
  queries->Increment();
  points_scored->Add(data.rows());
  if (stats != nullptr) {
    stats->algorithm = QueryAlgo::kBruteForce;
    stats->candidates += data.rows();
    stats->dot_products += data.rows();
  }
  return matches;
}

std::vector<SearchMatch> QueryFromCandidates(
    const Matrix& data, std::span<const double> q,
    const std::vector<std::size_t>& candidates, const QueryOptions& options,
    QueryStats* stats, Trace* trace) {
  static Counter* const verified =
      MetricsRegistry::Global().GetCounter("core.candidates_verified");
  std::vector<SearchMatch> scored;
  {
    TraceSpan span(trace, "verify");
    std::vector<double> raw(candidates.size());
    kernels::GatherScores(data, candidates, q, raw);
    scored.reserve(candidates.size());
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      scored.push_back(
          {candidates[j], options.is_signed ? raw[j] : std::abs(raw[j])});
    }
    span.AddCount("candidates", candidates.size());
  }
  std::vector<SearchMatch> matches;
  {
    TraceSpan span(trace, "top-k");
    matches = KBest(std::move(scored), options.k);
    span.AddCount("k", options.k);
  }
  verified->Add(candidates.size());
  if (stats != nullptr) {
    stats->candidates += candidates.size();
    stats->dot_products += candidates.size();
  }
  return matches;
}

// ---------------------------------------------------------------------
// Two-stage scoring.
// ---------------------------------------------------------------------

std::size_t SurvivorCount(std::size_t k, std::size_t n,
                          std::size_t candidate_budget, double multiplier,
                          std::size_t floor) {
  std::size_t m = std::max(
      static_cast<std::size_t>(
          std::ceil(static_cast<double>(k) * multiplier)),
      floor);
  if (candidate_budget > 0) m = std::min(m, std::max(candidate_budget, k));
  return std::min(std::max(m, k), n);
}

std::vector<std::size_t> TopEstimateIndices(std::span<const double> estimates,
                                            std::size_t m, bool absolute) {
  IPS_CHECK_GE(m, 1u);
  std::vector<std::size_t> out;
  if (m >= estimates.size()) {
    out.resize(estimates.size());
    for (std::size_t i = 0; i < estimates.size(); ++i) out[i] = i;
    return out;
  }
  kernels::TopKHeap heap(m);
  double heap_floor = heap.Floor();
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    const double value = absolute ? std::abs(estimates[i]) : estimates[i];
    if (value < heap_floor) continue;
    if (heap.Accepts(value, i)) {
      heap.Push(i, value);
      heap_floor = heap.Floor();
    }
  }
  for (const auto& entry : heap.TakeSorted()) out.push_back(entry.index);
  return out;
}

namespace {

// Shared tail of the four two-stage entry points: exact re-rank of the
// survivor set plus the pruning/billing bookkeeping. `estimated` is the
// size of the candidate pool the estimate pass ranked; `estimate_cost`
// its dot-equivalent billing; `prefix` is "quant" or "filter".
std::vector<SearchMatch> RerankSurvivors(
    const Matrix& data, std::span<const double> q,
    const std::vector<std::size_t>& survivors, std::size_t estimated,
    double estimate_cost_ratio, const char* prefix, Counter* queries,
    Counter* pruned_counter, Counter* rerank_counter,
    const QueryOptions& options, QueryStats* stats, Trace* trace) {
  std::vector<SearchMatch> matches;
  {
    TraceSpan span(trace, std::string(prefix) + ".rerank");
    matches = TopKFromCandidates(data, q, survivors, options.k,
                                 options.is_signed);
    span.AddCount("rerank_dots", survivors.size());
  }
  const std::size_t pruned = estimated - survivors.size();
  const std::size_t estimate_cost = static_cast<std::size_t>(std::ceil(
      static_cast<double>(estimated) * estimate_cost_ratio));
  queries->Increment();
  pruned_counter->Add(pruned);
  rerank_counter->Add(survivors.size());
  if (stats != nullptr) {
    stats->candidates += survivors.size();
    stats->candidates_pruned += pruned;
    stats->rerank_exact_dots += survivors.size();
    stats->dot_products += survivors.size() + estimate_cost;
    stats->metrics.Add(std::string("core.") + prefix + ".candidates_pruned",
                       pruned);
    stats->metrics.Add(std::string("core.") + prefix + ".rerank_dots",
                       survivors.size());
  }
  return matches;
}

struct QuantCounters {
  Counter* queries;
  Counter* pruned;
  Counter* rerank;
};

const QuantCounters& QuantRegistryCounters() {
  static const QuantCounters counters = {
      MetricsRegistry::Global().GetCounter("core.quant.queries"),
      MetricsRegistry::Global().GetCounter("core.quant.candidates_pruned"),
      MetricsRegistry::Global().GetCounter("core.quant.rerank_dots")};
  return counters;
}

const QuantCounters& FilterRegistryCounters() {
  static const QuantCounters counters = {
      MetricsRegistry::Global().GetCounter("core.filter.queries"),
      MetricsRegistry::Global().GetCounter("core.filter.candidates_pruned"),
      MetricsRegistry::Global().GetCounter("core.filter.rerank_dots")};
  return counters;
}

}  // namespace

std::vector<SearchMatch> QueryQuantizedRerank(
    const Matrix& data, const QuantizedMatrix& qdata,
    std::span<const double> q, const QueryOptions& options,
    QueryStats* stats, Trace* trace) {
  const std::span<const double> queries[] = {q};
  std::vector<std::vector<SearchMatch>> matches = QueryQuantizedRerankBatch(
      data, qdata, queries, options,
      stats != nullptr ? std::span<QueryStats>(stats, 1)
                       : std::span<QueryStats>(),
      trace);
  return std::move(matches.front());
}

std::vector<std::vector<SearchMatch>> QueryQuantizedRerankBatch(
    const Matrix& data, const QuantizedMatrix& qdata,
    std::span<const std::span<const double>> queries,
    const QueryOptions& options, std::span<QueryStats> stats, Trace* trace) {
  IPS_CHECK_EQ(qdata.rows(), data.rows());
  IPS_CHECK(stats.empty() || stats.size() == queries.size());
  const std::size_t n = data.rows();
  const std::size_t m =
      SurvivorCount(options.k, n, options.candidate_budget,
                    kQuantSurvivorMultiplier, kQuantSurvivorFloor);
  IPS_CHECK_GE(m, 1u);
  std::vector<kernels::TopKHeap> heaps(queries.size(), kernels::TopKHeap(m));
  {
    TraceSpan span(trace, "quant.estimate");
    std::vector<QuantizedVector> quantized;
    quantized.reserve(queries.size());
    for (const std::span<const double> q : queries) {
      quantized.push_back(QuantizeVector(q));
    }
    qdata.SelectTopEstimates(quantized, !options.is_signed, heaps);
    std::size_t survivors = 0;
    for (const kernels::TopKHeap& heap : heaps) survivors += heap.size();
    span.AddCount("points_estimated", n * queries.size());
    span.AddCount("survivors", survivors);
  }
  const QuantCounters& counters = QuantRegistryCounters();
  std::vector<std::vector<SearchMatch>> matches;
  matches.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::vector<std::size_t> survivors;
    survivors.reserve(heaps[i].size());
    for (const auto& entry : heaps[i].TakeSorted()) {
      survivors.push_back(entry.index);
    }
    matches.push_back(RerankSurvivors(
        data, queries[i], survivors, n, kQuantEstimateDotEquivalent, "quant",
        counters.queries, counters.pruned, counters.rerank, options,
        stats.empty() ? nullptr : &stats[i], trace));
  }
  return matches;
}

std::vector<SearchMatch> QueryFilteredRerank(
    const Matrix& data, const InnerProductFilter& filter,
    std::span<const double> q, const QueryOptions& options,
    QueryStats* stats, Trace* trace) {
  IPS_CHECK_EQ(filter.rows(), data.rows());
  const std::size_t n = data.rows();
  const SketchFilterParams& params = filter.params();
  const std::size_t m =
      SurvivorCount(options.k, n, options.candidate_budget,
                    params.survivor_multiplier, params.survivor_floor);
  std::vector<std::size_t> survivors;
  {
    TraceSpan span(trace, "filter.estimate");
    const std::vector<double> sq = filter.SketchQuery(q);
    std::vector<double> estimates(n);
    filter.EstimateAll(sq, estimates);
    survivors = TopEstimateIndices(estimates, m, !options.is_signed);
    span.AddCount("points_estimated", n);
    span.AddCount("survivors", survivors.size());
  }
  const QuantCounters& counters = FilterRegistryCounters();
  return RerankSurvivors(data, q, survivors, n, filter.CostRatio(),
                         "filter", counters.queries, counters.pruned,
                         counters.rerank, options, stats, trace);
}

std::vector<SearchMatch> QueryFromCandidatesQuantized(
    const Matrix& data, const QuantizedMatrix& qdata,
    std::span<const double> q, const std::vector<std::size_t>& candidates,
    const QueryOptions& options, QueryStats* stats, Trace* trace) {
  const std::size_t m =
      SurvivorCount(options.k, candidates.size(), options.candidate_budget,
                    kQuantSurvivorMultiplier, kQuantSurvivorFloor);
  if (m >= candidates.size()) {
    // Nothing to prune: exact verification is no more expensive.
    return QueryFromCandidates(data, q, candidates, options, stats, trace);
  }
  std::vector<std::size_t> survivors;
  {
    TraceSpan span(trace, "quant.estimate");
    const QuantizedVector qq = QuantizeVector(q);
    std::vector<double> estimates(candidates.size());
    qdata.EstimateGathered(qq, candidates, estimates);
    const std::vector<std::size_t> kept =
        TopEstimateIndices(estimates, m, !options.is_signed);
    survivors.reserve(kept.size());
    for (std::size_t j : kept) survivors.push_back(candidates[j]);
    span.AddCount("points_estimated", candidates.size());
    span.AddCount("survivors", survivors.size());
  }
  const QuantCounters& counters = QuantRegistryCounters();
  return RerankSurvivors(data, q, survivors, candidates.size(),
                         kQuantEstimateDotEquivalent, "quant",
                         counters.queries, counters.pruned, counters.rerank,
                         options, stats, trace);
}

std::vector<SearchMatch> QueryFromCandidatesFiltered(
    const Matrix& data, const InnerProductFilter& filter,
    std::span<const double> q, const std::vector<std::size_t>& candidates,
    const QueryOptions& options, QueryStats* stats, Trace* trace) {
  const SketchFilterParams& params = filter.params();
  const std::size_t m =
      SurvivorCount(options.k, candidates.size(), options.candidate_budget,
                    params.survivor_multiplier, params.survivor_floor);
  if (m >= candidates.size()) {
    return QueryFromCandidates(data, q, candidates, options, stats, trace);
  }
  std::vector<std::size_t> survivors;
  {
    TraceSpan span(trace, "filter.estimate");
    const std::vector<double> sq = filter.SketchQuery(q);
    std::vector<double> estimates(candidates.size());
    filter.EstimateGathered(sq, candidates, estimates);
    const std::vector<std::size_t> kept =
        TopEstimateIndices(estimates, m, !options.is_signed);
    survivors.reserve(kept.size());
    for (std::size_t j : kept) survivors.push_back(candidates[j]);
    span.AddCount("points_estimated", candidates.size());
    span.AddCount("survivors", survivors.size());
  }
  const QuantCounters& counters = FilterRegistryCounters();
  return RerankSurvivors(data, q, survivors, candidates.size(),
                         filter.CostRatio(), "filter", counters.queries,
                         counters.pruned, counters.rerank, options, stats,
                         trace);
}

}  // namespace ips
