// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The cost-model planner behind the serving engine: given dataset
// statistics and a per-request (k, recall target, candidate budget), it
// picks the cheapest (algorithm, precision) variant expected to reach
// the target. The choice is genuinely workload-dependent — the
// Neyshabur–Srebro and Shrivastava ALSH analyses show the winner flips
// with norm distribution and recall target — so the model is calibrated
// from cheap micro-probes at engine warmup instead of hardcoded:
//
//   brute+exact   : recall 1, cost n
//   brute+quant   : measured rerank recall, cost n * quant ratio + survivors
//   tree+exact    : recall 1 (signed only), cost n * pruning fraction
//   lsh+exact     : measured probe recall, cost n * candidate fraction
//   lsh+quant     : compounded recall, quantized verification of candidates
//   sketch (§4.3) : measured argmax recall (unsigned k=1), cost ~ sketch rows
//   sketch+filter : measured filter recall, cost n * filter ratio + survivors
//
// Eligible variants are those whose calibrated recall clears the
// request's target plus a safety margin (exact paths need no margin);
// among the eligible, the planner returns the one with the fewest
// expected dot-equivalents (preferring ones inside the request's
// candidate budget when it is set). An explicit request precision
// restricts the enumeration to variants of that mode.

#ifndef IPS_SERVE_PLANNER_H_
#define IPS_SERVE_PLANNER_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "core/query.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace ips {

/// Dataset statistics the cost model conditions on.
struct DatasetProfile {
  std::size_t n = 0;
  std::size_t dim = 0;
  double min_norm = 0.0;
  double max_norm = 0.0;
  double mean_norm = 0.0;

  /// max/min norm ratio; large values indicate the skewed-norm regime
  /// where asymmetric LSH transforms degrade.
  double NormSpread() const;

  /// Scans `data` once for n, dim, and the norm distribution.
  static DatasetProfile FromData(const Matrix& data);
};

/// Micro-probe measurements taken at engine warmup (on a subsample, so
/// warmup stays cheap; fractions extrapolate to the full dataset).
struct PlannerCalibration {
  /// Fraction of points the ball tree scored per probe query (<= 1).
  double tree_fraction = 1.0;
  /// Mean LSH candidates per probe query as a fraction of n (<= 1).
  double lsh_candidate_fraction = 1.0;
  /// Per-query hashing overhead of the LSH path in dot-equivalents.
  double lsh_probe_overhead = 0.0;
  /// Measured recall@1 of the LSH path on the probe queries.
  double lsh_recall = 0.0;
  /// Measured recall@5 of the LSH path on the probe queries (overlap
  /// with the exact top-5, averaged). This is the eligibility number
  /// for k > 1 requests: a bucket set that usually contains the single
  /// argmax can still miss most of a top-5 on skewed-norm data, so
  /// pricing k > 1 off recall@1 kept LSH eligible for workloads it
  /// demonstrably failed (BENCH_serve targets_met 0.07).
  double lsh_topk_recall = 0.0;
  /// Measured unsigned recall@1 of the sketch path on the probe queries.
  double sketch_recall = 0.0;
  /// Per-query sketch work in dot-equivalents.
  double sketch_cost = 0.0;
  /// Measured recall@5 of the quantized-rerank scan on the probe
  /// queries (intersection with the exact top-5, averaged).
  double quant_recall = 0.0;
  /// Billing rate of one int8 row estimate in exact-dot equivalents
  /// (kQuantEstimateDotEquivalent; kept in the calibration so snapshots
  /// pin the prices a warm start serves with).
  double quant_cost_ratio = 0.25;
  /// Measured recall@5 of the sketch-filtered scan on the probe queries.
  double filter_recall = 0.0;
  /// Cost of one CountSketch row estimate in exact-dot equivalents
  /// (sketch_dim / d of the engine's filter).
  double filter_cost_ratio = 1.0;
  /// Survivor policy of the filtered scan, copied from the engine's
  /// SketchFilterParams so expected costs price the same oversampling
  /// the index actually runs.
  double filter_survivor_multiplier = 16.0;
  std::size_t filter_survivor_floor = 64;
  /// Probe queries the calibration averaged over (0 = uncalibrated:
  /// approximate paths are considered recall-0 and never selected).
  std::size_t probe_queries = 0;
  /// Safety margin: an approximate path is eligible only when its
  /// calibrated recall >= target + margin.
  double recall_margin = 0.05;
};

/// A live (recall, cost) estimate for one (algo, precision) variant,
/// substituted for the warmup-calibrated numbers when a VariantOverride
/// supplies it (the FeedbackPlanner's re-fit hook, serve/feedback.h).
struct VariantEstimate {
  double recall = 0.0;
  double cost = 0.0;
};

/// Hook consulted per variant during Plan: return a live estimate to
/// replace the warmup calibration for that variant, or nullopt to keep
/// it. Must be safe to call concurrently.
using VariantOverride = std::function<std::optional<VariantEstimate>(
    QueryAlgo, QueryPrecision)>;

/// Immutable per-dataset planner; thread-safe (Plan is const and pure).
class Planner {
 public:
  Planner(DatasetProfile profile, PlannerCalibration calibration);

  /// Picks an (algorithm, precision) variant for `request`. Failpoint:
  /// "serve/plan". When `request.precision` is explicit the enumeration
  /// is restricted to that mode and the recall bar becomes advisory —
  /// the cheapest matching variant is returned with the shortfall noted
  /// in the decision's reason.
  [[nodiscard]] StatusOr<PlanDecision> Plan(const QueryOptions& request) const {
    return Plan(request, nullptr);
  }

  /// Plan with per-variant live estimates: where `live` returns one,
  /// its recall/cost replace the warmup calibration for that variant
  /// (eligibility and ranking both use the live numbers — a variant
  /// whose live recall undershoots the target is evicted from the
  /// plan). Exact paths (expected recall >= 1) keep the no-margin rule.
  [[nodiscard]] StatusOr<PlanDecision> Plan(const QueryOptions& request,
                                            const VariantOverride& live) const;

  /// Expected dot-equivalents if (`algo`, `precision`) answered
  /// `request`; used for A/B accounting by benches. kAuto prices the
  /// algorithm's native mode (exact for brute/tree/lsh, the argmax
  /// descent or filtered scan for sketch).
  double ExpectedDotProducts(QueryAlgo algo, QueryPrecision precision,
                             const QueryOptions& request) const;
  double ExpectedDotProducts(QueryAlgo algo,
                             const QueryOptions& request) const {
    return ExpectedDotProducts(algo, QueryPrecision::kAuto, request);
  }

  const DatasetProfile& profile() const { return profile_; }
  const PlannerCalibration& calibration() const { return calibration_; }

  /// Calibrated recall the model expects of (`algo`, `precision`) for
  /// `request`; 0 when the variant cannot answer the request at all
  /// (e.g. signed queries on the sketch argmax path). Public so the
  /// FeedbackPlanner can seed its live estimates from the warmup prior.
  double ExpectedRecall(QueryAlgo algo, QueryPrecision precision,
                        const QueryOptions& request) const;

 private:
  DatasetProfile profile_;
  PlannerCalibration calibration_;
};

}  // namespace ips

#endif  // IPS_SERVE_PLANNER_H_
