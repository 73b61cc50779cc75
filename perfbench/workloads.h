// The benchmark's workloads. Each generates its inputs from the run
// seed, sets up outside the timed region, measures for the configured
// seconds, checks every output, and fills a RunResult: the end-to-end
// metrics when untraced, the per-layer metrics when traced.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "core/query.h"
#include "harness.h"
#include "linalg/matrix.h"

namespace ips {
class Engine;
}  // namespace ips

namespace perfbench {

/// Open-loop Poisson traffic into a BatchScheduler over an Engine.
void RunServeOpen(const RunConfig& config, RunResult* out);

/// The (cs, s) join out of core: storage::BlockedBucketJoin over
/// snapshot files.
void RunJoinOoc(const RunConfig& config, RunResult* out);

/// Measures the linalg and core layers on `data` with the first rows of
/// `queries`: kernels::MatVec, kernels::BlockTopK,
/// QuantizedMatrix::EstimateAll, TopKBruteForce and QueryQuantizedRerank,
/// each against this host's roofline probes.
void ReplayKernels(const ips::Matrix& data, const ips::Matrix& queries,
                   std::size_t k, RunResult* out);

/// serve.plan.overhead_us: Engine::Query planner-routed minus the same
/// plan forced through force_algorithm / precision, per query (median),
/// over the first options.size() rows of `queries`.
void ReplayPlanner(const ips::Engine& engine, const ips::Matrix& queries,
                   const std::vector<ips::QueryOptions>& options, RunResult* out);

/// serve.plan.share.<algo>.<precision> over `answers`.
void SetPlanShares(const std::vector<const ips::QueryResult*>& answers,
                   RunResult* out);

/// Records the tracer's self time per span name in the result record.
void SetSelfTimes(const Tracer& tracer, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
