// Replays of single layers on a workload's own inputs, for the traced
// runs: each public entry point is called directly and timed, so a
// layer's cost can be read apart from the layers above it.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "linalg/quantized.h"
#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {

void ReplayKernels(const ips::Matrix& data, const ips::Matrix& queries,
                   std::size_t k, RunResult* out) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  const std::size_t nq = std::min<std::size_t>(queries.rows(), 32);
  const double fma = ProbeFmaGflops();
  const double triad = ProbeTriadGbps();
  out->Set("host.fma_gflops", fma, "GFLOP/s");
  out->Set("host.triad_gbps", triad, "GB/s");

  // Roofline bound of a kernel with arithmetic intensity `ai` flop/byte.
  const auto bound = [&](double ai) { return std::min(fma, triad * ai); };

  std::vector<double> scores(n);
  std::vector<double> matvec_s, brute_s, estimate_s, rerank_s;
  double pruned = 0.0, survivors = 0.0;
  const ips::QuantizedMatrix qdata = ips::QuantizedMatrix::Quantize(data);
  ips::QueryOptions options;
  options.k = k;
  options.precision = ips::QueryPrecision::kQuantizedRerank;
  for (std::size_t i = 0; i < nq; ++i) {
    const auto q = queries.Row(i);
    matvec_s.push_back(TimeOnce([&] { ips::kernels::MatVec(data, q, scores); }));
    brute_s.push_back(TimeOnce([&] { (void)ips::TopKBruteForce(data, q, k, true); }));
    const ips::QuantizedVector qv = ips::QuantizeVector(q);
    estimate_s.push_back(TimeOnce([&] { qdata.EstimateAll(qv, scores); }));
    ips::QueryStats stats;
    rerank_s.push_back(TimeOnce(
        [&] { (void)ips::QueryQuantizedRerank(data, qdata, q, options, &stats); }));
    pruned += static_cast<double>(stats.candidates_pruned) / static_cast<double>(n);
    survivors += static_cast<double>(stats.rerank_exact_dots);
  }
  const double matvec = Median(matvec_s);
  const double matvec_gflops = 2.0 * n * d / matvec / 1e9;
  out->Set("linalg.matvec.gflops", matvec_gflops, "GFLOP/s");
  out->Set("linalg.matvec.roofline_frac",
           matvec_gflops / bound(2.0 * n * d / (8.0 * n * d + 16.0 * d + 8.0 * n)),
           "fraction");

  const std::size_t batch = std::min<std::size_t>(queries.rows(), 64);
  ips::Matrix block(batch, d);
  for (std::size_t i = 0; i < batch; ++i) {
    std::copy(queries.Row(i).begin(), queries.Row(i).end(), block.Row(i).begin());
  }
  std::vector<double> block_s;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<ips::kernels::TopKHeap> heaps(batch, ips::kernels::TopKHeap(k));
    block_s.push_back(TimeOnce([&] { ips::kernels::BlockTopK(data, block, false, heaps); }));
  }
  const double block_flops = 2.0 * n * d * batch;
  const double block_gflops = block_flops / Median(block_s) / 1e9;
  out->Set("linalg.blocktopk.gflops", block_gflops, "GFLOP/s");
  out->Set("linalg.blocktopk.roofline_frac",
           block_gflops / bound(block_flops / (8.0 * n * d + 8.0 * batch * d)),
           "fraction");

  // EstimateAll streams the codes (n*d bytes), one scale per 32-row
  // block, and writes n doubles.
  const double estimate_bytes = static_cast<double>(n) * d + 8.0 * n +
                                8.0 * ((n + 31) / 32);
  const double estimate_gbps = estimate_bytes / Median(estimate_s) / 1e9;
  out->Set("linalg.quant_estimate.gbps", estimate_gbps, "GB/s");
  out->Set("linalg.quant_estimate.roofline_frac", estimate_gbps / triad, "fraction");

  const double brute = Median(brute_s);
  out->Set("core.brute.exact_us", brute * 1e6, "us");
  out->Set("core.topk.select_us", (brute - matvec) * 1e6, "us");
  out->Set("core.quant.rerank_us", Median(rerank_s) * 1e6, "us");
  out->Set("core.quant.pruned_frac", pruned / nq, "fraction");
  out->Set("core.quant.survivors", survivors / nq, "count");
}

void ReplayPlanner(const ips::Engine& engine, const ips::Matrix& queries,
                   const std::vector<ips::QueryOptions>& options, RunResult* out) {
  std::vector<double> overhead_us;
  for (std::size_t i = 0; i < queries.rows() && i < options.size(); ++i) {
    const auto q = queries.Row(i);
    const Clock::time_point t0 = Clock::now();
    auto routed = engine.Query({q, options[i]});
    const Clock::time_point t1 = Clock::now();
    if (!routed.ok()) {
      out->Fail("replay routed query: " + routed.status().ToString());
      return;
    }
    ips::QueryOptions forced = options[i];
    forced.force_algorithm = routed->plan.algorithm;
    forced.precision = routed->plan.precision;
    auto pinned = engine.Query({q, forced});
    const Clock::time_point t2 = Clock::now();
    if (!pinned.ok()) {
      out->Fail("replay forced query: " + pinned.status().ToString());
      return;
    }
    overhead_us.push_back((Seconds(t0, t1) - Seconds(t1, t2)) * 1e6);
  }
  out->Set("serve.plan.overhead_us", Median(overhead_us), "us");
}

void SetPlanShares(const std::vector<const ips::QueryResult*>& answers,
                   RunResult* out) {
  std::map<std::string, double> shares;
  for (const ips::QueryResult* r : answers) {
    shares[std::string(ips::QueryAlgoName(r->plan.algorithm)) + "." +
           std::string(ips::QueryPrecisionName(r->plan.precision))] += 1.0;
  }
  const double n = static_cast<double>(answers.size());
  for (const char* key : {"brute.exact", "brute.quant", "tree.exact", "lsh.exact",
                          "lsh.quant", "sketch.auto", "sketch.filter"}) {
    out->Set(std::string("serve.plan.share.") + key, n > 0 ? shares[key] / n : 0.0,
             "fraction");
  }
}

void SetSelfTimes(const Tracer& tracer, RunResult* out) {
  std::string self = "{";
  for (const auto& [name, seconds] : tracer.SelfSecondsByName()) {
    self += (self.size() > 1 ? ", " : "") + JsonString(name) + ": " + JsonNumber(seconds);
  }
  out->Note("self_seconds_by_span", self + "}");
}

}  // namespace perfbench
