// Quantized two-stage scoring benchmark (DESIGN.md §13): exact brute
// force against the int8 quantized-rerank path and the CountSketch
// filtered-rerank path on a small-norm-spread workload (unit-ball
// Gaussian) and a large-norm-spread workload (Zipf latent factors, the
// recommender shape where quantization shines). For each approximate
// mode the survivor budget is swept, producing a throughput/recall
// curve; results land in BENCH_quant.json.
//
// A second section times the batched int8 pass: BruteForceIndex::
// BatchQuery with quantized re-rank over a group of 16 queries against
// the same 16 queries sent one Query at a time, on a serve-sized
// dataset (100k x 64), over interleaved repetitions. The speedup is the
// ratio of the two arms' minimum times (each arm's least-disturbed
// run); the median of the paired per-repetition ratios is recorded
// beside it.
//
// Gates, all evaluated before the process exits and recorded in the
// JSON with the host fingerprint:
//   - on the large-norm-spread workload the quantized path reaches
//     >= 2x the exact brute-force throughput at >= 0.95 mean top-k
//     recall for at least one survivor budget;
//   - the batched answers equal the per-query answers bitwise;
//   - under the AVX2 table, the 16-query BatchQuery is >= 2x faster
//     than 16 Query calls. This gate is held: it is evaluated and
//     recorded, but does not fail the run, until the int8 tile has a
//     margin over 2x (see ROADMAP.md item 3).
// Exits nonzero when an enforced gate fails.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/mips_index.h"
#include "core/query.h"
#include "core/top_k.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/quantized.h"
#include "rng/random.h"
#include "sketch/filter.h"
#include "util/table.h"
#include "util/timer.h"

namespace ips {
namespace {

constexpr std::size_t kN = 8000;
constexpr std::size_t kDim = 64;
constexpr std::size_t kQueries = 200;
constexpr std::size_t kK = 10;
constexpr int kReps = 3;  // timing repetitions; best-of to damp jitter

// One measured point of a mode's throughput/recall curve.
struct CurvePoint {
  std::size_t budget = 0;  // survivor budget (0 = the mode's default policy)
  double qps = 0.0;
  double recall = 0.0;
  double speedup = 0.0;       // vs the exact scan on the same workload
  double mean_survivors = 0.0;
};

struct ModeResult {
  std::string name;
  std::vector<CurvePoint> points;
};

struct WorkloadResult {
  std::string name;
  double exact_qps = 0.0;
  std::vector<ModeResult> modes;
  bool gated = false;      // whether the 2x/0.95 gate applies here
  bool gate_pass = false;
};

// Batched-pass comparison: a serve-sized code matrix (6.4 MB of int8
// codes) so that one Query streams it from beyond L2, as in serving.
constexpr std::size_t kBatchN = 100000;
constexpr std::size_t kBatchQueries = 16;
constexpr int kBatchReps = 31;

struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct BatchResult {
  Spread batch_ms;   // one BatchQuery over the group
  Spread single_ms;  // the group as kBatchQueries Query calls
  // single_ms.min / batch_ms.min: load from other processes on the host
  // only ever adds time, so each arm's minimum is its least-disturbed
  // run.
  double speedup = 0.0;
  // Median over repetitions of (Query arm / BatchQuery arm); the arms
  // of a repetition run back to back.
  double paired_median = 0.0;
  bool answers_match = false;
};

struct Gate {
  std::string name;
  bool pass = false;
  bool enforced = true;  // a held gate is recorded but fails nothing
};

// Where a run happened, recorded with every result.
struct HostFingerprint {
  std::string cpu_model = "unknown";
  std::string isa;
  unsigned threads = 0;
  std::string build_type = IPS_BENCH_BUILD_TYPE;
  std::string compiler;
  std::string git_sha = "unknown";  // with "-dirty" for uncommitted edits
};

// `git describe --always --dirty` of the source tree, read when the
// bench runs, so a record names the commit it measured even when the
// build was configured at another one.
std::string DescribeSourceTree() {
  const std::string command = std::string("git -C \"") +
                              IPS_BENCH_SOURCE_DIR +
                              "\" describe --always --dirty --abbrev=40"
                              " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  std::string text;
  char buffer[128];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) text += buffer;
  const bool ok = pclose(pipe) == 0;
  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.pop_back();
  }
  return ok && !text.empty() ? text : "unknown";
}

HostFingerprint ProbeHost() {
  HostFingerprint host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  host.isa = kernels::ActiveIsaName();
  host.threads = std::max(1u, std::thread::hardware_concurrency());
  host.git_sha = DescribeSourceTree();
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#endif
  return host;
}

Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

bool SameMatches(const std::vector<SearchMatch>& a,
                 const std::vector<SearchMatch>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j].index != b[j].index || a[j].value != b[j].value) return false;
  }
  return true;
}

BatchResult RunBatchComparison(Rng* rng) {
  std::cout << "=== batched int8 pass: BatchQuery(" << kBatchQueries
            << ") vs " << kBatchQueries << " x Query (n=" << kBatchN
            << ", dim=" << kDim << ", k=" << kK << ", isa "
            << kernels::ActiveIsaName() << ") ===\n";
  const Matrix data = MakeLatentFactorVectors(kBatchN, kDim, 1.0, rng);
  Matrix queries(kBatchQueries, kDim);
  for (std::size_t qi = 0; qi < kBatchQueries; ++qi) {
    for (double& v : queries.Row(qi)) v = rng->NextGaussian();
  }
  const BruteForceIndex index(data);
  QueryOptions options;
  options.k = kK;
  options.precision = QueryPrecision::kQuantizedRerank;

  BatchResult result;
  result.answers_match = true;
  std::vector<double> batch_ms, single_ms, ratios;
  // Repetition 0 warms caches and its times are discarded; the two arms
  // alternate so drift on the host hits both alike.
  for (int rep = 0; rep <= kBatchReps; ++rep) {
    WallTimer batch_timer;
    auto batch = index.BatchQuery(queries, options);
    const double batch_seconds = batch_timer.Seconds();
    WallTimer single_timer;
    std::vector<std::vector<SearchMatch>> singles;
    for (std::size_t qi = 0; qi < kBatchQueries; ++qi) {
      auto single = index.Query(queries.Row(qi), options);
      singles.push_back(single.ok() ? std::move(single).value()
                                    : std::vector<SearchMatch>());
    }
    const double single_seconds = single_timer.Seconds();
    if (!batch.ok() || batch->size() != kBatchQueries) {
      result.answers_match = false;
    } else {
      for (std::size_t qi = 0; qi < kBatchQueries; ++qi) {
        if (!SameMatches((*batch)[qi].matches, singles[qi])) {
          result.answers_match = false;
        }
      }
    }
    if (rep == 0) continue;
    batch_ms.push_back(batch_seconds * 1e3);
    single_ms.push_back(single_seconds * 1e3);
    ratios.push_back(single_seconds / batch_seconds);
  }
  result.batch_ms = SpreadOf(batch_ms);
  result.single_ms = SpreadOf(single_ms);
  result.speedup = result.single_ms.min / result.batch_ms.min;
  result.paired_median = SpreadOf(ratios).median;
  std::cout << "BatchQuery: " << FormatFixed(result.batch_ms.median, 3)
            << " ms median [" << FormatFixed(result.batch_ms.min, 3) << ", "
            << FormatFixed(result.batch_ms.max, 3) << "]\n"
            << kBatchQueries << " x Query: "
            << FormatFixed(result.single_ms.median, 3) << " ms median ["
            << FormatFixed(result.single_ms.min, 3) << ", "
            << FormatFixed(result.single_ms.max, 3) << "]\n"
            << "speedup " << FormatFixed(result.speedup, 2)
            << "x of the minima (paired median "
            << FormatFixed(result.paired_median, 2) << "x), answers " << (result.answers_match ? "match" : "DIFFER")
            << "\n\n";
  return result;
}

// Exact ground-truth top-k for every query (also the recall denominator).
std::vector<std::vector<SearchMatch>> GroundTruth(const Matrix& data,
                                                  const Matrix& queries) {
  std::vector<std::vector<SearchMatch>> truth;
  truth.reserve(queries.rows());
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    truth.push_back(TopKBruteForce(data, queries.Row(qi), kK, true));
  }
  return truth;
}

double MeanRecall(const std::vector<std::vector<SearchMatch>>& truth,
                  const std::vector<std::vector<SearchMatch>>& got) {
  std::size_t hits = 0;
  std::size_t total = 0;
  for (std::size_t qi = 0; qi < truth.size(); ++qi) {
    total += truth[qi].size();
    for (const auto& t : truth[qi]) {
      for (const auto& match : got[qi]) {
        if (match.index == t.index) {
          ++hits;
          break;
        }
      }
    }
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

// Times `run` over every query, best-of-kReps, returning qps and the
// answers of the last rep.
template <typename Fn>
double TimeLoop(const Matrix& queries, Fn run,
                std::vector<std::vector<SearchMatch>>* answers) {
  double best_seconds = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    answers->clear();
    answers->reserve(queries.rows());
    WallTimer timer;
    for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
      answers->push_back(run(queries.Row(qi)));
    }
    best_seconds = std::min(best_seconds, timer.Seconds());
  }
  return best_seconds > 0.0
             ? static_cast<double>(queries.rows()) / best_seconds
             : 0.0;
}

WorkloadResult RunWorkload(const std::string& name, const Matrix& data,
                           bool gated, Rng* rng) {
  std::cout << "=== workload: " << name << " (n=" << kN << ", dim=" << kDim
            << ", " << kQueries << " queries, k=" << kK << ", isa "
            << kernels::ActiveIsaName() << ") ===\n";
  WorkloadResult result;
  result.name = name;
  result.gated = gated;

  Matrix queries(kQueries, kDim);
  for (std::size_t qi = 0; qi < kQueries; ++qi) {
    for (std::size_t j = 0; j < kDim; ++j) {
      queries.At(qi, j) = rng->NextGaussian();
    }
  }
  const auto truth = GroundTruth(data, queries);

  const QuantizedMatrix qdata = QuantizedMatrix::Quantize(data);
  SketchFilterParams filter_params;
  filter_params.copies = 4;  // the variance that makes survivors recover
  Rng build_rng(17);
  const InnerProductFilter filter(data, filter_params, &build_rng);

  QueryOptions exact_options;
  exact_options.k = kK;
  std::vector<std::vector<SearchMatch>> answers;
  result.exact_qps = TimeLoop(
      queries,
      [&](std::span<const double> q) {
        return QueryBruteForce(data, q, exact_options);
      },
      &answers);
  std::cout << "exact: " << FormatFixed(result.exact_qps, 1) << " qps\n";

  // Survivor-budget sweep: 0 = the mode's own default policy
  // (multiplier/floor), then explicit caps through candidate_budget.
  const std::size_t budgets[] = {0, 20, 40, 80, 160, 320};

  TablePrinter table({"mode", "budget", "qps", "recall", "speedup",
                      "survivors"});
  for (const bool quant : {true, false}) {
    ModeResult mode;
    mode.name = quant ? "quantized_rerank" : "sketch_filter";
    for (const std::size_t budget : budgets) {
      QueryOptions options;
      options.k = kK;
      options.candidate_budget = budget;
      options.precision = quant ? QueryPrecision::kQuantizedRerank
                                : QueryPrecision::kSketchFilter;
      CurvePoint point;
      point.budget = budget;
      std::size_t survivor_sum = 0;
      point.qps = TimeLoop(
          queries,
          [&](std::span<const double> q) {
            QueryStats stats;
            auto matches =
                quant ? QueryQuantizedRerank(data, qdata, q, options, &stats)
                      : QueryFilteredRerank(data, filter, q, options, &stats);
            survivor_sum += stats.rerank_exact_dots;
            return matches;
          },
          &answers);
      point.recall = MeanRecall(truth, answers);
      point.speedup =
          result.exact_qps > 0.0 ? point.qps / result.exact_qps : 0.0;
      point.mean_survivors = static_cast<double>(survivor_sum) /
                             static_cast<double>(kReps * kQueries);
      table.AddRow({mode.name,
                    budget == 0 ? std::string("default")
                                : std::to_string(budget),
                    FormatFixed(point.qps, 1), FormatFixed(point.recall, 3),
                    FormatFixed(point.speedup, 2),
                    FormatFixed(point.mean_survivors, 1)});
      mode.points.push_back(point);
    }
    result.modes.push_back(std::move(mode));
  }
  table.PrintMarkdown(std::cout);

  if (gated) {
    for (const auto& point : result.modes.front().points) {
      if (point.speedup >= 2.0 && point.recall >= 0.95) {
        result.gate_pass = true;
        break;
      }
    }
    std::cout << "gate (quantized >= 2x at >= 0.95 recall): "
              << (result.gate_pass ? "pass" : "FAIL") << "\n";
  }
  std::cout << "\n";
  return result;
}

std::string JsonSpread(const Spread& spread) {
  return "{\"median\": " + std::to_string(spread.median) +
         ", \"min\": " + std::to_string(spread.min) +
         ", \"max\": " + std::to_string(spread.max) + "}";
}

void WriteJson(const HostFingerprint& host,
               const std::vector<WorkloadResult>& workloads,
               const BatchResult& batch, const std::vector<Gate>& gates,
               const std::string& path) {
  bool all_pass = true;
  for (const Gate& gate : gates) {
    all_pass = all_pass && (gate.pass || !gate.enforced);
  }
  std::ofstream out(path);
  out << "{\n  \"bench\": \"quant\",\n  \"host\": {\"cpu_model\": \""
      << host.cpu_model << "\", \"isa\": \"" << host.isa
      << "\", \"threads\": " << host.threads << ", \"build_type\": \""
      << host.build_type << "\", \"compiler\": \"" << host.compiler
      << "\", \"git_sha\": \"" << host.git_sha << "\"},\n  \"n\": " << kN
      << ",\n  \"dim\": " << kDim << ",\n  \"queries\": " << kQueries
      << ",\n  \"k\": " << kK << ",\n  \"isa\": \""
      << kernels::ActiveIsaName() << "\",\n  \"workloads\": [\n";
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const WorkloadResult& wl = workloads[w];
    out << "    {\n      \"name\": \"" << wl.name << "\",\n"
        << "      \"exact_qps\": " << wl.exact_qps << ",\n"
        << "      \"gated\": " << (wl.gated ? "true" : "false") << ",\n"
        << "      \"gate_pass\": " << (wl.gate_pass ? "true" : "false")
        << ",\n      \"modes\": [\n";
    for (std::size_t m = 0; m < wl.modes.size(); ++m) {
      const ModeResult& mode = wl.modes[m];
      out << "        {\"name\": \"" << mode.name << "\", \"points\": [\n";
      for (std::size_t p = 0; p < mode.points.size(); ++p) {
        const CurvePoint& point = mode.points[p];
        out << "          {\"budget\": " << point.budget
            << ", \"qps\": " << point.qps << ", \"recall\": " << point.recall
            << ", \"speedup\": " << point.speedup
            << ", \"mean_survivors\": " << point.mean_survivors << "}"
            << (p + 1 < mode.points.size() ? "," : "") << "\n";
      }
      out << "        ]}" << (m + 1 < wl.modes.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (w + 1 < workloads.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"batch\": {\"n\": " << kBatchN
      << ", \"queries\": " << kBatchQueries << ", \"reps\": " << kBatchReps
      << ", \"batch_query_ms\": " << JsonSpread(batch.batch_ms)
      << ", \"per_query_ms\": " << JsonSpread(batch.single_ms)
      << ", \"speedup\": " << batch.speedup
      << ", \"paired_median_speedup\": " << batch.paired_median
      << ", \"answers_match\": "
      << (batch.answers_match ? "true" : "false") << "},\n  \"gates\": [\n";
  for (std::size_t g = 0; g < gates.size(); ++g) {
    out << "    {\"name\": \"" << gates[g].name << "\", \"pass\": "
        << (gates[g].pass ? "true" : "false") << ", \"enforced\": "
        << (gates[g].enforced ? "true" : "false") << "}"
        << (g + 1 < gates.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"pass\": " << (all_pass ? "true" : "false") << "\n}\n";
}

int Run() {
  const HostFingerprint host = ProbeHost();
  Rng rng(2026);
  std::vector<WorkloadResult> workloads;
  workloads.push_back(RunWorkload(
      "small_norm_spread",
      MakeUnitBallGaussian(kN, kDim, /*min_norm=*/0.9, &rng),
      /*gated=*/false, &rng));
  workloads.push_back(RunWorkload(
      "large_norm_spread",
      MakeLatentFactorVectors(kN, kDim, /*skew=*/1.0, &rng),
      /*gated=*/true, &rng));
  const BatchResult batch = RunBatchComparison(&rng);

  std::vector<Gate> gates;
  for (const auto& wl : workloads) {
    if (wl.gated) {
      gates.push_back({"quantized_2x_exact_at_0.95_recall_" + wl.name,
                       wl.gate_pass});
    }
  }
  gates.push_back({"batch_answers_bitwise_per_query", batch.answers_match});
  // The 2x claim is the AVX2 tile's: the scalar table scores every
  // (row, query) pair on its own, so a batch saves it memory traffic
  // only and the ratio is recorded but not gated there. Held (see the
  // header) until the tile clears 2x with a margin.
  if (std::string(kernels::ActiveIsaName()) == "avx2") {
    gates.push_back({"batch_query_2x_per_query", batch.speedup >= 2.0,
                     /*enforced=*/false});
  }

  WriteJson(host, workloads, batch, gates, "BENCH_quant.json");
  std::cout << "wrote BENCH_quant.json\n";

  bool all_pass = true;
  for (const Gate& gate : gates) {
    std::cout << "gate " << gate.name << ": "
              << (gate.pass ? "pass" : "FAIL")
              << (gate.enforced ? "" : " (held, not enforced)") << "\n";
    all_pass = all_pass && (gate.pass || !gate.enforced);
  }
  if (!all_pass) {
    std::cerr << "FAIL: at least one enforced bench_quant gate failed\n";
    return 1;
  }
  std::cout << "OK: every enforced bench_quant gate passes\n";
  return 0;
}

}  // namespace
}  // namespace ips

int main() { return ips::Run(); }
