// join_ooc: the paper's (cs, s) inner-product join out of core. The
// data and query sets live in matrix snapshot files and every iteration
// runs storage::BlockedBucketJoin under the Section 4.1 dual-ball ALSH
// (TransformedLshFamily over SimHash) with a memory budget smaller than
// the data, so the join streams several data blocks.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/similarity_join.h"
#include "linalg/kernels.h"
#include "lsh/bucket_join.h"
#include "lsh/simhash.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "storage/blocked_join.h"
#include "storage/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kData = 100000;
constexpr std::size_t kQueries = 10000;
constexpr std::size_t kDim = 32;
constexpr double kTarget = 0.9;
constexpr double kRadius = 1.0;
constexpr double kS = 0.8;
constexpr double kCs = 0.6;
constexpr std::size_t kBudgetBytes = std::size_t{64} << 20;
constexpr int kSetupReps = 15;
constexpr int kMinIterations = 2;

using JoinAnswer = std::vector<std::optional<std::pair<std::size_t, double>>>;

}  // namespace

void RunJoinOoc(const RunConfig& config, RunResult* out) {
  ips::Rng rng(config.seed);
  const ips::PlantedInstance instance =
      ips::MakePlantedInstance(kData, kQueries, kDim, kTarget, kRadius, &rng);
  const ips::JoinSpec spec{.s = kS, .c = kCs / kS, .is_signed = true};
  const std::string data_path = config.work_dir + "/join_data.ips";
  const std::string queries_path = config.work_dir + "/join_queries.ips";

  // Set-up: write both matrices through the storage snapshot writer.
  std::vector<double> setups;
  for (int rep = 0; rep < (config.trace ? 1 : kSetupReps); ++rep) {
    ips::Status saved;
    setups.push_back(TimeOnce([&] {
      saved = ips::storage::SaveMatrixSnapshot(instance.data, data_path);
      if (saved.ok()) saved = ips::storage::SaveMatrixSnapshot(instance.queries, queries_path);
    }));
    if (!saved.ok()) {
      out->Fail("snapshot write: " + saved.ToString());
      return;
    }
  }

  // Exact reference: the true maximizer of every query (full scan).
  const auto best = ExactTopK({&instance.data}, {0}, instance.queries, 1, false,
                              config.nproc);
  ips::JoinResult truth;
  truth.per_query.resize(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    if (!best[i].empty() && best[i][0].value >= kS) {
      truth.per_query[i] = ips::JoinMatch{i, best[i][0].index, best[i][0].value};
    }
  }

  const ips::DualBallTransform transform(kDim, kRadius);
  const ips::SimHashFamily base(transform.output_dim());
  const ips::TransformedLshFamily family(&transform, &base);
  ips::storage::BlockedJoinOptions options;
  options.memory_budget_bytes = kBudgetBytes;
  options.params = {.k = 16, .l = 32};
  options.s_threshold = kS;
  options.cs_threshold = kCs;
  options.is_signed = true;
  options.verify_checksums = true;

  // Measured loop. In the traced run the second call carries a span and
  // the first is the untraced baseline of the tracing overhead.
  Tracer tracer(config.trace);
  std::vector<double> call_ms;
  std::optional<ips::BucketJoinResult> first;
  ips::storage::BlockedJoinStats stats;
  const Clock::time_point loop_start = Clock::now();
  for (int it = 0; it < kMinIterations ||
                   Seconds(loop_start, Clock::now()) < config.seconds;
       ++it) {
    ++out->attempted;
    const Clock::time_point t0 = Clock::now();
    auto result = ips::storage::BlockedBucketJoin(family, data_path, queries_path,
                                                  options, &stats);
    const Clock::time_point t1 = Clock::now();
    if (it % 2 == 1) tracer.Add("storage.blocked_join", tracer.At(t0), tracer.At(t1), -1, it);
    if (!result.ok()) {
      ++out->failed;
      out->Fail("BlockedBucketJoin: " + result.status().ToString());
      continue;
    }
    call_ms.push_back(Seconds(t0, t1) * 1e3);
    if (!first.has_value()) {
      first = *std::move(result);
    } else if (result->per_query != first->per_query) {
      out->Fail("BlockedBucketJoin answers differ between identical calls");
    }
  }
  if (!first.has_value()) return;

  // Output checks: every reported pair's score is recomputed and must
  // reach cs; recall is the Definition-1 contract recall.
  const JoinAnswer& answer = first->per_query;
  ips::JoinResult reported;
  reported.per_query.resize(kQueries);
  for (std::size_t i = 0; i < answer.size() && i < kQueries; ++i) {
    if (!answer[i].has_value()) continue;
    const auto [index, score] = *answer[i];
    if (index >= kData) {
      out->Fail("join pair with data index out of range");
      continue;
    }
    const double dot = ips::kernels::Dot(instance.data.Row(index), instance.queries.Row(i));
    if (std::abs(dot - score) > 1e-9 * std::max(1.0, std::abs(dot)) || dot < kCs) {
      out->Fail("join pair (" + std::to_string(i) + ", " + std::to_string(index) +
                ") reported " + JsonNumber(score) + ", recomputed " + JsonNumber(dot));
      continue;
    }
    reported.per_query[i] = ips::JoinMatch{i, index, dot};
  }
  if (answer.size() != kQueries) out->Fail("join answered the wrong number of queries");
  double recall = 0.0;
  const std::size_t violations = ips::VerifyJoinContract(reported, truth, spec, &recall);
  const ips::MetricSet& m = first->metrics;
  out->Note("join", JsonObject({
      {"data_rows", std::to_string(kData)},
      {"query_rows", std::to_string(kQueries)},
      {"dim", std::to_string(kDim)},
      {"block_rows", std::to_string(stats.block_rows)},
      {"data_blocks", std::to_string(stats.data_blocks)},
      {"query_blocks", std::to_string(stats.query_blocks)},
      {"matched", std::to_string(reported.NumMatched())},
      {"promised", std::to_string(truth.NumMatched())},
      {"contract_violations", std::to_string(violations)},
      {"candidate_pairs", std::to_string(m.Get("lsh.join.candidate_pairs"))},
      {"verified_pairs", std::to_string(m.Get("lsh.join.verified_pairs"))}}));
  if (stats.data_blocks < 2) out->Fail("join did not stream more than one data block");

  const double median_s = Median(call_ms) / 1e3;
  if (!config.trace) {
    const TailSummary lat = SummarizeTail(call_ms);
    out->Set("setup_s", Median(setups), "s");
    out->Set("latency_p50_ms", lat.p50, "ms");
    out->Set("latency_p99_ms", lat.tail, "ms");
    out->Note("latency_tail", JsonObject({{"percentile", JsonNumber(lat.tail_pct)},
                                          {"samples", std::to_string(lat.samples)}}));
    // Query rows joined per second of BlockedBucketJoin.
    out->Set("goodput_qps", kQueries / median_s, "1/s");
    out->Note("join_rows_per_s", JsonNumber(kQueries / median_s));
    out->Set("recall", recall, "fraction");
    out->Set("ok_frac", double(out->attempted - out->failed) / out->attempted, "fraction");
    out->Set("peak_rss_mb", PeakRssMb(), "MB");
    std::filesystem::remove(data_path);
    std::filesystem::remove(queries_path);
    return;
  }

  // ---- traced run: per-layer metrics ----
  out->Set("trace.overhead_frac",
           call_ms.size() >= 2 ? (call_ms[1] - call_ms[0]) / call_ms[0] : 0.0, "fraction");

  // The same join in memory: same matrices, parameters and hash seed.
  ips::Rng join_rng(options.seed);
  ips::BucketJoinResult inmem;
  const Clock::time_point j0 = Clock::now();
  inmem = ips::LshBucketJoin(family, instance.data, instance.data, instance.queries,
                             instance.queries, kS, kCs, true, options.params, &join_rng);
  const Clock::time_point j1 = Clock::now();
  const double inmem_s = Seconds(j0, j1);
  if (inmem.per_query != first->per_query) {
    out->Fail("blocked join differs from the in-memory join on the same inputs");
  }

  // Storage replays: checksum verification and block reads.
  std::vector<double> open_verify, open_plain;
  for (int rep = 0; rep < 3; ++rep) {
    for (const bool verify : {true, false}) {
      double seconds = 0.0;
      for (const std::string& path : {data_path, queries_path}) {
        ips::Status opened;
        seconds += TimeOnce([&] {
          auto reader = ips::storage::MatrixBlockReader::Open(path, verify);
          opened = reader.status();
        });
        if (!opened.ok()) out->Fail("MatrixBlockReader::Open: " + opened.ToString());
      }
      (verify ? open_verify : open_plain).push_back(seconds);
    }
  }
  const double verify_s = Median(open_verify) - Median(open_plain);
  double read_s = 0.0;
  std::size_t read_bytes = 0;
  for (const std::string& path : {data_path, queries_path}) {
    auto reader = ips::storage::MatrixBlockReader::Open(path, false);
    if (!reader.ok()) {
      out->Fail("MatrixBlockReader::Open: " + reader.status().ToString());
      continue;
    }
    ips::Matrix block;
    for (std::size_t row = 0; row < reader->rows(); row += stats.block_rows) {
      const std::size_t count = std::min(stats.block_rows, reader->rows() - row);
      ips::Status read;
      const Clock::time_point r0 = Clock::now();
      read = reader->ReadRows(row, count, &block);
      const Clock::time_point r1 = Clock::now();
      read_s += Seconds(r0, r1);
      read_bytes += count * kDim * sizeof(double);
      if (!read.ok()) out->Fail("ReadRows: " + read.ToString());
    }
  }
  const double blocked_s = median_s;
  const std::int64_t root = tracer.Add("replay.join", tracer.At(j0),
                                       tracer.At(j0) + blocked_s, -1, 100);
  tracer.Add("lsh.join", tracer.At(j0), tracer.At(j1), root, 100);
  tracer.Add("storage.verify", tracer.At(j1), tracer.At(j1) + std::max(0.0, verify_s),
             root, 100);
  tracer.Add("storage.read", tracer.At(j1) + std::max(0.0, verify_s),
             tracer.At(j1) + std::max(0.0, verify_s) + read_s, root, 100);
  out->Set("trace.unaccounted_frac", tracer.UncoveredFraction("replay.join"), "fraction");

  // Join work counts as the in-memory LshBucketJoin reports them (the
  // blocked join does not carry the prefilter count).
  const ips::MetricSet& im = inmem.metrics;
  const double verified = double(im.Get("lsh.join.verified_pairs"));
  out->Set("lsh.join.inmem_s", inmem_s, "s");
  out->Set("lsh.join.candidate_pairs", double(im.Get("lsh.join.candidate_pairs")),
           "count");
  out->Set("lsh.join.verified_pairs", verified, "count");
  out->Set("lsh.join.duplicate_pairs", double(im.Get("lsh.join.duplicate_pairs")),
           "count");
  out->Set("lsh.join.prefiltered_pairs", double(im.Get("lsh.join.pairs_prefiltered")),
           "count");
  out->Set("lsh.join.useful_frac",
           verified > 0 ? double(reported.NumMatched()) / verified : 0.0, "fraction");
  out->Set("core.dots_per_query", verified / kQueries, "count");
  out->Set("input.repeat_frac", 0.0, "fraction");

  out->Set("storage.save_s", Median(setups), "s");
  out->Set("storage.verify_s", verify_s, "s");
  out->Set("storage.bytes_read", double(stats.bytes_read), "bytes");
  out->Set("storage.stream_s", blocked_s - inmem_s, "s");
  out->Set("storage.read_mbps", read_s > 0 ? read_bytes / read_s / 1e6 : 0.0, "MB/s");
  out->Set("storage.block_pairs", double(stats.block_pairs), "count");
  out->Idle("storage.load_s");
  out->Idle("storage.first_answer_ms");

  ReplayKernels(instance.data, instance.queries, 1, out);
  SetSelfTimes(tracer, out);
  tracer.WriteJson(config.work_dir + "/spans.json");
  out->Idle("serve.");
  out->Idle("tree.");
  out->Idle("sketch.");
  out->Idle("lsh.build_s");
  out->Idle("lsh.query_us");
  out->Idle("lsh.candidates_per_query");
  std::filesystem::remove(data_path);
  std::filesystem::remove(queries_path);
}

}  // namespace perfbench
