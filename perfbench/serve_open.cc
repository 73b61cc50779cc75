// serve_open: an Engine (all four answer paths built) behind a
// BatchScheduler, driven by open-loop Poisson arrivals from one
// generator thread. Two phases: `nominal` (about half the saturated
// completion rate) and `overload` (about twice it). Every request is
// timed from its due time, so a stalled generator or a full queue shows
// up as latency instead of as fewer requests (no coordinated omission).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/query.h"
#include "rng/random.h"
#include "obs/metrics.h"
#include "serve/batch_scheduler.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "serve/sharded_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kRows = 100000;
constexpr std::size_t kDim = 64;
constexpr double kNormSkew = 1.0;
constexpr std::uint64_t kCorpusSeed = 2016;
constexpr std::size_t kPool = 4096;
constexpr double kPoolZipf = 1.1;
constexpr double kDeadline = 0.050;
constexpr double kAppShare = 0.10;
constexpr int kSetupReps = 3;
constexpr std::size_t kLatencyChunk = 1000;
constexpr std::size_t kReplay = 32;
constexpr std::size_t kShards = 4;
constexpr int kLoadReps = 3;

struct Req {
  std::size_t pool_index = 0;
  ips::QueryOptions options;
  bool app = false;
};

struct Outcome {
  Clock::time_point due;
  Clock::time_point submit_begin;
  Clock::time_point submit_end;
  Clock::time_point observed;
  std::optional<ips::StatusOr<ips::QueryResult>> result;

  bool ok() const { return result.has_value() && result->ok(); }
  double latency() const { return Seconds(due, observed); }
};

struct Phase {
  std::string name;
  double rate = 0.0;
  double duration = 0.0;
  std::vector<Req> reqs;
  std::vector<Outcome> outcomes;
  ips::SchedulerCounters before, after;
  ips::TenantCounters app_before, app_after;
  ips::FeedbackCounters feedback_before, feedback_after;
  std::size_t ok_in_deadline = 0;  // answered correctly within kDeadline
};

// Request mix: three quarters signed top-10 with recall targets
// 0.7 / 0.9 / 1.0, one quarter unsigned argmax; 10% from the
// interactive `app` tenant; queries drawn Zipf(1.1) from the pool.
std::vector<Req> DrawRequests(std::size_t count, std::uint64_t seed,
                              const ZipfSampler& zipf) {
  ips::Rng rng(seed);
  std::vector<Req> reqs(count);
  for (Req& req : reqs) {
    req.pool_index = zipf.Sample(rng.NextDouble());
    if (rng.NextDouble() < 0.25) {
      req.options.k = 1;
      req.options.is_signed = false;
    } else {
      req.options.k = 10;
    }
    static constexpr double kTargets[] = {0.7, 0.9, 1.0};
    req.options.recall_target = kTargets[rng.NextBounded(3)];
    req.app = rng.NextDouble() < kAppShare;
  }
  return reqs;
}

// Per-request spans of a traced request: the root covers due ->
// observed; children are the generator's lateness, the Submit call,
// and the queue / execution intervals the scheduler reports.
void RecordSpans(const Outcome& o, std::uint64_t id, Tracer* tracer) {
  const std::int64_t root =
      tracer->Add("request", tracer->At(o.due), tracer->At(o.observed), -1, id);
  tracer->Add("gen.lag", tracer->At(o.due), tracer->At(o.submit_begin), root, id);
  tracer->Add("serve.submit", tracer->At(o.submit_begin), tracer->At(o.submit_end),
              root, id);
  if (!o.ok()) return;
  const ips::QueryStats& stats = (*o.result)->stats;
  const double queued = tracer->At(o.submit_begin) + stats.queue_seconds;
  tracer->Add("serve.scheduler.queue", tracer->At(o.submit_begin), queued, root, id);
  tracer->Add("serve.engine.exec", queued, queued + stats.exec_seconds, root, id);
}

// The generator: submits each request at its due time and sweeps the
// outstanding futures without blocking in between. Returns when every
// request has been answered. With an enabled tracer every other request
// records its spans as it is observed; the others are the in-run
// untraced baseline for the tracing overhead.
void Generate(ips::BatchScheduler* scheduler, const ips::Matrix& pool,
              const std::vector<double>& due, std::uint64_t first_id,
              Tracer* tracer, Phase* phase) {
  const std::size_t n = phase->reqs.size();
  phase->outcomes.assign(n, Outcome{});
  std::vector<std::pair<std::size_t, std::future<ips::BatchScheduler::Result>>>
      outstanding;
  outstanding.reserve(4096);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    phase->outcomes[i].due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i]));
  }
  std::size_t next = 0;
  while (next < n || !outstanding.empty()) {
    Clock::time_point now = Clock::now();
    if (next < n && now >= phase->outcomes[next].due) {
      const Req& req = phase->reqs[next];
      ips::RequestContext context;
      context.tenant_id = req.app ? "app" : "bulk";
      context.priority = req.app ? ips::RequestPriority::kInteractive
                                 : ips::RequestPriority::kStandard;
      context.deadline_seconds = kDeadline;
      Outcome& outcome = phase->outcomes[next];
      outcome.submit_begin = now;
      outstanding.emplace_back(
          next, scheduler->Submit({pool.Row(req.pool_index), req.options, context}));
      outcome.submit_end = Clock::now();
      ++next;
      continue;
    }
    for (std::size_t j = 0; j < outstanding.size();) {
      auto& [index, future] = outstanding[j];
      if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        Outcome& outcome = phase->outcomes[index];
        outcome.observed = Clock::now();
        outcome.result.emplace(future.get());
        if (tracer->enabled() && index % 2 == 0) {
          RecordSpans(outcome, first_id + index, tracer);
        }
        outstanding[j] = std::move(outstanding.back());
        outstanding.pop_back();
      } else {
        ++j;
      }
    }
    if (next < n) {
      const double wait = Seconds(Clock::now(), phase->outcomes[next].due);
      if (wait > 300e-6) std::this_thread::sleep_for(std::chrono::microseconds(100));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

// Builds the engine the way a cold deployment does: Create, then every
// index eagerly. Returns the engine and the per-path build seconds.
std::unique_ptr<ips::Engine> SetUp(const ips::Matrix& data, double* total_s,
                                   double build_s[ips::kNumQueryAlgos],
                                   RunResult* out) {
  ips::Matrix copy = data;
  const Clock::time_point start = Clock::now();
  auto engine = ips::Engine::Create(std::move(copy));
  if (!engine.ok()) {
    out->Fail("Engine::Create: " + engine.status().ToString());
    return nullptr;
  }
  for (std::size_t a = 0; a < ips::kNumQueryAlgos; ++a) {
    const auto algo = static_cast<ips::QueryAlgo>(a);
    const Clock::time_point t0 = Clock::now();
    const ips::Status built = (*engine)->EnsureIndex(algo);
    build_s[a] = Seconds(t0, Clock::now());
    if (!built.ok()) {
      out->Fail("EnsureIndex: " + built.ToString());
      return nullptr;
    }
  }
  *total_s = Seconds(start, Clock::now());
  return std::move(engine).value();
}


std::uint64_t CounterValue(const char* name) {
  return ips::MetricsRegistry::Global().GetCounter(name)->Value();
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// The storage and scatter-gather layers, replayed on this workload's
// corpus and queries: the engine's snapshot save, its mmap warm start
// with and without checksum verification plus the first answer, and a
// four-shard ShardedEngine over the same rows against each of its
// shards called alone.
void ReplayRestartAndShards(const ips::Engine& engine, const ips::Matrix& queries,
                            const RunConfig& config, Tracer* tracer, RunResult* out) {
  const std::string dir = config.work_dir + "/snapshot";
  ips::Status saved;
  const double save_s = TimeOnce([&] { saved = engine.SaveSnapshot(dir); });
  if (!saved.ok()) {
    out->Fail("SaveSnapshot: " + saved.ToString());
    return;
  }
  ips::QueryOptions exact_k10;
  exact_k10.k = 10;
  exact_k10.recall_target = 1.0;
  std::vector<double> loads, plain_loads, first_ms;
  for (int rep = 0; rep < kLoadReps; ++rep) {
    for (const bool verify : {true, false}) {
      ips::SnapshotLoadOptions load;
      load.use_mmap = true;
      load.verify_checksums = verify;
      const Clock::time_point t0 = Clock::now();
      auto loaded = ips::Engine::CreateFromSnapshot(dir, load);
      const Clock::time_point t1 = Clock::now();
      if (!loaded.ok()) {
        out->Fail("CreateFromSnapshot: " + loaded.status().ToString());
        return;
      }
      (verify ? loads : plain_loads).push_back(Seconds(t0, t1));
      if (!verify) continue;
      auto answer = (*loaded)->Query({queries.Row(0), exact_k10});
      if (!answer.ok()) {
        out->Fail("first answer after warm start: " + answer.status().ToString());
        return;
      }
      first_ms.push_back(Seconds(t1, Clock::now()) * 1e3);
    }
  }
  const double bytes = double(DirectoryBytes(dir));
  std::filesystem::remove_all(dir);
  out->Set("storage.save_s", save_s, "s");
  out->Set("storage.load_s", Median(loads), "s");
  out->Set("storage.first_answer_ms", Median(first_ms), "ms");
  out->Set("storage.verify_s", Median(loads) - Median(plain_loads), "s");
  out->Set("storage.bytes_read", bytes, "bytes");
  out->Set("storage.read_mbps", bytes / Median(loads) / 1e6, "MB/s");

  ips::ShardedEngineOptions options;
  options.num_shards = kShards;
  options.num_threads = std::min(kShards, config.nproc);
  auto sharded = ips::ShardedEngine::Create(engine.data(), options);
  if (!sharded.ok()) {
    out->Fail("ShardedEngine::Create: " + sharded.status().ToString());
    return;
  }
  const std::uint64_t hedged_before = CounterValue("serve.shard.hedged");
  const std::uint64_t retries_before = CounterValue("serve.shard.retries");
  std::vector<double> sharded_us, slowest_us, merge_us;
  std::size_t partial = 0;
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    const auto q = queries.Row(i);
    const Clock::time_point t0 = Clock::now();
    auto whole = (*sharded)->Query({q, exact_k10});
    const Clock::time_point t1 = Clock::now();
    if (!whole.ok()) {
      out->Fail("replay sharded query: " + whole.status().ToString());
      return;
    }
    partial += whole->partial ? 1 : 0;
    std::vector<Clock::time_point> marks = {t1};
    double slowest = 0.0;
    for (std::size_t s = 0; s < (*sharded)->num_shards(); ++s) {
      auto part = (*sharded)->shard(s).Query({q, exact_k10});
      marks.push_back(Clock::now());
      if (!part.ok()) {
        out->Fail("replay shard query: " + part.status().ToString());
        return;
      }
      slowest = std::max(slowest, Seconds(marks[s], marks[s + 1]));
    }
    const std::uint64_t id = 40'000'000 + i;
    const std::int64_t root =
        tracer->Add("replay.sharded", tracer->At(t0), tracer->At(marks.back()), -1, id);
    tracer->Add("serve.sharded.query", tracer->At(t0), tracer->At(t1), root, id);
    for (std::size_t s = 0; s + 1 < marks.size(); ++s) {
      tracer->Add("serve.shard.query", tracer->At(marks[s]), tracer->At(marks[s + 1]),
                  root, id);
    }
    sharded_us.push_back(Seconds(t0, t1) * 1e6);
    slowest_us.push_back(slowest * 1e6);
    merge_us.push_back((Seconds(t0, t1) - slowest) * 1e6);
  }
  out->Set("serve.sharded.query_us", Median(sharded_us), "us");
  out->Set("serve.sharded.slowest_shard_us", Median(slowest_us), "us");
  out->Set("serve.sharded.merge_overhead_us", Median(merge_us), "us");
  out->Set("serve.sharded.hedged",
           double(CounterValue("serve.shard.hedged") - hedged_before), "count");
  out->Set("serve.sharded.retries",
           double(CounterValue("serve.shard.retries") - retries_before), "count");
  out->Set("serve.sharded.partial_frac",
           queries.rows() ? double(partial) / queries.rows() : 0.0, "fraction");
}

}  // namespace

void RunServeOpen(const RunConfig& config, RunResult* out) {
  // The corpus is the same in every run; the seed draws the traffic
  // (query pool, arrivals, request mix). The planner's warmup calibration
  // depends on the corpus, and different corpus draws put it in
  // different routing regimes, which would swamp any one change.
  ips::Rng corpus_rng(kCorpusSeed);
  const ips::Matrix data =
      ips::MakeLatentFactorVectors(kRows, kDim, kNormSkew, &corpus_rng);
  ips::Rng rng(config.seed);
  ips::Matrix pool(kPool, kDim);
  for (std::size_t i = 0; i < kPool; ++i) {
    for (double& v : pool.Row(i)) v = rng.NextGaussian();
  }
  const std::vector<const ips::Matrix*> parts = {&data};
  const std::vector<std::size_t> offsets = {0};
  const auto ref_signed = ExactTopK(parts, offsets, pool, 10, false, config.nproc);
  const auto ref_unsigned = ExactTopK(parts, offsets, pool, 1, true, config.nproc);

  // Set-up: cold Create + every EnsureIndex, repeated; the last engine
  // serves. The traced run sets up once.
  std::vector<double> setups;
  double build_s[ips::kNumQueryAlgos] = {};
  std::unique_ptr<ips::Engine> engine;
  for (int rep = 0; rep < (config.trace ? 1 : kSetupReps); ++rep) {
    engine.reset();
    double total = 0.0;
    engine = SetUp(data, &total, build_s, out);
    if (engine == nullptr) return;
    setups.push_back(total);
  }

  const ZipfSampler zipf(kPool, kPoolZipf);
  ips::BatchSchedulerOptions scheduler_options;
  scheduler_options.num_threads = std::max<std::size_t>(1, config.nproc - 1);
  ips::BatchScheduler scheduler(engine.get(), scheduler_options);
  Tracer tracer(config.trace);

  std::vector<Phase> phases(2);
  phases[0].name = "nominal";
  phases[0].rate = config.nominal_qps;
  phases[1].name = "overload";
  phases[1].rate = config.overload_qps;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    Phase& phase = phases[p];
    phase.duration = config.seconds / 2.0;
    const std::uint64_t phase_seed = config.seed * 1000003 + p * 7919 + 1;
    const std::vector<double> due =
        PoissonSchedule(phase.rate, phase.duration, phase_seed);
    phase.reqs = DrawRequests(due.size(), phase_seed + 17, zipf);
    phase.before = scheduler.counters();
    phase.app_before = scheduler.tenant_counters("app");
    phase.feedback_before = engine->feedback().counters();
    Generate(&scheduler, pool, due, (p + 1) * 10'000'000, &tracer, &phase);
    scheduler.Drain();
    phase.after = scheduler.counters();
    phase.app_after = scheduler.tenant_counters("app");
    phase.feedback_after = engine->feedback().counters();
  }

  // Output checks and accounting.
  std::map<double, std::pair<double, std::size_t>> recall_by_target;
  double recall_sum = 0.0;
  std::size_t recall_n = 0;
  std::vector<bool> seen(kPool, false);
  std::size_t repeats = 0;
  std::string phase_records = "[";
  for (Phase& phase : phases) {
    std::size_t ok = 0, in_deadline = 0, shed = 0, expired = 0, errors = 0;
    std::map<std::string, std::size_t> routes;
    std::vector<std::size_t> good_per_second(static_cast<std::size_t>(phase.duration) + 1);
    for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
      const Outcome& o = phase.outcomes[i];
      const Req& req = phase.reqs[i];
      ++out->attempted;
      repeats += seen[req.pool_index] ? 1 : 0;
      seen[req.pool_index] = true;
      if (!o.result.has_value()) {
        ++out->failed;
        out->Fail(phase.name + ": request never answered");
        continue;
      }
      if (!o.ok()) {
        const ips::StatusCode code = o.result->status().code();
        if (code == ips::StatusCode::kResourceExhausted) {
          ++shed;
        } else if (code == ips::StatusCode::kDeadlineExceeded) {
          ++expired;
        } else {
          ++errors;
          ++out->failed;
          out->Fail(phase.name + ": " + o.result->status().ToString());
        }
        continue;
      }
      const ips::QueryResult& result = **o.result;
      const bool is_signed = req.options.is_signed;
      const auto& ref = is_signed ? ref_signed[req.pool_index]
                                  : ref_unsigned[req.pool_index];
      double recall = 0.0;
      const std::string problem =
          CheckTopK(result.matches, ref, pool.Row(req.pool_index), parts,
                    offsets, is_signed, &recall);
      if (!problem.empty()) {
        ++out->failed;
        out->Fail(phase.name + ": " + problem);
        continue;
      }
      ++ok;
      ++routes[std::string(ips::QueryAlgoName(result.plan.algorithm)) + "." +
               std::string(ips::QueryPrecisionName(result.plan.precision))];
      if (o.latency() <= kDeadline) {
        ++in_deadline;
        const auto second = static_cast<std::size_t>(Seconds(phase.outcomes.front().due, o.due));
        if (second < good_per_second.size()) ++good_per_second[second];
      }
      recall_sum += recall;
      ++recall_n;
      auto& group = recall_by_target[req.options.recall_target];
      group.first += recall;
      group.second += 1;
    }
    phase.ok_in_deadline = in_deadline;
    const ips::SchedulerCounters& c = phase.after;
    if (c.submitted != c.shed + c.expired + c.completed) {
      out->Fail("scheduler counters do not partition submissions");
    }
    const std::size_t sent = phase.outcomes.size();
    double last_observed = 0.0;
    for (const Outcome& o : phase.outcomes) {
      if (o.result.has_value()) {
        last_observed = std::max(last_observed, Seconds(phase.outcomes.front().due, o.observed));
      }
    }
    phase_records += std::string(phase_records.size() > 1 ? ", " : "") +
        JsonObject({{"phase", JsonString(phase.name)},
                    {"offered_qps", JsonNumber(phase.rate)},
                    {"sent", std::to_string(sent)},
                    {"ok", std::to_string(ok)},
                    {"ok_in_deadline", std::to_string(in_deadline)},
                    {"shed", std::to_string(shed)},
                    {"expired", std::to_string(expired)},
                    {"late", std::to_string(ok - in_deadline)},
                    {"errors", std::to_string(errors)},
                    {"fail_frac", JsonNumber(sent ? 1.0 - double(in_deadline) / sent : 0.0)},
                    {"completions_per_s",
                     JsonNumber(last_observed > 0 ? ok / last_observed : 0.0)},
                    {"good_per_second", JsonList(good_per_second)},
                    {"routes", JsonObject(JsonCounts(routes))},
                    {"batches", std::to_string(c.batches - phase.before.batches)},
                    {"batched_queries",
                     std::to_string(c.batched_queries - phase.before.batched_queries)},
                    {"audits", std::to_string(phase.feedback_after.audits -
                                              phase.feedback_before.audits)},
                    {"evictions", std::to_string(phase.feedback_after.evictions -
                                                 phase.feedback_before.evictions)}});
  }
  phase_records += "]";
  out->Note("phases", phase_records);
  // The recall target is a statistical contract (the mean recall of the
  // requests that asked for a target reaches it); it is recorded, and
  // recall is an end-to-end metric, but a shortfall is not an output
  // error the way a wrong score or index is.
  std::map<std::string, std::string> groups;
  bool targets_met = true;
  for (const auto& [target, group] : recall_by_target) {
    const double mean = group.first / static_cast<double>(group.second);
    groups[JsonNumber(target)] = JsonNumber(mean);
    targets_met = targets_met && mean >= target - 1e-9;
  }
  out->Note("recall_by_target", JsonObject(groups));
  out->Note("recall_targets_met", targets_met ? "true" : "false");
  out->Note("rows", std::to_string(kRows));
  out->Note("dim", std::to_string(kDim));

  const Phase& nominal = phases[0];
  const Phase& overload = phases[1];
  auto latencies = [](const Phase& phase, bool app_only) {
    std::vector<double> v;
    for (std::size_t i = 0; i < phase.outcomes.size(); ++i) {
      if (phase.outcomes[i].ok() && (!app_only || phase.reqs[i].app)) {
        v.push_back(phase.outcomes[i].latency() * 1e3);
      }
    }
    return v;
  };

  if (!config.trace) {
    std::vector<std::pair<double, double>> timed;
    for (const Outcome& o : nominal.outcomes) {
      if (o.ok()) {
        timed.emplace_back(Seconds(nominal.outcomes.front().due, o.due), o.latency() * 1e3);
      }
    }
    const ChunkedLatency lat = SummarizeChunks(timed, kLatencyChunk);
    out->Set("setup_s", Median(setups), "s");
    out->Set("latency_p50_ms", lat.p50, "ms");
    out->Set("latency_p99_ms", lat.tail, "ms");
    out->Note("latency_chunks", ChunksJson(lat));
    out->Set("goodput_qps", overload.ok_in_deadline / overload.duration, "1/s");
    out->Set("recall", recall_n ? recall_sum / recall_n : 0.0, "fraction");
    out->Set("ok_frac",
             nominal.outcomes.empty()
                 ? 0.0
                 : double(nominal.ok_in_deadline) / nominal.outcomes.size(),
             "fraction");
    out->Set("peak_rss_mb", PeakRssMb(), "MB");
    out->Note("setup_samples_s", JsonNumbers(setups));
    return;
  }

  // ---- traced run: per-layer metrics ----
  std::vector<double> traced_ms, untraced_ms;
  for (std::size_t i = 0; i < nominal.outcomes.size(); ++i) {
    const Outcome& o = nominal.outcomes[i];
    if (o.ok()) (i % 2 == 0 ? traced_ms : untraced_ms).push_back(o.latency() * 1e3);
  }
  const double untraced_p50 = Median(untraced_ms);
  out->Set("trace.overhead_frac",
           untraced_p50 > 0 ? (Median(traced_ms) - untraced_p50) / untraced_p50 : 0.0,
           "fraction");
  out->Set("trace.unaccounted_frac", tracer.UncoveredFraction("request"), "fraction");

  // Scheduler, QoS and generator.
  std::vector<double> queue_ms, exec_ms, lag_ms, dots;
  std::vector<const ips::QueryResult*> answers;
  for (const Phase& phase : phases) {
    for (const Outcome& o : phase.outcomes) {
      lag_ms.push_back(Seconds(o.due, o.submit_begin) * 1e3);
      if (!o.ok()) continue;
      const ips::QueryResult& r = **o.result;
      queue_ms.push_back(r.stats.queue_seconds * 1e3);
      exec_ms.push_back(r.stats.exec_seconds * 1e3);
      dots.push_back(static_cast<double>(r.stats.dot_products));
      answers.push_back(&r);
    }
  }
  const ips::SchedulerCounters& total = overload.after;
  const TailSummary queue = SummarizeTail(queue_ms);
  const TailSummary exec = SummarizeTail(exec_ms);
  out->Set("serve.scheduler.queue_ms.p50", queue.p50, "ms");
  out->Set("serve.scheduler.queue_ms.p99", queue.tail, "ms");
  out->Set("serve.scheduler.exec_ms.p50", exec.p50, "ms");
  out->Set("serve.scheduler.exec_ms.p99", exec.tail, "ms");
  out->Set("serve.scheduler.batch_size_mean",
           total.batches ? double(total.completed) / total.batches : 0.0, "count");
  out->Set("serve.scheduler.coalesced_frac",
           total.completed ? double(total.batched_queries) / total.completed : 0.0,
           "fraction");
  out->Set("serve.scheduler.shed_frac",
           total.submitted ? double(total.shed) / total.submitted : 0.0, "fraction");
  out->Set("serve.scheduler.expired_frac",
           total.submitted ? double(total.expired) / total.submitted : 0.0, "fraction");
  out->Set("serve.scheduler.max_queue_depth", double(total.max_queue_depth), "count");
  const ips::TenantCounters& app = overload.app_after;
  out->Set("serve.qos.app.shed_frac",
           app.submitted ? double(app.shed) / app.submitted : 0.0, "fraction");
  out->Set("serve.qos.app.p99_ms", SummarizeTail(latencies(overload, true)).tail, "ms");
  out->Set("serve.gen.lag_p99_ms", SummarizeTail(lag_ms).tail, "ms");
  out->Set("input.repeat_frac", out->attempted ? double(repeats) / out->attempted : 0.0,
           "fraction");
  out->Set("core.dots_per_query", Median(dots), "count");

  // Planner and feedback.
  SetPlanShares(answers, out);
  const ips::FeedbackCounters& feedback_before = nominal.feedback_before;
  const ips::FeedbackCounters& feedback_after = overload.feedback_after;
  const double audits = double(feedback_after.audits - feedback_before.audits);
  out->Set("serve.feedback.audits", audits, "count");
  out->Set("serve.feedback.audit_frac", answers.empty() ? 0.0 : audits / answers.size(),
           "fraction");
  out->Set("serve.feedback.hedged",
           double(feedback_after.hedged - feedback_before.hedged), "count");
  out->Set("serve.feedback.evictions",
           double(feedback_after.evictions - feedback_before.evictions), "count");

  // Replay on the first nominal requests: planner-routed against the
  // same plan forced, the forced index paths, and the kernels.
  ips::Matrix replay_queries(kReplay, kDim);
  std::vector<ips::QueryOptions> replay_options;
  for (std::size_t i = 0; i < kReplay; ++i) {
    const Req& req = nominal.reqs[i % nominal.reqs.size()];
    const auto q = pool.Row(req.pool_index);
    std::copy(q.begin(), q.end(), replay_queries.Row(i).begin());
    replay_options.push_back(req.options);
  }
  ReplayPlanner(*engine, replay_queries, replay_options, out);

  std::vector<double> index_us[ips::kNumQueryAlgos];
  double tree_dots = 0.0, lsh_candidates = 0.0;
  for (std::size_t i = 0; i < kReplay; ++i) {
    std::vector<std::pair<std::string, std::pair<double, double>>> children;
    for (ips::QueryAlgo algo :
         {ips::QueryAlgo::kBallTree, ips::QueryAlgo::kLsh, ips::QueryAlgo::kSketch}) {
      ips::QueryOptions options;
      options.k = 10;
      options.recall_target = 1.0;
      options.force_algorithm = algo;
      const Clock::time_point s = Clock::now();
      auto result = engine->Query({replay_queries.Row(i), options});
      const Clock::time_point e = Clock::now();
      if (!result.ok()) {
        out->Fail("replay forced index query: " + result.status().ToString());
        return;
      }
      const std::string name(ips::QueryAlgoName(algo));
      children.push_back({name + ".query", {tracer.At(s), tracer.At(e)}});
      index_us[static_cast<std::size_t>(algo)].push_back(Seconds(s, e) * 1e6);
      if (algo == ips::QueryAlgo::kBallTree) tree_dots += double(result->stats.dot_products);
      if (algo == ips::QueryAlgo::kLsh) lsh_candidates += double(result->stats.candidates);
    }
    const std::uint64_t id = 30'000'000 + i;
    const std::int64_t root = tracer.Add("replay", children.front().second.first,
                                         children.back().second.second, -1, id);
    for (const auto& [name, span] : children) {
      tracer.Add(name, span.first, span.second, root, id);
    }
  }
  for (ips::QueryAlgo algo :
       {ips::QueryAlgo::kBallTree, ips::QueryAlgo::kLsh, ips::QueryAlgo::kSketch}) {
    const std::string name(ips::QueryAlgoName(algo));
    const std::size_t a = static_cast<std::size_t>(algo);
    out->Set(name + ".query_us", Median(index_us[a]), "us");
    out->Set(name + ".build_s", build_s[a], "s");
  }
  out->Set("tree.dots_per_query", tree_dots / kReplay, "count");
  out->Set("lsh.candidates_per_query", lsh_candidates / kReplay, "count");
  ReplayKernels(engine->data(), replay_queries, 10, out);
  ReplayRestartAndShards(*engine, replay_queries, config, &tracer, out);

  SetSelfTimes(tracer, out);
  tracer.WriteJson(config.work_dir + "/spans.json");
  out->Idle("lsh.join.");
  out->Idle("storage.stream_s");
  out->Idle("storage.block_pairs");
}

}  // namespace perfbench
