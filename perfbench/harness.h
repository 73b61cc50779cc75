// Shared machinery of the repository benchmark: latency summaries, the
// seeded open-loop arrival schedule, benchmark-side trace spans, host
// fingerprint and roofline probes, exact top-k references, and the
// result record every workload fills in.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "linalg/matrix.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `from` to `to`.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------
// Latency summaries.
// ---------------------------------------------------------------------

/// 1-based nearest rank of percentile p (0 < p <= 100) among n samples.
double NearestRank(double p, double n);

/// Nearest-rank percentile (0 < p <= 100) of ascending `sorted`.
double Percentile(std::span<const double> sorted, double p);

/// A timing population reported as its median plus the highest
/// percentile of the ladder {99.9, 99, 95, 90, 75, 50} that still has at
/// least ten samples beyond it. With fewer than eleven samples no
/// percentile qualifies and `tail` is the maximum (tail_pct = 100).
struct TailSummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
TailSummary SummarizeTail(std::vector<double> samples);

/// A latency population summarized in consecutive chunks of requests
/// (in time order): each chunk's p50 and tail (p99 once a chunk has
/// 1000 samples; the tail rule below that), then the medians over the
/// chunks, so one stalled second of a shared host does not decide a
/// run's figure. A trailing partial chunk joins the one before it.
struct ChunkedLatency {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  // lowest percentile any chunk reported
  std::vector<double> chunk_p50, chunk_tail, chunk_samples;
};
ChunkedLatency SummarizeChunks(std::vector<std::pair<double, double>> timed,
                               std::size_t chunk);
std::string ChunksJson(const ChunkedLatency& chunks);

/// Median of `values` (0 for an empty population).
double Median(std::vector<double> values);

// ---------------------------------------------------------------------
// Open-loop arrivals.
// ---------------------------------------------------------------------

/// Due times (seconds from phase start, ascending) of a Poisson arrival
/// process at `rate_per_s` over [0, duration_s). The same seed gives
/// the same schedule.
std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    std::uint64_t seed);

/// Inverse-CDF sampler of a Zipf(s) law over {0, ..., n-1}: rank r is
/// drawn with probability proportional to (r + 1)^-s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  /// Maps a uniform draw u in [0, 1) to a rank.
  std::size_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------
// Benchmark-side trace spans.
// ---------------------------------------------------------------------

/// One span: a named interval, the span that caused it (-1 for a root),
/// and the request it belongs to.
struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer's epoch
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span log; single-threaded (each workload records from its
/// one caller thread). A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Seconds since the epoch for a steady_clock instant.
  double At(Clock::time_point t) const { return Seconds(epoch_, t); }

  /// Records a span over an explicit interval; returns its id (-1 when
  /// disabled).
  std::int64_t Add(const std::string& name, double start, double end,
                   std::int64_t parent, std::uint64_t request);

  /// Self time per span name: each span's duration minus the part of
  /// it that its children's intervals cover.
  std::map<std::string, double> SelfSecondsByName() const;

  /// Share of the total duration of root spans named `root` that no
  /// child span covers.
  double UncoveredFraction(const std::string& root) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a JSON array to `path`.
  void WriteJson(const std::string& path) const;

 private:
  std::vector<std::vector<std::size_t>> Children() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Times `fn` once and returns its wall time in seconds.
template <typename Fn>
double TimeOnce(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return Seconds(start, Clock::now());
}

// ---------------------------------------------------------------------
// Host fingerprint and roofline probes.
// ---------------------------------------------------------------------

struct HostInfo {
  std::string cpu_model;
  std::string isa;  // kernels::ActiveIsaName()
  std::size_t nproc = 0;
  std::string build_type;
  std::string compiler;
  std::string git_sha;
  std::string source_digest;
};
HostInfo ProbeHost();

/// Single-thread peak double-precision FMA rate (GFLOP/s, 2 flops per
/// FMA) with the vector width of the active kernel ISA.
double ProbeFmaGflops();

/// Single-thread STREAM-style triad a = b + s * c over arrays larger
/// than the last-level cache, best of several passes. Bytes are
/// computed from array sizes (24 per element; write-allocate traffic
/// not counted).
double ProbeTriadGbps();

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

// ---------------------------------------------------------------------
// Exact references.
// ---------------------------------------------------------------------

/// Exact top-k of every row of `queries` against the union of `parts`
/// (part i's local row r has global index offsets[i] + r), computed with
/// the tiled kernels::BlockTopK scan on `threads` threads. Order: score
/// descending, then index ascending.
std::vector<std::vector<ips::SearchMatch>> ExactTopK(
    const std::vector<const ips::Matrix*>& parts,
    const std::vector<std::size_t>& offsets, const ips::Matrix& queries,
    std::size_t k, bool absolute, std::size_t threads);

/// Checks one top-k answer against its exact reference and the data it
/// was drawn from: indices in range and distinct, scores equal to the
/// recomputed inner product (absolute when !is_signed), descending, and
/// min(k, n) of them. Returns "" when the answer is well formed, or
/// what is wrong. `recall` receives the share of the reference's k
/// entries the answer matched, counted by score so that exact ties do
/// not count as misses.
std::string CheckTopK(std::span<const ips::SearchMatch> answer,
                      std::span<const ips::SearchMatch> reference,
                      std::span<const double> query,
                      const std::vector<const ips::Matrix*>& parts,
                      const std::vector<std::size_t>& offsets, bool is_signed,
                      double* recall);

// ---------------------------------------------------------------------
// Result record.
// ---------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the contract fields, the metrics, the failed
/// output checks, and free-form record fields (raw JSON values).
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> record;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& key, const std::string& json) {
    record[key] = json;
  }
  /// Records a failed output check (kept to the first few, all counted).
  void Fail(const std::string& what);
  /// Declares a layer (metric-name prefix) the workload does not
  /// exercise; its per-layer metrics are reported as 0.
  void Idle(const std::string& prefix) { idle_layers.push_back(prefix); }

  std::size_t failed_checks = 0;
  std::vector<std::string> idle_layers;
};

/// JSON helpers.
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);
std::string JsonObject(const std::map<std::string, std::string>& fields);
std::string JsonList(const std::vector<std::string>& items);  // strings
std::string JsonList(const std::vector<std::size_t>& items);
std::string JsonNumbers(const std::vector<double>& items);
std::map<std::string, std::string> JsonCounts(const std::map<std::string, std::size_t>& counts);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  double nominal_qps = 0.0;
  double overload_qps = 0.0;
  std::string work_dir;  // scratch files of this run (inside the checkout)
  std::size_t nproc = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
