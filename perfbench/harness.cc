#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "linalg/kernels.h"
#include "rng/random.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double NearestRank(double p, double n) {
  // The epsilon keeps p * n / 100 = 9990 from rounding up to 9991.
  return std::ceil(p / 100.0 * n - 1e-9);
}

double Percentile(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = NearestRank(p, static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(sorted.size() - 1)));
  return sorted[index];
}

TailSummary SummarizeTail(std::vector<double> samples) {
  TailSummary summary;
  summary.samples = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.p50 = Percentile(samples, 50.0);
  summary.tail = samples.back();
  summary.tail_pct = 100.0;
  const double n = static_cast<double>(samples.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double rank = std::max(1.0, NearestRank(p, n));
    if (n - rank >= 10.0) {
      summary.tail = samples[static_cast<std::size_t>(rank) - 1];
      summary.tail_pct = p;
      break;
    }
  }
  return summary;
}

ChunkedLatency SummarizeChunks(std::vector<std::pair<double, double>> timed,
                               std::size_t chunk) {
  std::sort(timed.begin(), timed.end());
  ChunkedLatency out;
  out.tail_pct = 100.0;
  const std::size_t chunks = std::max<std::size_t>(1, timed.size() / chunk);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = c + 1 == chunks ? timed.size() : begin + chunk;
    std::vector<double> values;
    for (std::size_t i = begin; i < end; ++i) values.push_back(timed[i].second);
    const TailSummary summary = SummarizeTail(values);
    std::sort(values.begin(), values.end());
    const bool p99 = summary.tail_pct >= 99.0;
    out.chunk_p50.push_back(summary.p50);
    out.chunk_tail.push_back(p99 ? Percentile(values, 99.0) : summary.tail);
    out.chunk_samples.push_back(static_cast<double>(values.size()));
    out.tail_pct = std::min(out.tail_pct, p99 ? 99.0 : summary.tail_pct);
  }
  out.p50 = Median(out.chunk_p50);
  out.tail = Median(out.chunk_tail);
  return out;
}

std::string ChunksJson(const ChunkedLatency& chunks) {
  return JsonObject({{"tail_percentile", JsonNumber(chunks.tail_pct)},
                     {"p50_ms", JsonNumbers(chunks.chunk_p50)},
                     {"tail_ms", JsonNumbers(chunks.chunk_tail)},
                     {"samples", JsonNumbers(chunks.chunk_samples)}});
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double> PoissonSchedule(double rate_per_s, double duration_s,
                                    std::uint64_t seed) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  ips::Rng rng(seed);
  double t = 0.0;
  while (true) {
    t += rng.NextExponential() / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r + 1), -s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t Tracer::Add(const std::string& name, double start, double end,
                         std::int64_t parent, std::uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start, std::max(start, end), parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<std::vector<std::size_t>> Tracer::Children() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  return children;
}

namespace {

// Length of the union of `intervals` clipped to [lo, hi].
double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [a, b] : intervals) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  const auto children = Children();
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<double, double>> intervals;
    for (std::size_t c : children[i]) {
      intervals.emplace_back(spans_[c].start, spans_[c].end);
    }
    const Span& span = spans_[i];
    self[span.name] += (span.end - span.start) -
                       UnionLength(std::move(intervals), span.start, span.end);
  }
  return self;
}

double Tracer::UncoveredFraction(const std::string& root) const {
  const auto children = Children();
  double total = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0 || span.name != root) continue;
    std::vector<std::pair<double, double>> intervals;
    for (std::size_t c : children[i]) {
      intervals.emplace_back(spans_[c].start, spans_[c].end);
    }
    total += span.end - span.start;
    uncovered += (span.end - span.start) -
                 UnionLength(std::move(intervals), span.start, span.end);
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

void Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << JsonString(s.name)
        << ",\"start\":" << JsonNumber(s.start)
        << ",\"end\":" << JsonNumber(s.end) << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}";
  }
  out << "\n]\n";
}

HostInfo ProbeHost() {
  HostInfo host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  host.isa = ips::kernels::ActiveIsaName();
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  host.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  host.git_sha = sha != nullptr ? sha : "unknown";
  const char* digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
  host.source_digest = digest != nullptr ? digest : "unknown";
  return host;
}

namespace {

#if defined(__x86_64__)
// Twelve independent FMA chains hide the FMA latency, so the loop runs
// at the core's peak FMA throughput.
__attribute__((target("avx2,fma"))) double FmaLoopAvx2(std::size_t iters) {
  const __m256d mul = _mm256_set1_pd(0.9999999);
  const __m256d add = _mm256_set1_pd(1e-7);
  __m256d a0 = _mm256_set1_pd(1.00), a1 = _mm256_set1_pd(1.01),
          a2 = _mm256_set1_pd(1.02), a3 = _mm256_set1_pd(1.03),
          a4 = _mm256_set1_pd(1.04), a5 = _mm256_set1_pd(1.05),
          a6 = _mm256_set1_pd(1.06), a7 = _mm256_set1_pd(1.07),
          a8 = _mm256_set1_pd(1.08), a9 = _mm256_set1_pd(1.09),
          a10 = _mm256_set1_pd(1.10), a11 = _mm256_set1_pd(1.11);
  for (std::size_t it = 0; it < iters; ++it) {
    a0 = _mm256_fmadd_pd(a0, mul, add);
    a1 = _mm256_fmadd_pd(a1, mul, add);
    a2 = _mm256_fmadd_pd(a2, mul, add);
    a3 = _mm256_fmadd_pd(a3, mul, add);
    a4 = _mm256_fmadd_pd(a4, mul, add);
    a5 = _mm256_fmadd_pd(a5, mul, add);
    a6 = _mm256_fmadd_pd(a6, mul, add);
    a7 = _mm256_fmadd_pd(a7, mul, add);
    a8 = _mm256_fmadd_pd(a8, mul, add);
    a9 = _mm256_fmadd_pd(a9, mul, add);
    a10 = _mm256_fmadd_pd(a10, mul, add);
    a11 = _mm256_fmadd_pd(a11, mul, add);
  }
  const __m256d sum = _mm256_add_pd(
      _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3)),
                    _mm256_add_pd(_mm256_add_pd(a4, a5), _mm256_add_pd(a6, a7))),
      _mm256_add_pd(_mm256_add_pd(a8, a9), _mm256_add_pd(a10, a11)));
  double lanes[4];
  _mm256_storeu_pd(lanes, sum);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}
#endif

double FmaLoopScalar(std::size_t iters) {
  double acc[12];
  for (int i = 0; i < 12; ++i) acc[i] = 1.0 + i * 1e-3;
  for (std::size_t it = 0; it < iters; ++it) {
    for (int i = 0; i < 12; ++i) acc[i] = acc[i] * 0.9999999 + 1e-7;
  }
  double sum = 0.0;
  for (double a : acc) sum += a;
  return sum;
}

}  // namespace

double ProbeFmaGflops() {
  constexpr std::size_t kIters = 4'000'000;
#if defined(__x86_64__)
  const bool avx2 = std::string(ips::kernels::ActiveIsaName()) == "avx2";
#else
  const bool avx2 = false;
#endif
  const double lanes = avx2 ? 4.0 : 1.0;
  double best = 0.0;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
#if defined(__x86_64__)
    sink = sink + (avx2 ? FmaLoopAvx2(kIters) : FmaLoopScalar(kIters));
#else
    sink = sink + FmaLoopScalar(kIters);
#endif
    const double s = Seconds(start, Clock::now());
    const double gflops = 2.0 * 12.0 * lanes * kIters / s / 1e9;
    best = std::max(best, gflops);
  }
  return best;
}

double ProbeTriadGbps() {
  constexpr std::size_t kElems = std::size_t{1} << 23;  // 64 MiB per array
  std::vector<double> a(kElems, 0.0), b(kElems, 1.0), c(kElems, 2.0);
  const double scalar = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kElems; ++i) a[i] = b[i] + scalar * c[i];
    const double s = Seconds(start, Clock::now());
    best = std::max(best, 24.0 * kElems / s / 1e9);
  }
  volatile double sink = a[kElems / 3];
  (void)sink;
  return best;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<std::vector<ips::SearchMatch>> ExactTopK(
    const std::vector<const ips::Matrix*>& parts,
    const std::vector<std::size_t>& offsets, const ips::Matrix& queries,
    std::size_t k, bool absolute, std::size_t threads) {
  const std::size_t nq = queries.rows();
  std::vector<std::vector<ips::SearchMatch>> out(nq);
  threads = std::max<std::size_t>(1, std::min(threads, nq));
  const std::size_t chunk = (nq + threads - 1) / threads;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(nq, begin + chunk);
    if (begin >= end) break;
    workers.emplace_back([&, begin, end] {
      ips::Matrix block(end - begin, queries.cols());
      for (std::size_t i = begin; i < end; ++i) {
        std::copy(queries.Row(i).begin(), queries.Row(i).end(),
                  block.Row(i - begin).begin());
      }
      std::vector<ips::kernels::TopKHeap> heaps(end - begin,
                                                ips::kernels::TopKHeap(k));
      for (std::size_t p = 0; p < parts.size(); ++p) {
        ips::kernels::BlockTopK(*parts[p], 0, parts[p]->rows(), block,
                                absolute, heaps, offsets[p]);
      }
      for (std::size_t i = begin; i < end; ++i) {
        for (const auto& scored : heaps[i - begin].TakeSorted()) {
          out[i].push_back(ips::SearchMatch{scored.index, scored.value});
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return out;
}

std::string CheckTopK(std::span<const ips::SearchMatch> answer,
                      std::span<const ips::SearchMatch> reference,
                      std::span<const double> query,
                      const std::vector<const ips::Matrix*>& parts,
                      const std::vector<std::size_t>& offsets, bool is_signed,
                      double* recall) {
  *recall = 0.0;
  if (answer.size() != reference.size()) {
    return "answer has " + std::to_string(answer.size()) +
           " matches, reference " + std::to_string(reference.size());
  }
  std::vector<std::size_t> seen;
  for (std::size_t j = 0; j < answer.size(); ++j) {
    const std::size_t index = answer[j].index;
    std::size_t p = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (index >= offsets[i] && index < offsets[i] + parts[i]->rows()) p = i;
    }
    if (p == parts.size()) return "index " + std::to_string(index) + " out of range";
    const double dot = ips::kernels::Dot(parts[p]->Row(index - offsets[p]), query);
    const double score = is_signed ? dot : std::abs(dot);
    if (std::abs(score - answer[j].value) > 1e-9 * std::max(1.0, std::abs(score))) {
      return "index " + std::to_string(index) + " reported score " +
             JsonNumber(answer[j].value) + ", recomputed " + JsonNumber(score);
    }
    if (j > 0 && answer[j].value > answer[j - 1].value) return "scores not descending";
    seen.push_back(index);
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return "duplicate index in answer";
  }
  if (reference.empty()) {
    *recall = 1.0;
    return "";
  }
  const double kth = reference.back().value;
  const double tol = 1e-9 * std::max(1.0, std::abs(kth));
  std::size_t hits = 0;
  for (const auto& match : answer) hits += match.value >= kth - tol ? 1 : 0;
  *recall = static_cast<double>(std::min(hits, reference.size())) /
            static_cast<double>(reference.size());
  return "";
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) out += (out.size() > 1 ? ", " : "") + JsonString(item);
  return out + "]";
}

std::string JsonList(const std::vector<std::size_t>& items) {
  std::string out = "[";
  for (std::size_t item : items) out += (out.size() > 1 ? ", " : "") + std::to_string(item);
  return out + "]";
}

std::string JsonNumbers(const std::vector<double>& items) {
  std::string out = "[";
  for (double item : items) out += (out.size() > 1 ? ", " : "") + JsonNumber(item);
  return out + "]";
}

std::map<std::string, std::string> JsonCounts(const std::map<std::string, std::size_t>& counts) {
  std::map<std::string, std::string> out;
  for (const auto& [key, count] : counts) out[key] = std::to_string(count);
  return out;
}

void RunResult::Fail(const std::string& what) {
  ++failed_checks;
  if (check_failures.size() < 20) check_failures.push_back(what);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonObject(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    out += (first ? "" : ", ") + JsonString(key) + ": " + value;
    first = false;
  }
  return out + "}";
}

}  // namespace perfbench
