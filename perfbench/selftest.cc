// The benchmark's own tests: the open-loop arrival schedule, the
// "highest percentile with at least ten samples beyond it" rule, the
// Zipf sampler and the span self-time accounting. Exits non-zero when
// any expectation fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

void TestSchedule() {
  const double rate = 2000.0, duration = 5.0;
  const auto a = PoissonSchedule(rate, duration, 42);
  const auto b = PoissonSchedule(rate, duration, 42);
  const auto c = PoissonSchedule(rate, duration, 43);
  EXPECT(a == b);
  EXPECT(a != c);
  const double expected = rate * duration;
  EXPECT(std::abs(double(a.size()) - expected) < 5.0 * std::sqrt(expected));
  bool ascending = true, in_range = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    in_range = in_range && a[i] >= 0.0 && a[i] < duration;
    if (i > 0) ascending = ascending && a[i] >= a[i - 1];
  }
  EXPECT(ascending);
  EXPECT(in_range);
  // Exponential gaps: mean 1/rate, and P(gap > mean) = 1/e.
  std::size_t long_gaps = 0;
  for (std::size_t i = 1; i < a.size(); ++i) long_gaps += a[i] - a[i - 1] > 1.0 / rate;
  const double share = double(long_gaps) / double(a.size() - 1);
  EXPECT(std::abs(share - std::exp(-1.0)) < 0.02);
  EXPECT(std::abs(a.back() / double(a.size()) - 1.0 / rate) < 0.05 / rate);
  EXPECT(PoissonSchedule(0.0, duration, 1).empty());
}

void TestTailRule() {
  TailSummary s = SummarizeTail(Ramp(1000));
  EXPECT(s.samples == 1000);
  EXPECT(s.p50 == 500.0);
  EXPECT(s.tail_pct == 99.0 && s.tail == 990.0);  // exactly 10 beyond
  s = SummarizeTail(Ramp(999));
  EXPECT(s.tail_pct == 95.0 && s.tail == 950.0);  // p99 has only 9 beyond
  s = SummarizeTail(Ramp(10000));
  EXPECT(s.tail_pct == 99.9 && s.tail == 9990.0);
  s = SummarizeTail(Ramp(20));
  EXPECT(s.tail_pct == 50.0 && s.tail == 10.0);
  s = SummarizeTail(Ramp(11));
  EXPECT(s.tail_pct == 100.0 && s.tail == 11.0);  // no percentile qualifies
  s = SummarizeTail({});
  EXPECT(s.samples == 0 && s.tail == 0.0);
  // For every population size the reported percentile leaves at least
  // ten samples beyond it, and the next higher one on the ladder would
  // not.
  const double ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (std::size_t n = 1; n <= 3000; ++n) {
    s = SummarizeTail(Ramp(n));
    const double beyond = double(n) - s.tail;  // Ramp values are ranks
    if (s.tail_pct < 100.0) {
      EXPECT(beyond >= 10.0);
      for (double p : ladder) {
        if (p <= s.tail_pct) break;
        EXPECT(double(n) - NearestRank(p, double(n)) < 10.0);
      }
    } else {
      EXPECT(s.tail == double(n));
      EXPECT(double(n) - NearestRank(50.0, double(n)) < 10.0);
    }
  }
}

void TestChunks() {
  // Latency k at time k: chunk medians and p99s are known exactly.
  std::vector<std::pair<double, double>> timed;
  for (std::size_t i = 1; i <= 5000; ++i) timed.emplace_back(double(5000 - i), double(5001 - i));
  const ChunkedLatency chunks = SummarizeChunks(timed, 2000);
  EXPECT(chunks.chunk_samples.size() == 2);  // the trailing 1000 join chunk 2
  EXPECT(chunks.chunk_samples[0] == 2000 && chunks.chunk_samples[1] == 3000);
  EXPECT(chunks.chunk_p50[0] == 1000 && chunks.chunk_tail[0] == 1980);
  EXPECT(chunks.chunk_p50[1] == 3500 && chunks.chunk_tail[1] == 4970);
  EXPECT(chunks.tail_pct == 99.0);
  EXPECT(chunks.p50 == 2250 && chunks.tail == 3475);
  timed.resize(500);  // too few for a p99: the tail rule applies
  const ChunkedLatency small = SummarizeChunks(timed, 2000);
  EXPECT(small.chunk_samples.size() == 1 && small.tail_pct == 95.0);
}

void TestZipf() {
  const ZipfSampler zipf(4096, 1.1);
  EXPECT(zipf.Sample(0.0) == 0);
  EXPECT(zipf.Sample(0.999999999) == 4095);
  double h = 0.0;
  for (std::size_t r = 1; r <= 4096; ++r) h += std::pow(double(r), -1.1);
  // Rank 0 covers the first 1/h of the unit interval.
  EXPECT(zipf.Sample(0.99 / h) == 0);
  EXPECT(zipf.Sample(1.01 / h) == 1);
}

void TestSpans() {
  Tracer off(false);
  EXPECT(off.Add("x", 0, 1, -1, 0) == -1);
  EXPECT(off.spans().empty());
  Tracer tracer(true);
  const auto root = tracer.Add("request", 0.0, 10.0, -1, 1);
  tracer.Add("a", 1.0, 3.0, root, 1);
  tracer.Add("b", 2.0, 5.0, root, 1);
  tracer.Add("c", 8.0, 12.0, root, 1);  // overhangs the root
  const auto self = tracer.SelfSecondsByName();
  EXPECT(std::abs(self.at("request") - 4.0) < 1e-12);  // 10 - |[1,5] u [8,10]|
  EXPECT(std::abs(self.at("c") - 4.0) < 1e-12);
  EXPECT(std::abs(tracer.UncoveredFraction("request") - 0.4) < 1e-12);
  EXPECT(tracer.UncoveredFraction("missing") == 0.0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestSchedule();
  perfbench::TestTailRule();
  perfbench::TestChunks();
  perfbench::TestZipf();
  perfbench::TestSpans();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failures\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench selftest: ok\n");
  return 0;
}
