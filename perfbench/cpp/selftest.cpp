// Self-tests of the benchmark's own logic (not of the library): the tail
// percentile rule, the CPU clocks and the end-to-end figures built on them,
// due-time latency under an injected stall, counting a corrupted output as
// a failed operation, and seeded arrivals.
// Exit status 0 when every test passes.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "fft/executor.hpp"
#include "host.hpp"
#include "record.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_tail_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Tail t = tail_with_beyond(v, 10);
  expect(t.valid && t.value == 90 && t.beyond == 10 && t.percentile == 90.0,
         "tail of 1..100 is 90 = p90 with ten samples beyond");

  std::vector<double> eleven(v.begin(), v.begin() + 11);
  const Tail t11 = tail_with_beyond(eleven, 10);
  expect(t11.valid && t11.value == 1 && t11.beyond == 10,
         "with 11 samples the tail is the minimum, ten beyond");

  std::vector<double> ten(v.begin(), v.begin() + 10);
  expect(!tail_with_beyond(ten, 10).valid, "ten samples have no tail percentile");

  std::vector<double> big;
  for (int i = 0; i < 100000; ++i) big.push_back(i);
  const Tail tb = tail_with_beyond(big, 10);
  expect(tb.beyond == 10 && tb.percentile > 99.98 && tb.percentile < 99.995,
         "1e5 samples: tail is p99.99, ten beyond");
}

void test_cpu_clocks() {
  // The gated time metrics use CPU clocks so that time spent waiting
  // (parked, preempted, stolen by the hypervisor) does not count.
  const std::uint64_t c0 = process_cpu_ns(), w0 = now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double slept_cpu = static_cast<double>(process_cpu_ns() - c0);
  const double slept_wall = static_cast<double>(now_ns() - w0);
  expect(slept_cpu < 0.2 * slept_wall, "a sleeping process accrues almost no CPU time");
  const std::uint64_t c1 = thread_cpu_ns(), w1 = now_ns();
  volatile double x = 0.0;
  while (now_ns() - w1 < 20'000'000) x = x + 1.0;
  expect(static_cast<double>(thread_cpu_ns() - c1) > 0.25 * static_cast<double>(now_ns() - w1),
         "a spinning thread accrues CPU time");
}

void test_end_to_end_figures() {
  // Two segments: 3 ops over 2 s with 6 ms of library CPU, 1 op over 1 s
  // with 2 ms.
  std::vector<PassSummary> seg(2);
  seg[0].ops = {{1e6, 1e9}, {2e6, 1e9}, {3e6, 1e9}};
  seg[0].t1_ns = 2'000'000'000;
  seg[0].cpu_ns = 6'000'000;
  seg[1].ops = {{4e6, 1e9}};
  seg[1].t0_ns = 10'000'000'000;
  seg[1].t1_ns = 11'000'000'000;
  seg[1].cpu_ns = 2'000'000;
  Record rec;
  report_end_to_end(rec, seg, /*closed_loop=*/true);
  auto value = [&](const std::string& name) {
    for (const Record::Metric& m : rec.metrics)
      if (m.name == name) return m.value;
    return -1.0;
  };
  expect(value("cpu_us_per_op") == 2000.0, "cpu_us_per_op is library CPU over completed ops");
  expect(value("throughput_ops") == 4.0 / 3.0 && value("max_rate_ops") == 4.0 / 3.0,
         "a closed loop's rate is ops over the segments' wall time");
  expect(value("gflops") == 4.0 / 3.0, "gflops is nominal flops over wall time");
  expect(value("latency_p50_us") == 2500.0, "latency_p50_us is the median of every op");
}

/// Deterministic clock: waiting jumps straight to the due time.
struct FakeClock {
  std::uint64_t t = 0;
  std::uint64_t now() const { return t; }
  void wait_until(std::uint64_t due) { t = std::max(t, due); }
};

void test_due_time_latency() {
  constexpr std::uint64_t kGap = 100'000, kService = 10'000, kStall = 5'000'000;
  std::vector<std::uint64_t> due;
  for (std::uint64_t i = 0; i < 100; ++i) due.push_back(i * kGap);
  FakeClock clock;
  std::vector<std::uint64_t> submitted(due.size()), done(due.size()), due_abs(due.size());
  std::uint64_t server_free = 0;
  auto submit = [&](std::size_t i, std::uint64_t d) {
    submitted[i] = clock.t;
    due_abs[i] = d;
    const std::uint64_t start = std::max(clock.t, server_free);
    done[i] = server_free = start + kService;
    if (i == 50) clock.t += kStall;  // the generator stalls inside submit
  };
  const std::vector<std::uint64_t> late =
      pace_open_loop(due, 0, clock, submit, [] { return false; });
  std::vector<double> from_due, from_send;
  bool behind_inflated = true;
  for (std::size_t i = 0; i < due.size(); ++i) {
    from_due.push_back(static_cast<double>(due_latency_ns(due_abs[i], done[i])));
    from_send.push_back(static_cast<double>(done[i] - submitted[i]));
    if (i > 50 && i * kGap < 50 * kGap + kStall)
      behind_inflated &= from_due[i] > from_send[i] + 0.5 * kGap;
  }
  expect(behind_inflated, "every request behind the stall is inflated");
  expect(from_due[51] >= kStall - kGap,
         "the first request behind the stall waits the stall out");
  expect(late[51] >= kStall - kGap, "generator lateness records the stall");
  expect(from_due[10] == kService, "requests before the stall see only service time");
  const Tail due_tail = tail_with_beyond(from_due, 10);
  const Tail send_tail = tail_with_beyond(from_send, 10);
  expect(due_tail.value > 1e6 && send_tail.value < 1e6,
         "the due-time tail misses a 1 ms limit; a send-time tail would pass it");
}

void test_corrupted_output_fails() {
  c64fft::fft::ExecutorOptions o;
  o.workers = 1;
  c64fft::fft::FftExecutor ex(o);
  const std::uint64_t n = 1024;
  const std::vector<cplx> x = random_signal<double>(n, 3);
  const double e = energy<double>(x);
  const double tol = tolerance<double>(n);

  std::vector<cplx> d = x;
  ex.forward(std::span(d));
  expect(parseval_error<double>(e, d) <= tol, "an intact forward passes Parseval");
  expect(bin_error<double>(x, e, d[7], 7) <= tol, "an intact bin matches the direct sum");
  ex.inverse(std::span(d));
  expect(round_trip_error_and_restore<double>(d, x) <= tol, "an intact round trip passes");

  Record rec;
  std::vector<cplx> bad = x;
  ex.forward(std::span(bad));
  bad[7] += cplx(1e-6 * std::sqrt(e), 0.0);  // a single wrong bin
  const bool bin_ok = bin_error<double>(x, e, bad[7], 7) <= tol;
  ex.inverse(std::span(bad));
  const bool rt_ok = round_trip_error_and_restore<double>(bad, x) <= tol;
  expect(!bin_ok && !rt_ok, "a corrupted output fails the bin and round-trip checks");
  const bool ok = bin_ok && rt_ok;
  rec.ops.record(ok);
  if (!ok) rec.check_failed("corrupted output");
  expect(rec.ops.attempted == 1 && rec.ops.failed == 1 && !rec.correct(),
         "the corrupted operation is counted as failed and the run as incorrect");
  expect(bad == x, "the failed buffer is restored, so nothing is retried on it");
}

void test_seeded_arrivals() {
  const auto a = poisson_due_times(50'000, 0.2, 9);
  const auto b = poisson_due_times(50'000, 0.2, 9);
  const auto c = poisson_due_times(50'000, 0.2, 10);
  expect(a == b && a != c, "arrivals repeat for a seed and differ across seeds");
  expect(a.size() > 9'000 && a.size() < 11'000, "arrival count matches the rate");
}

}  // namespace

int main() {
  test_tail_rule();
  test_cpu_clocks();
  test_end_to_end_figures();
  test_due_time_latency();
  test_corrupted_output_fails();
  test_seeded_arrivals();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED", g_failures);
  return g_failures ? 1 : 0;
}
