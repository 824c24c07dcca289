// large_transform: a closed loop with one caller on an FftExecutor with
// workers = nproc. One operation is a round: forward then inverse of each
// large shape below, one shape per large-N plan route. Each transform is
// checked (Parseval after the forward, round trip after the inverse), and
// two seeded output bins per round are checked against a direct O(N) sum.
// Only the library calls count towards a round's latency and CPU time.

#include <algorithm>
#include <memory>
#include <sstream>

#include "checks.hpp"
#include "fft/executor.hpp"
#include "host.hpp"
#include "stats.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using c64fft::fft::ExecutorOptions;
using c64fft::fft::FftExecutor;

struct Shape {
  std::uint64_t n;
  bool f32;
  const char* route;
};
constexpr Shape kShapes[] = {
    {std::uint64_t{1} << 16, false, "classic"},
    {std::uint64_t{1} << 18, false, "four-step"},
    {std::uint64_t{1} << 20, false, "hierarchical"},
    {1'000'000, false, "mixed-radix"},
    {std::uint64_t{1} << 22, true, "hierarchical"},
    {131'071, false, "bluestein"},
};
constexpr std::size_t kShapeCount = std::size(kShapes);
constexpr int kBinsPerRound = 2;
constexpr RouteDesign kDesign{true, true, true, true, true};

struct RoundResult {
  std::uint64_t lib_ns = 0;      ///< wall time inside the library calls
  std::uint64_t lib_cpu_ns = 0;  ///< CPU time (every thread) inside them
  double flops = 0.0;
  bool ok = true;
};

class LargeBench {
 public:
  explicit LargeBench(std::uint64_t seed) : seed_(seed), rng_(seed) {
    for (std::size_t i = 0; i < kShapeCount; ++i) {
      const Shape& s = kShapes[i];
      if (s.f32) {
        o32_[i] = random_signal<float>(s.n, seed * 7919 + i);
        d32_[i] = o32_[i];
        energy_[i] = energy<float>(o32_[i]);
      } else {
        o64_[i] = random_signal<double>(s.n, seed * 7919 + i);
        d64_[i] = o64_[i];
        energy_[i] = energy<double>(o64_[i]);
      }
    }
  }

  RoundResult round(FftExecutor& ex, Tracer* tr, std::uint64_t op, Record& rec) {
    RoundResult r;
    ScopedSpan op_span(tr, SpanName::kOp, SpanName::kNone, op);
    std::size_t bin_shape[kBinsPerRound];
    for (auto& b : bin_shape) b = rng_.next_below(kShapeCount);
    for (std::size_t i = 0; i < kShapeCount; ++i) {
      const Shape& s = kShapes[i];
      std::uint64_t t0 = now_ns(), c0 = process_cpu_ns();
      {
        ScopedSpan span(tr, SpanName::kExecForward, SpanName::kOp, op);
        if (s.f32)
          ex.forward(std::span(d32_[i]));
        else
          ex.forward(std::span(d64_[i]));
      }
      r.lib_ns += now_ns() - t0;
      r.lib_cpu_ns += process_cpu_ns() - c0;
      const double tol = s.f32 ? tolerance<float>(s.n) : tolerance<double>(s.n);
      const double perr = s.f32 ? parseval_error<float>(energy_[i], d32_[i])
                                : parseval_error<double>(energy_[i], d64_[i]);
      if (!(perr <= tol)) fail_check(rec, r, "Parseval", s, perr);
      for (int b = 0; b < kBinsPerRound; ++b) {
        if (bin_shape[b] != i) continue;
        const std::uint64_t k = rng_.next_below(s.n);
        const double berr =
            s.f32 ? bin_error<float>(o32_[i], energy_[i], d32_[i][k], k)
                  : bin_error<double>(o64_[i], energy_[i], d64_[i][k], k);
        if (!(berr <= tol)) fail_check(rec, r, "direct-sum bin", s, berr);
      }
      t0 = now_ns();
      c0 = process_cpu_ns();
      {
        ScopedSpan span(tr, SpanName::kExecInverse, SpanName::kOp, op);
        if (s.f32)
          ex.inverse(std::span(d32_[i]));
        else
          ex.inverse(std::span(d64_[i]));
      }
      r.lib_ns += now_ns() - t0;
      r.lib_cpu_ns += process_cpu_ns() - c0;
      const double rerr =
          s.f32 ? round_trip_error_and_restore<float>(d32_[i], o32_[i])
                : round_trip_error_and_restore<double>(d64_[i], o64_[i]);
      if (!(rerr <= tol)) fail_check(rec, r, "round trip", s, rerr);
      if (r.ok) r.flops += 2 * nominal_flops(s.n);
    }
    return r;
  }

  /// Executor plus the first round (plan builds, team spawn, first
  /// transform of every shape, checked).
  std::unique_ptr<FftExecutor> setup(unsigned workers, Record& rec) {
    ExecutorOptions o;
    o.workers = workers;
    auto ex = std::make_unique<FftExecutor>(o);
    round(*ex, nullptr, 0, rec);  // a failed check fails the run
    return ex;
  }

  struct Pass {
    PassSummary summary;
    c64fft::fft::ExecutorStats before, after;
  };
  Pass pass(FftExecutor& ex, double seconds, Tracer* tr, Record& rec) {
    // The checked bins of a pass depend on the seed and the pass alone.
    rng_ = c64fft::util::Xoshiro256(seed_ ^ (0xb1b5ull + ++passes_));
    Pass p;
    p.before = ex.stats();
    p.summary.t0_ns = now_ns();
    const std::uint64_t end = p.summary.t0_ns + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t op = 1;
    while (now_ns() < end) {
      const RoundResult r = round(ex, tr, op++, rec);
      rec.ops.record(r.ok);
      p.summary.cpu_ns += r.lib_cpu_ns;
      if (r.ok) p.summary.ops.push_back({static_cast<double>(r.lib_ns), r.flops});
    }
    p.summary.t1_ns = now_ns();
    p.after = ex.stats();
    return p;
  }

 private:
  void fail_check(Record& rec, RoundResult& r, const char* what, const Shape& s,
                  double err) {
    r.ok = false;
    std::ostringstream m;
    m << "large_transform: " << what << " check failed for n=" << s.n
      << (s.f32 ? " f32" : " f64") << " (" << s.route << ") err=" << err;
    rec.check_failed(m.str());
  }

  std::uint64_t seed_;
  std::uint64_t passes_ = 0;
  c64fft::util::Xoshiro256 rng_;
  std::vector<cplx> o64_[kShapeCount], d64_[kShapeCount];
  std::vector<cplx32> o32_[kShapeCount], d32_[kShapeCount];
  double energy_[kShapeCount] = {};
};

}  // namespace

void run_large_transform(const RunConfig& cfg, Record& rec) {
  LargeBench bench(cfg.seed);
  std::unique_ptr<FftExecutor> ex = bench.setup(cfg.cpus, rec);
  if (!report_setup(cfg, rec)) return;

  if (!cfg.trace) {
    const LargeBench::Pass p = bench.pass(*ex, cfg.seconds, nullptr, rec);
    check_steady_state(rec, "large_transform", p.before, p.after, kDesign);
    report_end_to_end(rec, std::span(&p.summary, 1), /*closed_loop=*/true);
    return;
  }
  const double half = std::max(0.5, cfg.seconds / 2);
  const LargeBench::Pass plain = bench.pass(*ex, half, nullptr, rec);
  check_steady_state(rec, "large_transform", plain.before, plain.after, kDesign);
  Tracer tr(kSpanCapacity);
  const LargeBench::Pass traced = bench.pass(*ex, half, &tr, rec);
  check_steady_state(rec, "large_transform traced pass", traced.before,
                     traced.after, kDesign);
  report_executor_layer(rec, traced.before, traced.after);
  report_trace_overhead(rec, plain.summary, traced.summary);
  write_spans(rec, tr, cfg, "large_transform");
  ex.reset();  // release the large working set before the probes run
}

}  // namespace perfbench
