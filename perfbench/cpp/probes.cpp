// Layer probes of the traced run: each times one layer's public entry
// point in isolation, plus the host roofline the large-transform numbers
// are read against. Bytes are computed from array sizes (compulsory
// traffic: every element read once and written once), not measured.

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "codelet/host_runtime.hpp"
#include "fft/bit_reversal.hpp"
#include "fft/executor.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/mixed_radix.hpp"
#include "fft/plan_cache.hpp"
#include "fft/transpose.hpp"
#include "fft/twiddle.hpp"
#include "host.hpp"
#include "stats.hpp"
#include "util/cpu_features.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fft = c64fft::fft;
namespace codelet = c64fft::codelet;

/// Median wall time (ns) of `f()`: at least `min_reps` calls, then more
/// while the budget lasts (at most `max_reps`). `between()` runs untimed
/// after each call.
template <typename F, typename G>
double median_ns(F&& f, G&& between, int min_reps, double budget_s, int max_reps) {
  std::vector<double> t;
  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(budget_s * 1e9);
  for (int r = 0; r < max_reps; ++r) {
    if (r >= min_reps && now_ns() - start > budget) break;
    const std::uint64_t a = now_ns();
    f();
    t.push_back(static_cast<double>(now_ns() - a));
    between();
  }
  return percentile(t, 50);
}
template <typename F>
double median_ns(F&& f, int min_reps, double budget_s, int max_reps) {
  return median_ns(f, [] {}, min_reps, budget_s, max_reps);
}

/// Run fn(thread_index) on `threads` threads at once and join them.
template <typename F>
void on_threads(unsigned threads, F&& fn) {
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < threads; ++i) ts.emplace_back([&fn, i] { fn(i); });
  for (std::thread& t : ts) t.join();
}

struct Roof {
  double copy_gbs = 0.0;
  double peak_gflops = 0.0;
};

Roof host_probe(unsigned cpus, Record& rec) {
  Roof roof;
  // The copy's working set (source + destination) is at least four times
  // the last-level cache util::cache_info() reports.
  const std::uint64_t llc = c64fft::util::cache_info().l3_bytes;
  const std::size_t half_bytes =
      std::max<std::uint64_t>(2 * llc, std::uint64_t{64} << 20);
  const std::size_t count = half_bytes / sizeof(double);
  std::unique_ptr<double[]> src(new double[count]);
  std::unique_ptr<double[]> dst(new double[count]);
  const std::size_t slice = (count + cpus - 1) / cpus;
  auto part = [&](unsigned i, std::size_t& b, std::size_t& e) {
    b = std::min(count, std::size_t{i} * slice);
    e = std::min(count, b + slice);
  };
  on_threads(cpus, [&](unsigned i) {  // first touch by the copying thread
    std::size_t b, e;
    part(i, b, e);
    for (std::size_t k = b; k < e; ++k) src[k] = static_cast<double>(k);
    std::memset(dst.get() + b, 0, (e - b) * sizeof(double));
  });
  const double ns = median_ns(
      [&] {
        on_threads(cpus, [&](unsigned i) {
          std::size_t b, e;
          part(i, b, e);
          std::memcpy(dst.get() + b, src.get() + b, (e - b) * sizeof(double));
        });
      },
      3, 0.0, 3);
  roof.copy_gbs = 2.0 * static_cast<double>(count * sizeof(double)) / ns;
  rec.note("host.llc_bytes", static_cast<double>(llc));
  rec.note("host.copy_working_set_bytes", 2.0 * static_cast<double>(count * sizeof(double)));

  std::vector<double> per_thread(cpus, 0.0);
  on_threads(cpus, [&](unsigned i) { per_thread[i] = fma_peak_gflops_one_thread(0.2); });
  for (double g : per_thread) roof.peak_gflops += g;
  rec.metric("host.copy_gbs", roof.copy_gbs, "GB/s");
  rec.metric("host.peak_gflops", roof.peak_gflops, "GFLOPS");
  return roof;
}

template <typename T>
double chain_gflops() {
  constexpr std::uint64_t n = 1024;
  constexpr unsigned log2n = 10;
  const fft::BasicTwiddleTable<T> tw(n, fft::TwiddleLayout::kLinear);
  const std::vector<cplx_t<T>> sig = random_signal<T>(n, 11);
  std::vector<T> re(n), im(n), tw_re(n / 2), tw_im(n / 2);
  auto reset = [&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      re[i] = sig[i].real();
      im[i] = sig[i].imag();
    }
  };
  reset();
  const auto& K = fft::kernels::active_kernels<T>();
  constexpr int kCalls = 8;  // 8 unscaled passes stay far from overflow
  const double ns = median_ns(
      [&] {
        for (int c = 0; c < kCalls; ++c)
          K.chain_split(re.data(), im.data(), n, 0, 1, 0, log2n, log2n, tw,
                        tw_re.data(), tw_im.data(), fft::kernels::kDefaultFuseLog2);
      },
      reset, 50, 0.15, 5000);
  return kCalls * nominal_flops(n) / ns;
}

void kernel_probes(Record& rec) {
  rec.metric("kernels.chain_gflops.f32", chain_gflops<float>(), "GFLOPS");
  rec.metric("kernels.chain_gflops.f64", chain_gflops<double>(), "GFLOPS");

  constexpr std::uint64_t side = 1024;
  std::vector<cplx> a = random_signal<double>(side * side, 12), b(side * side);
  const double tns = median_ns([&] { fft::transpose_blocked(a, b, side, side); }, 5,
                               0.2, 50);
  rec.metric("transpose.blocked_gbs",
             2.0 * static_cast<double>(side * side * sizeof(cplx)) / tns, "GB/s");

  std::vector<cplx> br = random_signal<double>(std::uint64_t{1} << 20, 13);
  rec.metric("bitrev.permute_ms.n1048576",
             median_ns([&] { fft::bit_reverse_permute(br); }, 5, 0.2, 50) / 1e6, "ms");

  const fft::MixedRadixPlan plan(1'000'000);
  const std::vector<cplx> tw =
      fft::mixed_radix_twiddles<double>(plan, fft::TwiddleDirection::kForward);
  std::vector<cplx> data = random_signal<double>(1'000'000, 14), scratch;
  rec.metric("mixed_radix.serial_ms.n1000000",
             median_ns([&] {
               fft::mixed_radix_serial<double>(plan, tw, data, scratch,
                                               fft::TwiddleDirection::kForward);
             }, 3, 0.3, 7) / 1e6,
             "ms");
}

void plan_cache_probes(Record& rec) {
  using fft::PlanKind;
  using fft::PlanKey;
  const fft::Factorization f = fft::factorize(1'000'000);
  const struct {
    const char* name;
    PlanKey key;
  } keys[] = {
      {"classic", {65536, 6, fft::TwiddleLayout::kLinear, PlanKind::kClassic}},
      {"four-step", {262144, 6, fft::TwiddleLayout::kLinear, PlanKind::kFourStep}},
      {"hierarchical",
       {std::uint64_t{1} << 20, 6, fft::TwiddleLayout::kLinear, PlanKind::kHierarchical}},
      {"mixed-radix",
       {1'000'000, 1, fft::TwiddleLayout::kLinear, PlanKind::kMixedRadix,
        fft::Precision::kF64, 0, fft::factorization_digest(f)}},
      {"bluestein", {131071, 1, fft::TwiddleLayout::kLinear, PlanKind::kBluestein}},
  };
  for (const auto& k : keys) {
    std::vector<double> t;
    for (int r = 0; r < 3; ++r) {
      fft::PlanCache cache(16);
      const std::uint64_t a = now_ns();
      const auto entry = cache.acquire(k.key);
      t.push_back(static_cast<double>(now_ns() - a));
    }
    rec.metric(std::string("plan_cache.build_us.") + k.name, percentile(t, 50) / 1e3, "us");
  }
}

void runtime_probes(unsigned cpus, Record& rec) {
  for (unsigned w : {1u, 2u, 4u}) {
    codelet::HostRuntime rt(w);
    std::vector<codelet::CodeletKey> seeds;
    for (unsigned i = 0; i < w; ++i) seeds.push_back({0, i});
    const codelet::CodeletBody noop = [](codelet::CodeletKey, unsigned, codelet::Pusher&) {};
    for (int i = 0; i < 50; ++i) rt.run_phase(seeds, codelet::PoolPolicy::kLifo, noop);
    rec.metric("runtime.phase_us.w" + std::to_string(w),
               median_ns([&] { rt.run_phase(seeds, codelet::PoolPolicy::kLifo, noop); },
                         200, 0.1, 2000) / 1e3,
               "us");
  }
  // Balance of equal-sized codelets on the nproc team.
  codelet::HostRuntime rt(cpus);
  std::vector<codelet::CodeletKey> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i) seeds.push_back({0, i});
  std::vector<double> sink(cpus, 0.0);
  const codelet::CodeletBody work = [&](codelet::CodeletKey k, unsigned w,
                                        codelet::Pusher&) {
    double acc = 0.0;
    for (int j = 0; j < 256; ++j) acc += static_cast<double>((k.index + j) % 7);
    sink[w] += acc;
  };
  for (int i = 0; i < 20; ++i) rt.run_phase(seeds, codelet::PoolPolicy::kLifo, work);
  rec.metric("runtime.balance_ratio", rt.balance_ratio(), "max/mean");
}

constexpr std::uint64_t kExecSizes[] = {4096,   3000,    4099,      65536,
                                        262144, 1048576, 1'000'000, 131071};

/// executor.forward_us.n<N> (workers = nproc) and executor.forward_w1_us
/// (workers = 1): median warm forward of each size on a fresh executor.
void executor_probes(unsigned cpus, const Roof& roof, Record& rec) {
  std::vector<double> wn(std::size(kExecSizes)), w1(std::size(kExecSizes));
  for (unsigned w : {cpus, 1u}) {
    fft::ExecutorOptions o;
    o.workers = w;
    fft::FftExecutor ex(o);
    for (std::size_t i = 0; i < std::size(kExecSizes); ++i) {
      std::vector<cplx> d = random_signal<double>(kExecSizes[i], 15 + i);
      ex.forward(std::span(d));
      ex.inverse(std::span(d));
      const double ns = median_ns([&] { ex.forward(std::span(d)); },
                                  [&] { ex.inverse(std::span(d)); }, 5, 0.25, 200);
      (w == 1 ? w1 : wn)[i] = ns / 1e3;
      if (w == 1 && w == cpus) wn[i] = ns / 1e3;
    }
  }
  for (std::size_t i = 0; i < std::size(kExecSizes); ++i) {
    const std::string n = std::to_string(kExecSizes[i]);
    rec.metric("executor.forward_us.n" + n, wn[i], "us");
    rec.metric("executor.forward_w1_us.n" + n, w1[i], "us");
  }
  auto at = [&](std::uint64_t n) {
    return static_cast<std::size_t>(
        std::find(std::begin(kExecSizes), std::end(kExecSizes), n) - std::begin(kExecSizes));
  };
  for (std::uint64_t n : {std::uint64_t{4096}, std::uint64_t{1} << 20})
    rec.metric("runtime.parallel_speedup.n" + std::to_string(n), w1[at(n)] / wn[at(n)],
               "ratio");
  // Roofline: the faster of compute at peak and compulsory traffic at the
  // measured copy bandwidth, over the measured time.
  for (std::uint64_t n : {std::uint64_t{65536}, std::uint64_t{262144},
                          std::uint64_t{1} << 20, std::uint64_t{1'000'000}}) {
    const double t_ns = wn[at(n)] * 1e3;
    const double compute_ns =
        roof.peak_gflops > 0 ? nominal_flops(n) / roof.peak_gflops : 0.0;
    const double memory_ns = 2.0 * static_cast<double>(n * sizeof(cplx)) / roof.copy_gbs;
    rec.metric("roofline.fraction.n" + std::to_string(n),
               std::max(compute_ns, memory_ns) / t_ns, "ratio");
  }
}

}  // namespace

void run_layer_probes(const RunConfig& cfg, Record& rec) {
  const Roof roof = host_probe(cfg.cpus, rec);
  kernel_probes(rec);
  plan_cache_probes(rec);
  runtime_probes(cfg.cpus, rec);
  executor_probes(cfg.cpus, roof, rec);
  const double one = shared_mix_throughput(1, 0.5, cfg.seed, rec);
  const double all = shared_mix_throughput(cfg.cpus, 0.5, cfg.seed, rec);
  rec.metric("executor.caller_scaling", one > 0 ? all / one : 0.0, "ratio");
}

}  // namespace perfbench
