// The shared-executor mix behind executor.caller_scaling: caller threads
// sharing fft::default_executor() at its default options through
// fft::forward and fft::inverse. Each caller cycles a fixed list of medium
// sizes; one operation is the forward and inverse of one buffer, with
// Parseval and round-trip checks. It is a probe of the traced run, not a
// workload: with nproc callers on the default nproc-worker team its wall
// time follows the host's CPU steal, not the program.

#include <atomic>
#include <thread>

#include "checks.hpp"
#include "fft/api.hpp"
#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Shape {
  std::uint64_t n;
  bool f32;
};
constexpr Shape kShapes[] = {{4096, false}, {4096, true}, {3000, false}, {4099, false}};
constexpr std::size_t kShapeCount = std::size(kShapes);

/// One caller's buffers: a private copy of every shape.
struct Caller {
  std::vector<cplx> o64[kShapeCount], d64[kShapeCount];
  std::vector<cplx32> o32[kShapeCount], d32[kShapeCount];
  double energy[kShapeCount] = {};
  std::uint64_t completed = 0, failed = 0;

  Caller(std::uint64_t seed, unsigned id) {
    for (std::size_t i = 0; i < kShapeCount; ++i) {
      const std::uint64_t s = seed * 104729 + id * 131 + i;
      if (kShapes[i].f32) {
        o32[i] = random_signal<float>(kShapes[i].n, s);
        d32[i] = o32[i];
        energy[i] = perfbench::energy<float>(o32[i]);
      } else {
        o64[i] = random_signal<double>(kShapes[i].n, s);
        d64[i] = o64[i];
        energy[i] = perfbench::energy<double>(o64[i]);
      }
    }
  }

  /// Forward + inverse of shape i; returns whether both checks passed.
  bool op(std::size_t i) {
    const Shape& s = kShapes[i];
    double perr, rerr;
    if (s.f32) {
      c64fft::fft::forward(std::span(d32[i]));
      perr = parseval_error<float>(energy[i], d32[i]);
      c64fft::fft::inverse(std::span(d32[i]));
      rerr = round_trip_error_and_restore<float>(d32[i], o32[i]);
    } else {
      c64fft::fft::forward(std::span(d64[i]));
      perr = parseval_error<double>(energy[i], d64[i]);
      c64fft::fft::inverse(std::span(d64[i]));
      rerr = round_trip_error_and_restore<double>(d64[i], o64[i]);
    }
    const double tol = s.f32 ? tolerance<float>(s.n) : tolerance<double>(s.n);
    return perr <= tol && rerr <= tol;
  }
};

}  // namespace

double shared_mix_throughput(unsigned callers, double seconds, std::uint64_t seed,
                             Record& rec) {
  std::vector<Caller> cs;
  for (unsigned c = 0; c < callers; ++c) cs.emplace_back(seed, c);
  for (std::size_t i = 0; i < kShapeCount; ++i) cs[0].op(i);  // warm every shape
  // Every caller starts its cycle at its own offset so different shapes
  // are in flight at once.
  std::atomic<bool> go{false};
  const std::uint64_t dur = static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Caller& me = cs[c];
      const std::uint64_t begin = now_ns();
      for (std::size_t i = c % kShapeCount; now_ns() - begin < dur;
           i = (i + 1) % kShapeCount) {
        if (me.op(i))
          ++me.completed;
        else
          ++me.failed;
      }
    });
  }
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  std::uint64_t completed = 0, failed = 0;
  for (const Caller& c : cs) {
    completed += c.completed;
    failed += c.failed;
  }
  if (failed != 0)
    rec.fail("executor.caller_scaling probe: " + std::to_string(failed) +
             " operation(s) failed their checks");
  return static_cast<double>(completed) / wall_s;
}

}  // namespace perfbench
