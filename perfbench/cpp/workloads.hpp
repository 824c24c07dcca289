#pragma once
// The two workloads and the layer probes, plus the reporting helpers
// they share. Each workload sets itself up once (setup_s is the CPU time
// from process start to the end of that set-up), then measures for the
// configured seconds. A traced run measures half the time untraced and half traced,
// so the difference is the tracing overhead, and then runs the layer
// probes.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fft/executor.hpp"
#include "record.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned cpus = 1;
  std::string out_dir;  ///< where the traced run writes its spans
  /// Stop once the workload is warm (setup_s is reported, nothing else).
  bool setup_only = false;
  /// Taken during static initialization, before main(): the set-up's wall
  /// time counts from here.
  std::uint64_t process_start_ns = 0;
};

/// Called by each workload right after its set-up: reports setup_s, the
/// CPU seconds (every thread) the process spent from its start to the
/// warmed state (inputs made, executor or server built, team spawned,
/// every shape transformed and checked once), and the wall seconds of the
/// same stretch as a note. Returns false when the run is set-up only and
/// should stop.
bool report_setup(const RunConfig& cfg, Record& rec);

/// Span buffer of a traced pass.
inline constexpr std::size_t kSpanCapacity = std::size_t{1} << 21;

void run_serve_open(const RunConfig& cfg, Record& rec);
void run_large_transform(const RunConfig& cfg, Record& rec);

/// Short serve_open pass for traced runs of workloads that do not call
/// the serving layer, so serve.* and loadgen.* exist in every traced run.
void run_serve_probe(const RunConfig& cfg, Record& rec);

/// Executor, plan-cache, runtime, kernel and host probes (traced runs).
void run_layer_probes(const RunConfig& cfg, Record& rec);

/// Operations per second of the shared-executor mix with `callers`
/// threads on the default executor (for executor.caller_scaling); a failed
/// check fails the run.
double shared_mix_throughput(unsigned callers, double seconds, std::uint64_t seed,
                             Record& rec);

/// Top-level transforms per plan route, from executor counters.
struct RouteCounts {
  std::uint64_t classic = 0, four_step = 0, hierarchical = 0, mixed_radix = 0,
                bluestein = 0;
};
RouteCounts route_counts(const c64fft::fft::ExecutorStats& s);
RouteCounts operator-(const RouteCounts& a, const RouteCounts& b);

/// The designed routes of a workload: each route is either required
/// (must be hit) or forbidden (must not be hit).
struct RouteDesign {
  bool classic, four_step, hierarchical, mixed_radix, bluestein;
};

/// Invariants that hold after set-up: no team is created, no plan is
/// built, and exactly the designed routes are hit. Violations fail the
/// run.
void check_steady_state(Record& rec, const char* pass,
                        const c64fft::fft::ExecutorStats& before,
                        const c64fft::fft::ExecutorStats& after,
                        const RouteDesign& design);

/// Per-layer executor and plan-cache numbers of one traced pass.
void report_executor_layer(Record& rec, const c64fft::fft::ExecutorStats& before,
                           const c64fft::fft::ExecutorStats& after);

/// End-to-end metrics from the measured pass (or its segments). Two kinds:
///  - gated in BENCHMARK.json: cpu_us_per_op (the library's CPU time per
///    operation, every thread) and rss_mb. A shared virtual host moves wall
///    time of the same code by up to 2x between runs (CPU steal, slow
///    wake-ups of idle vCPUs); the CPU clocks exclude that time.
///  - printed by name, ungated: throughput_ops and gflops (over wall time),
///    latency_p50_us and latency_tail_us (every operation of the run; the
///    tail is the highest percentile with ten samples beyond, its
///    percentile and the sample count kept as notes). A closed loop offers
///    exactly the load it sustains, so its max_rate_ops is its throughput;
///    the open loop measures max_rate_ops with its own rate ladder.
void report_end_to_end(Record& rec, std::span<const PassSummary> segments,
                       bool closed_loop);

/// Nominal flop count of one N-point complex transform: 5 N log2 N.
double nominal_flops(std::uint64_t n);

/// trace.overhead_frac: median latency of the traced half over that of
/// the untraced half, minus 1.
void report_trace_overhead(Record& rec, const PassSummary& plain,
                           const PassSummary& traced);

/// Write the traced pass's spans to <out_dir>/<name>-seed<seed>.spans.tsv.
void write_spans(Record& rec, const Tracer& tr, const RunConfig& cfg,
                 const std::string& name);

}  // namespace perfbench
