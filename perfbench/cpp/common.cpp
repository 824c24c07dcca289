#include <cmath>
#include <sstream>

#include "host.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

RouteCounts route_counts(const c64fft::fft::ExecutorStats& s) {
  RouteCounts r;
  r.four_step = s.four_step;
  r.hierarchical = s.hierarchical;
  r.mixed_radix = s.mixed_radix;
  r.bluestein = s.bluestein;
  r.classic = s.transforms + s.batched - s.four_step - s.hierarchical -
              s.mixed_radix - s.bluestein;
  return r;
}

RouteCounts operator-(const RouteCounts& a, const RouteCounts& b) {
  return {a.classic - b.classic, a.four_step - b.four_step,
          a.hierarchical - b.hierarchical, a.mixed_radix - b.mixed_radix,
          a.bluestein - b.bluestein};
}

void check_steady_state(Record& rec, const char* pass,
                        const c64fft::fft::ExecutorStats& before,
                        const c64fft::fft::ExecutorStats& after,
                        const RouteDesign& design) {
  const std::string where = std::string(pass) + ": ";
  if (after.teams_created != before.teams_created)
    rec.fail(where + "executor created " +
             std::to_string(after.teams_created - before.teams_created) +
             " worker team(s) after set-up");
  if (after.cache.misses != before.cache.misses)
    rec.fail(where + "plan cache missed " +
             std::to_string(after.cache.misses - before.cache.misses) +
             " time(s) after set-up");
  const RouteCounts d = route_counts(after) - route_counts(before);
  const struct {
    const char* name;
    std::uint64_t hits;
    bool designed;
  } routes[] = {{"classic", d.classic, design.classic},
                {"four-step", d.four_step, design.four_step},
                {"hierarchical", d.hierarchical, design.hierarchical},
                {"mixed-radix", d.mixed_radix, design.mixed_radix},
                {"bluestein", d.bluestein, design.bluestein}};
  for (const auto& r : routes) {
    if (r.designed && r.hits == 0)
      rec.fail(where + "designed route " + r.name + " was never hit");
    if (!r.designed && r.hits != 0)
      rec.fail(where + "route " + r.name + " hit " + std::to_string(r.hits) +
               " time(s) but is not part of this workload");
  }
}

void report_executor_layer(Record& rec, const c64fft::fft::ExecutorStats& before,
                           const c64fft::fft::ExecutorStats& after) {
  const RouteCounts d = route_counts(after) - route_counts(before);
  rec.metric("executor.route.classic", static_cast<double>(d.classic), "count");
  rec.metric("executor.route.four-step", static_cast<double>(d.four_step), "count");
  rec.metric("executor.route.hierarchical", static_cast<double>(d.hierarchical),
             "count");
  rec.metric("executor.route.mixed-radix", static_cast<double>(d.mixed_radix),
             "count");
  rec.metric("executor.route.bluestein", static_cast<double>(d.bluestein), "count");
  rec.metric("executor.teams_created",
             static_cast<double>(after.teams_created - before.teams_created),
             "count");
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  rec.metric("plan_cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
             "ratio");
  rec.metric("plan_cache.misses", misses, "count");
  rec.metric("plan_cache.evictions",
             static_cast<double>(after.cache.evictions - before.cache.evictions),
             "count");
}

double nominal_flops(std::uint64_t n) {
  const double dn = static_cast<double>(n);
  return 5.0 * dn * std::log2(dn);
}

bool report_setup(const RunConfig& cfg, Record& rec) {
  if (!cfg.trace) {
    rec.metric("setup_s", static_cast<double>(process_cpu_ns()) / 1e9, "s");
    rec.note("setup_wall_s", static_cast<double>(now_ns() - cfg.process_start_ns) / 1e9);
  }
  return !cfg.setup_only;
}

void report_end_to_end(Record& rec, std::span<const PassSummary> segments,
                       bool closed_loop) {
  std::vector<double> lat;
  double ops = 0.0, flops = 0.0, wall_ns = 0.0, cpu_ns = 0.0;
  for (const PassSummary& seg : segments) {
    const std::vector<double> sl = seg.latencies();
    lat.insert(lat.end(), sl.begin(), sl.end());
    for (const OpSample& o : seg.ops) flops += o.flops;
    ops += static_cast<double>(seg.ops.size());
    wall_ns += static_cast<double>(seg.t1_ns - seg.t0_ns);
    cpu_ns += static_cast<double>(seg.cpu_ns);
  }
  if (ops == 0) {
    rec.fail("no operation completed");
    return;
  }
  rec.metric("cpu_us_per_op", cpu_ns / ops / 1e3, "us");
  rec.metric("rss_mb", peak_rss_mib(), "MiB");

  // Wall-clock figures, printed but not in BENCHMARK.json (see
  // workloads.hpp).
  const double rate = ops * 1e9 / wall_ns;
  rec.metric("throughput_ops", rate, "1/s");
  if (closed_loop) rec.metric("max_rate_ops", rate, "1/s");
  rec.metric("gflops", flops / wall_ns, "GFLOPS");
  rec.metric("latency_p50_us", percentile(lat, 50) / 1e3, "us");
  const Tail tail = tail_with_beyond(lat);
  if (!tail.valid) rec.fail("fewer than 11 latency samples: no tail percentile");
  rec.metric("latency_tail_us", tail.value / 1e3, "us");
  rec.note("latency_tail_percentile", tail.percentile);
  rec.note("latency_samples", static_cast<double>(lat.size()));
}

void report_trace_overhead(Record& rec, const PassSummary& plain,
                           const PassSummary& traced) {
  const double base = percentile(plain.latencies(), 50);
  rec.metric("trace.overhead_frac",
             base > 0 ? percentile(traced.latencies(), 50) / base - 1.0 : 0.0, "ratio");
}

void write_spans(Record& rec, const Tracer& tr, const RunConfig& cfg,
                 const std::string& name) {
  std::ostringstream path;
  path << cfg.out_dir << "/" << name << "-seed" << cfg.seed << ".spans.tsv";
  if (!tr.write_tsv(path.str())) rec.fail("could not write " + path.str());
  rec.note("spans_stored", static_cast<double>(tr.stored()));
  rec.note("spans_dropped", static_cast<double>(tr.dropped()));
}

}  // namespace perfbench
