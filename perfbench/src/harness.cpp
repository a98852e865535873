#include "harness.hpp"

#include "exec/metrics.hpp"
#include "trace_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

namespace {

namespace obs = stsense::obs;

/// Registry counters read around every traced repetition.
const char* const kCounters[] = {
    "spice.newton.refactor",   "spice.newton.reuse",
    "spice.eval.bypass_hits",  "spice.eval.batch_lanes",
    "ring.transient.early_exit_cycles",
};

/// The end-to-end metrics (untraced run) and the per-layer metrics
/// (traced run), name and unit. Every run prints every metric of its
/// mode; a layer the workload leaves idle reads 0.
struct MetricDef {
    const char* name;
    const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"throughput", "op/s"},
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"spice.points_per_rep", "count"},
    {"spice.newton_iters_per_point", "count"},
    {"spice.lu_factors_per_point", "count"},
    {"spice.lu_reuse_ratio", "ratio"},
    {"spice.bypass_ratio", "ratio"},
    {"spice.refactor_self_ms", "ms"},
    {"spice.reuse_self_ms", "ms"},
    {"spice.point_ms_p50", "ms"},
    {"ring.early_exit_cycles_per_point", "count"},
    {"ring.analytic_period_us", "us"},
    {"exec.pool_busy_fraction", "ratio"},
    {"exec.tasks_per_op", "count"},
    {"exec.task_ms_p50", "ms"},
    {"exec.steal_ratio", "ratio"},
    {"population.die_eval_us", "us"},
    {"population.fold_share", "ratio"},
    {"phys.variation_at_us", "us"},
    {"service.compute_ms_p50", "ms"},
    {"service.render_ms_p50", "ms"},
    {"service.wait_ms_p50", "ms"},
    {"service.json_parse_us", "us"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.light_rt_us_p50", "us"},
    {"service.light_rt_us_p99", "us"},
    {"sensor.scan_ms_p50", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.dropped_events", "count"},
};

/// Repetitions below this count extend the run past --seconds.
constexpr std::size_t kMinTimedReps = 3;
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::map<std::string, double> read_counters() {
    auto& reg = stsense::exec::MetricsRegistry::global();
    std::map<std::string, double> out;
    for (const char* name : kCounters) {
        out[name] = static_cast<double>(reg.counter(name).value());
    }
    return out;
}

/// The layer values every workload shares: spice/ring counters per
/// simulated point, span timings and pool counters.
void generic_layers(const TracedRep& rep, const SpanStats& spans,
                    LayerValues& out) {
    const auto& c = rep.counters;
    // A SPICE point is one solo transient or one lane of a lock-step
    // transient (ring.sweep.point only copies the precomputed result in
    // lock-step mode, so point time comes from the transient spans).
    const double solo = static_cast<double>(spans.count("spice.transient"));
    const double lockstep_points = spans.num_total("spice.transient.lockstep");
    const double points = solo + lockstep_points;
    const double refactor = c.at("spice.newton.refactor");
    const double reuse = c.at("spice.newton.reuse");
    out["spice.points_per_rep"] = points;
    out["spice.newton_iters_per_point"] = ratio(refactor + reuse, points);
    out["spice.lu_factors_per_point"] = ratio(refactor, points);
    out["spice.lu_reuse_ratio"] = ratio(reuse, refactor + reuse);
    out["spice.bypass_ratio"] =
        ratio(c.at("spice.eval.bypass_hits"), c.at("spice.eval.batch_lanes"));
    out["spice.refactor_self_ms"] =
        ratio(spans.self_ms_total("spice.newton.refactor"), points);
    out["spice.reuse_self_ms"] = ratio(spans.self_ms_total("spice.newton.reuse"), points);
    std::vector<double> point_ms = spans.durations_ms("spice.transient");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& e = spans.event(i).ev;
        if (std::strcmp(e.name, "spice.transient.lockstep") == 0 && e.num > 0.0) {
            point_ms.push_back(1e-6 * static_cast<double>(e.dur_ns) / e.num);
        }
    }
    out["spice.point_ms_p50"] = median(point_ms);
    out["ring.early_exit_cycles_per_point"] =
        ratio(c.at("ring.transient.early_exit_cycles"), points);
    out["exec.tasks_per_op"] =
        ratio(rep.tasks_executed, static_cast<double>(rep.result.ops));
    out["exec.task_ms_p50"] = median(spans.durations_ms("exec.pool.task"));
    out["exec.steal_ratio"] = ratio(rep.tasks_stolen, rep.tasks_executed);
    out["sensor.scan_ms_p50"] = median(spans.durations_ms("service.session.scan"));
}

std::string format_number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) os << ", ";
        os << '"' << metrics[i].first.name << "\": {\"value\": "
           << format_number(metrics[i].second) << ", \"unit\": \""
           << metrics[i].first.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

std::unique_ptr<Workload> make_workload(const RunOptions& opt) {
    if (opt.workload == "paper_sweeps_spice") return make_paper_sweeps_spice(opt);
    if (opt.workload == "population_analytic") return make_population_analytic(opt);
    if (opt.workload == "population_spice") return make_population_spice(opt);
    if (opt.workload == "service_mix") return make_service_mix(opt);
    return nullptr;
}

/// CPU time of the whole process [s].
double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of the process so far [MiB].
double peak_rss_mib() {
    // VmHWM, not getrusage: ru_maxrss survives execve, so a process
    // spawned by a larger parent would report the parent's peak.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
        }
    }
    return 0.0;
}

} // namespace

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

void Checks::expect(bool ok, const std::string& what) {
    if (!ok) {
        ++failed_;
        std::cerr << "CHECK FAILED: " << what << "\n";
    }
}

int run(const RunOptions& opt, Clock::time_point process_start) {
    std::unique_ptr<Workload> w = make_workload(opt);
    if (!w) {
        std::cerr << "unknown workload: " << opt.workload << "\n";
        return 2;
    }
    RepResult warm = w->run_rep(0, RepKind::Timed); // warm-up, part of set-up
    const double setup_s = seconds_since(process_start);
    w->digest(warm);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const auto t_timed = Clock::now();
    std::size_t rep = 1;

    std::vector<std::pair<MetricDef, double>> metrics;
    if (!opt.trace) {
        std::vector<double> throughput;
        std::map<int, std::vector<double>> steps;
        while (throughput.size() < kMinTimedReps || seconds_since(t_timed) < opt.seconds) {
            const auto t0 = Clock::now();
            RepResult r = w->run_rep(rep++, RepKind::Timed);
            const double wall = seconds_since(t0);
            w->digest(r);
            attempted += r.ops;
            failed += r.failed;
            throughput.push_back(static_cast<double>(r.ops - r.failed) / wall);
            for (const auto& [cls, v] : r.step_ms) steps[cls].insert(steps[cls].end(), v.begin(), v.end());
        }
        const double rss = peak_rss_mib();
        Checks checks;
        w->check(checks);
        // Median over step classes of each class's median step: classes
        // differ in cost, and a plain median of the pooled steps would
        // jump between them from run to run.
        std::vector<double> class_medians;
        for (const auto& [cls, v] : steps) class_medians.push_back(median(v));
        metrics = {{kEndToEnd[0], median(throughput)},
                   {kEndToEnd[1], median(class_medians)},
                   {kEndToEnd[2], setup_s},
                   {kEndToEnd[3], rss}};
        print_result(checks.all_passed() && attempted > 0, attempted, failed, metrics);
        return checks.all_passed() ? 0 : 1;
    }

    // Traced run: untraced and traced repetitions alternate, so the
    // tracing overhead is measured under the same machine conditions.
    auto& tracer = obs::Tracer::global();
    tracer.set_capacity_per_thread(w->trace_capacity());
    std::map<std::string, std::vector<double>> layer_samples;
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    std::vector<double> busy;
    double dropped = 0.0;
    while (traced_wall.empty() || seconds_since(t_timed) < opt.seconds) {
        {
            const double cpu0 = process_cpu_s();
            const auto t0 = Clock::now();
            RepResult r = w->run_rep(rep++, RepKind::TraceBaseline);
            const double wall = seconds_since(t0);
            w->digest(r);
            busy.push_back((process_cpu_s() - cpu0) / (wall * opt.threads));
            untraced_wall.push_back(wall);
            attempted += r.ops;
            failed += r.failed;
        }
        TracedRep tr;
        const auto c0 = read_counters();
        const double exec0 = static_cast<double>(w->pool().tasks_executed());
        const double stolen0 = static_cast<double>(w->pool().tasks_stolen());
        tracer.enable();
        const auto t0 = Clock::now();
        tr.result = w->run_rep(rep++, RepKind::Traced);
        tr.wall_s = seconds_since(t0);
        tracer.disable();
        w->digest(tr.result);
        tr.events = tracer.merged();
        dropped += static_cast<double>(tracer.dropped());
        tracer.reset(); // release the span buffers before the analysis
        for (const auto& [name, v] : read_counters()) tr.counters[name] = v - c0.at(name);
        tr.tasks_executed = static_cast<double>(w->pool().tasks_executed()) - exec0;
        tr.tasks_stolen = static_cast<double>(w->pool().tasks_stolen()) - stolen0;
        attempted += tr.result.ops;
        failed += tr.result.failed;
        traced_wall.push_back(tr.wall_s);

        LayerValues values;
        {
            const SpanStats spans(tr.events);
            generic_layers(tr, spans, values);
            w->layers(tr, spans, values);
        }
        for (const auto& [name, v] : values) layer_samples[name].push_back(v);
    }

    Checks checks;
    w->check(checks);

    LayerValues values;
    for (const auto& [name, v] : layer_samples) values[name] = median(v);
    w->untraced_layers(values);
    micro_layers(opt.seed, values);
    values["exec.pool_busy_fraction"] = median(busy);
    values["trace.overhead_ratio"] = ratio(median(traced_wall), median(untraced_wall));
    values["trace.dropped_events"] = dropped;
    for (const MetricDef& def : kPerLayer) {
        const auto it = values.find(def.name);
        metrics.push_back({def, it != values.end() ? it->second : 0.0});
    }
    print_result(checks.all_passed() && attempted > 0, attempted, failed, metrics);
    return checks.all_passed() ? 0 : 1;
}

} // namespace perfbench
