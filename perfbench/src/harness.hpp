// Benchmark harness: the run loop every workload shares (set-up, warm-up,
// timed repetitions for a fixed wall budget, traced repetitions), the
// correctness-check ledger and the result line.
//
// A workload supplies three things: one repetition of its work (a fixed
// number of operations, the same in every repetition), the checks that
// run on its outputs after the timed section, and the per-layer values
// only it can compute from a traced repetition. Everything measured from
// the program's own instrumentation (registry counters, pool counters,
// spans) is gathered here, identically for every workload.
#pragma once

#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "population/engine.hpp"
#include "trace_stats.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Median; 0 for an empty sample.
double median(std::vector<double> v);
/// Linear-interpolated quantile (p in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double p);

/// Run parameters every workload sees.
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int threads = 1; ///< Pool workers: min(4, hardware threads).
};

/// Correctness ledger: every check is recorded; the run is correct only
/// when all pass. Failures are echoed to stderr with their message.
class Checks {
public:
    void expect(bool ok, const std::string& what);
    bool all_passed() const { return failed_ == 0; }

private:
    int failed_ = 0;
};

/// What one repetition did, as the workload reports it.
struct RepResult {
    std::uint64_t ops = 0;       ///< Operations attempted.
    std::uint64_t failed = 0;    ///< Of those, operations that failed.
    /// User-visible step latencies [ms] by step class (a configuration,
    /// a request kind): steps of one class cost alike.
    std::map<int, std::vector<double>> step_ms;
};

/// Everything recorded around one traced repetition.
struct TracedRep {
    RepResult result;
    double wall_s = 0.0;
    std::vector<stsense::obs::MergedEvent> events;
    /// Registry counter deltas over the repetition (see kCounters).
    std::map<std::string, double> counters;
    double tasks_executed = 0.0; ///< exec::ThreadPool deltas.
    double tasks_stolen = 0.0;
};

/// Per-layer values by metric name.
using LayerValues = std::map<std::string, double>;

enum class RepKind {
    Timed,         ///< Warm-up and end-to-end repetitions, tracing off.
    TraceBaseline, ///< Untraced twin of the next Traced repetition.
    Traced,        ///< Spans recorded.
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Runs repetition `rep` (0 is the warm-up) of `kind`. Every timed
    /// repetition does the same number of operations. A traced run
    /// alternates TraceBaseline and Traced repetitions of one unit each
    /// (a smaller unit where a whole repetition records more spans than
    /// the tracer holds); the two of a pair run the same unit.
    virtual RepResult run_rep(std::size_t rep, RepKind kind) = 0;
    /// Inspects the outputs of the repetition just run, outside its timed
    /// window: may add failed operations and step latencies to `r`.
    virtual void digest(RepResult& r) { (void)r; }
    /// Correctness checks on the outputs, outside the timed section.
    virtual void check(Checks& checks) = 0;
    /// Workload-specific per-layer values of one traced repetition.
    virtual void layers(const TracedRep& rep, const SpanStats& spans, LayerValues& out) {
        (void)rep;
        (void)spans;
        (void)out;
    }
    /// Per-layer values the workload measured on the untraced
    /// repetitions of a traced run (timings that tracing would distort);
    /// called once, after the last repetition.
    virtual void untraced_layers(LayerValues& out) { (void)out; }
    /// Per-thread span capacity a traced repetition needs. Every thread
    /// that records allocates this many events (72 bytes each) when the
    /// tracer is armed, so it is sized per workload.
    virtual std::size_t trace_capacity() const { return std::size_t{1} << 16; }
    /// The pool the workload's parallel work runs on (pool counters).
    virtual const stsense::exec::ThreadPool& pool() const = 0;
};

std::unique_ptr<Workload> make_paper_sweeps_spice(const RunOptions& opt);
std::unique_ptr<Workload> make_population_analytic(const RunOptions& opt);
std::unique_ptr<Workload> make_population_spice(const RunOptions& opt);
std::unique_ptr<Workload> make_service_mix(const RunOptions& opt);

/// The analytic-engine population study (population_analytic's config).
stsense::population::PopulationConfig analytic_population_config(std::uint64_t seed);

/// Layer reference timings taken from outside on one thread: the
/// analytic period, one population die, one variation draw, one JSON
/// parse. Identical in every workload's traced run.
void micro_layers(std::uint64_t seed, LayerValues& out);

/// Runs the workload to the end and prints the result line. Returns the
/// process exit code (0 only when every check passed).
int run(const RunOptions& opt, Clock::time_point process_start);

} // namespace perfbench
