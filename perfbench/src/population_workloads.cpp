// population_analytic / population_spice — the yield-vs-calibration study
// (two-point calibration, within-die mismatch, periodic recalibration)
// on the closed-form engine over 2^16 dice, and on the SPICE engine with
// the fast kernel over a few dozen dice. One operation is one die; the
// latency step is one folded shard.
#include "harness.hpp"

#include "exec/metrics.hpp"
#include "trace_stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

namespace {

namespace population = stsense::population;
namespace exec = stsense::exec;

constexpr std::uint64_t kAnalyticDice = 65536;
constexpr std::size_t kAnalyticShard = 1024;
constexpr std::uint64_t kSpiceDice = 32;
constexpr std::size_t kSpiceShard = 32;

bool summaries_bitwise_equal(const population::PopulationResult& a,
                             const population::PopulationResult& b) {
    if (a.dice != b.dice || a.yield_fresh != b.yield_fresh ||
        a.yield_aged != b.yield_aged || a.metrics.size() != b.metrics.size()) {
        return false;
    }
    for (std::size_t m = 0; m < a.metrics.size(); ++m) {
        const auto& x = a.metrics[m];
        const auto& y = b.metrics[m];
        if (x.count != y.count || x.mean != y.mean || x.stddev != y.stddev ||
            x.min != y.min || x.max != y.max || x.quantiles.size() != y.quantiles.size()) {
            return false;
        }
        for (std::size_t j = 0; j < x.quantiles.size(); ++j) {
            if (x.quantiles[j].value != y.quantiles[j].value) return false;
        }
    }
    return true;
}

class PopulationStudy final : public Workload {
public:
    PopulationStudy(population::PopulationConfig cfg, bool spice, int threads)
        : cfg_(std::move(cfg)), spice_(spice), threads_(threads) {
        // One SPICE die records ~5.5e5 spans, so a traced pair on the
        // SPICE engine folds one shard of two dice (two recording threads).
        traced_cfg_ = cfg_;
        if (spice_) {
            traced_cfg_.dice = 2;
            traced_cfg_.shard_size = 2;
        }
    }

    RepResult run_rep(std::size_t, RepKind kind) override {
        const population::PopulationConfig& cfg = kind == RepKind::Timed ? cfg_ : traced_cfg_;
        RepResult r;
        auto& fallback = exec::MetricsRegistry::global().counter("population.spice_fallback");
        const std::uint64_t fallback0 = fallback.value();
        population::PopulationRuntime rt;
        rt.pool = &exec::ThreadPool::global();
        auto last = Clock::now();
        rt.on_shard = [&](const population::PopulationProgress&) {
            const auto now = Clock::now();
            r.step_ms[0].push_back(1e3 * std::chrono::duration<double>(now - last).count());
            last = now;
        };
        population::PopulationResult res = population::run_population(cfg, rt);
        r.ops = cfg.dice;
        // A fallback is one SPICE point replaced by the analytic period;
        // its die is counted failed (at most every die of the run).
        r.failed = std::min<std::uint64_t>(fallback.value() - fallback0, cfg.dice);
        if (kind != RepKind::Timed) {
            return r;
        } else if (!first_) {
            first_ = std::move(res);
        } else if (!summaries_bitwise_equal(*first_, res)) {
            ++unrepeated_;
        }
        return r;
    }

    void check(Checks& checks) override {
        checks.expect(first_.has_value() && unrepeated_ == 0,
                      "every repetition's statistics are bitwise equal");
        if (!first_) return;
        const population::PopulationResult& res = *first_;
        checks.expect(res.dice == cfg_.dice, "the run folded every die");
        // Each quantile has its own P² estimator, whose markers stay
        // between min and max; the estimators are not ordered against
        // each other (p90 > p99 on ~2 % of seeds at 32 dice), so their
        // order is not checked.
        for (const auto& m : res.metrics) {
            bool bracketed = m.min <= m.mean && m.mean <= m.max;
            for (const auto& q : m.quantiles) {
                bracketed = bracketed && m.min <= q.value && q.value <= m.max;
            }
            checks.expect(bracketed && m.count == cfg_.dice,
                          m.name + ": min <= mean <= max and min <= every quantile <= max");
        }
        if (!spice_) check_against_exact(checks);
    }

    void layers(const TracedRep& rep, const SpanStats& spans, LayerValues& out) override {
        // Share of the run's wall not spent in the parallel die
        // evaluation the calling thread waits on: the serial fold and the
        // shard hand-offs. The caller is the only non-pool thread here.
        double eval_ms = 0.0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto& e = spans.event(i);
            if (spans.top_level(i) && e.tid >= stsense::obs::Tracer::kDynamicTidBase &&
                std::string(e.ev.name) == "exec.parallel_for") {
                eval_ms += 1e-6 * static_cast<double>(e.ev.dur_ns);
            }
        }
        out["population.fold_share"] = std::max(0.0, 1.0 - eval_ms / (1e3 * rep.wall_s));
    }

    // One SPICE die records ~5.5e5 spans, all on the thread that runs it.
    std::size_t trace_capacity() const override {
        return spice_ ? std::size_t{1} << 20 : std::size_t{1} << 16;
    }
    const exec::ThreadPool& pool() const override { return exec::ThreadPool::global(); }

private:
    /// Exact two-pass over DieEvaluator::evaluate on every die of the
    /// run, and a rerun under another thread count and shard size.
    void check_against_exact(Checks& checks) {
        const population::PopulationResult& res = *first_;
        const population::DieEvaluator eval(cfg_);
        const auto n = static_cast<std::size_t>(cfg_.dice);
        std::vector<std::array<double, population::kMetricCount>> rows(n);
        exec::ThreadPool::global().parallel_for(n, 0, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) rows[i] = eval.evaluate(i);
        });
        double fresh_ok = 0.0;
        double aged_ok = 0.0;
        for (const auto& row : rows) {
            if (row[static_cast<int>(population::Metric::FreshMaxAbsErrC)] <= cfg_.yield_limit_c)
                fresh_ok += 1.0;
            if (row[static_cast<int>(population::Metric::AgedMaxAbsErrC)] <= cfg_.yield_limit_c)
                aged_ok += 1.0;
        }
        checks.expect(res.yield_fresh == fresh_ok / static_cast<double>(n) &&
                          res.yield_aged == aged_ok / static_cast<double>(n),
                      "yields equal the exact two-pass");
        std::vector<double> col(n);
        for (int m = 0; m < population::kMetricCount; ++m) {
            for (std::size_t i = 0; i < n; ++i) col[i] = rows[i][static_cast<std::size_t>(m)];
            std::sort(col.begin(), col.end());
            double sum = 0.0;
            for (double v : col) sum += v;
            const double mean = sum / static_cast<double>(n);
            const auto& s = res.metrics[static_cast<std::size_t>(m)];
            checks.expect(s.count == n && s.min == col.front() && s.max == col.back(),
                          s.name + ": count and min/max equal the exact two-pass");
            const double scale = std::max(std::abs(mean), 1e-300);
            checks.expect(std::abs(s.mean - mean) <= 1e-9 * scale,
                          s.name + ": mean matches the exact two-pass to rounding");
            const double spread = col.back() - col.front();
            for (const auto& q : s.quantiles) {
                const double exact = quantile(col, q.p);
                checks.expect(std::abs(q.value - exact) <= 0.005 * spread,
                              s.name + ": p" + std::to_string(q.p) +
                                  " within 0.5 % of spread of the exact order statistic");
            }
        }

        exec::ThreadPool other(threads_ > 1 ? threads_ / 2 : 2);
        auto resharded = cfg_;
        resharded.shard_size = cfg_.shard_size * 4;
        population::PopulationRuntime rt;
        rt.pool = &other;
        checks.expect(summaries_bitwise_equal(res, population::run_population(resharded, rt)),
                      "statistics are bitwise equal under another thread count and shard size");
    }

    population::PopulationConfig cfg_;
    population::PopulationConfig traced_cfg_;
    bool spice_ = false;
    int threads_ = 1;
    std::optional<population::PopulationResult> first_;
    std::size_t unrepeated_ = 0;
};

} // namespace

population::PopulationConfig analytic_population_config(std::uint64_t seed) {
    population::PopulationConfig cfg;
    cfg.dice = kAnalyticDice;
    cfg.shard_size = kAnalyticShard;
    cfg.seed = seed;
    cfg.variation.vth_sigma = 0.015;
    cfg.variation.kp_rel_sigma = 0.04;
    cfg.variation.vdd_rel_sigma = 0.005;
    cfg.mismatch = {0.01, 0.004};
    cfg.aging.vth_drift_v = 0.0008;
    cfg.aging.drive_degradation_rel = 0.0015;
    cfg.aging.rate_sigma_ln = 0.2;
    cfg.horizon_hours = 10000.0;
    cfg.calibration = population::CalibrationPolicy::TwoPoint;
    cfg.recal.policy = population::RecalPolicy::Periodic;
    cfg.recal.interval_hours = 1000.0;
    cfg.recal.temp_c = 60.0;
    return cfg;
}

std::unique_ptr<Workload> make_population_analytic(const RunOptions& opt) {
    return std::make_unique<PopulationStudy>(analytic_population_config(opt.seed), false,
                                             opt.threads);
}

std::unique_ptr<Workload> make_population_spice(const RunOptions& opt) {
    auto cfg = analytic_population_config(opt.seed);
    cfg.engine = population::PeriodEngine::Spice;
    cfg.spice = stsense::ring::SpiceRingOptions::fast();
    cfg.dice = kSpiceDice;
    cfg.shard_size = kSpiceShard;
    return std::make_unique<PopulationStudy>(std::move(cfg), true, opt.threads);
}

} // namespace perfbench
