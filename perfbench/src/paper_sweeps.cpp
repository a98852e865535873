// paper_sweeps_spice — the paper's own artifact on the transistor-level
// engine: the four Fig. 2 Wp/Wn ratios and the six Fig. 3 cell mixes,
// each swept over the 17-point -50...150 degC grid with the fast kernel,
// result cache off. One operation is one SPICE temperature point; the
// latency step is one configuration's sweep.
#include "harness.hpp"

#include "analysis/nonlinearity.hpp"
#include "phys/technology.hpp"
#include "phys/units.hpp"
#include "ring/analytic.hpp"
#include "ring/sweep.hpp"
#include "sensor/presets.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

namespace ring = stsense::ring;
namespace exec = stsense::exec;

/// Largest SPICE-vs-analytic period gap accepted at any point. The two
/// engines differ by design (about 30 % at most today); the band catches
/// a period that is off by a factor, not a model difference.
constexpr double kAnalyticBand = 0.35;
/// The fast kernel's accuracy gate against the reference kernel.
constexpr double kKernelGate = 5e-4;

/// Max |NL| in % of full scale against the least-squares line, computed
/// here from centred sums (independent of analysis::least_squares).
double own_max_nl_percent(const std::vector<double>& x, const std::vector<double>& y) {
    const double n = static_cast<double>(x.size());
    double mx = 0.0;
    double my = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        mx += x[i];
        my += y[i];
    }
    mx /= n;
    my /= n;
    double sxx = 0.0;
    double sxy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sxx += (x[i] - mx) * (x[i] - mx);
        sxy += (x[i] - mx) * (y[i] - my);
    }
    const double slope = sxy / sxx;
    const auto [lo, hi] = std::minmax_element(y.begin(), y.end());
    const double full_scale = *hi - *lo;
    double worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double fit = my + slope * (x[i] - mx);
        worst = std::max(worst, std::abs(y[i] - fit) / full_scale);
    }
    return 100.0 * worst;
}

bool bitwise_equal(const ring::SweepResult& a, const ring::SweepResult& b) {
    return a.period_s == b.period_s && a.status == b.status;
}

class PaperSweeps final : public Workload {
public:
    explicit PaperSweeps(const RunOptions& opt)
        : tech_(stsense::phys::cmos350()),
          grid_(ring::paper_temperature_grid_c()),
          spice_opt_(ring::SpiceRingOptions::fast()) {
        namespace presets = stsense::sensor::presets;
        for (double r : presets::kFig2Ratios) {
            configs_.push_back(ring::RingConfig::uniform(stsense::cells::CellKind::Inv,
                                                         presets::kPaperStages, r));
        }
        for (auto& [name, cfg] : presets::fig3_configurations()) {
            configs_.push_back(std::move(cfg));
        }
        // The seed sets the order the configurations run in and the
        // point of each that is re-simulated with the reference kernel.
        stsense::util::Rng rng(opt.seed);
        order_.resize(configs_.size());
        for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
        for (std::size_t i = order_.size(); i > 1; --i) {
            std::swap(order_[i - 1], order_[rng.below(i)]);
        }
        for (std::size_t i = 0; i < configs_.size(); ++i) {
            check_point_.push_back(rng.below(grid_.size()));
        }
        runtime_.pool = &exec::ThreadPool::global();
        runtime_.use_cache = false;
        runtime_.fault.policy = ring::FaultPolicy::Skip; // a failed point is counted, not fatal
        reference_.resize(configs_.size());
    }

    RepResult run_rep(std::size_t rep, RepKind kind) override {
        RepResult r;
        if (kind == RepKind::Timed) {
            for (std::size_t idx : order_) sweep(idx, rep == 0, r);
            return r;
        }
        // A whole pass records ~3.5M spans; a traced pair sweeps one
        // configuration, rotating through them in the seeded order.
        if (kind == RepKind::TraceBaseline) traced_ = order_[pairs_++ % order_.size()];
        sweep(traced_, false, r);
        return r;
    }

    void check(Checks& checks) override {
        checks.expect(unrepeated_ == 0,
                      "every repetition's sweeps are bitwise equal to the first");
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            const ring::SweepResult& sw = reference_[c];
            const std::string name = ring::describe(configs_[c]);
            checks.expect(sw.count(ring::PointStatus::Ok) == grid_.size(),
                          name + ": every point has status Ok");
            bool rising = true;
            for (std::size_t i = 1; i < sw.period_s.size(); ++i) {
                rising = rising && sw.period_s[i] > sw.period_s[i - 1];
            }
            checks.expect(rising, name + ": period rises strictly with temperature");
            const ring::AnalyticRingModel analytic(tech_, configs_[c]);
            double worst_gap = 0.0;
            for (std::size_t i = 0; i < grid_.size(); ++i) {
                const double pa = analytic.period(stsense::phys::celsius_to_kelvin(grid_[i]));
                worst_gap = std::max(worst_gap, std::abs(sw.period_s[i] / pa - 1.0));
            }
            checks.expect(worst_gap <= kAnalyticBand,
                          name + ": SPICE period within the analytic band (gap " +
                              std::to_string(worst_gap) + ")");
            const double nl_lib = stsense::analysis::max_nonlinearity_percent(
                sw.temps_c, sw.period_s);
            const double nl_own = own_max_nl_percent(sw.temps_c, sw.period_s);
            checks.expect(std::abs(nl_lib - nl_own) <= 1e-6,
                          name + ": max NL recomputed by an own least-squares fit matches");
        }

        // One seeded point per configuration, re-simulated with the
        // reference kernel (default TransientOptions, full window).
        std::vector<double> ref_period(configs_.size(), 0.0);
        exec::ThreadPool::global().parallel_for(
            configs_.size(), 1, [&](std::size_t b, std::size_t e) {
                for (std::size_t c = b; c < e; ++c) {
                    const ring::SpiceRingModel model(tech_, configs_[c]);
                    auto res = model.try_simulate(
                        stsense::phys::celsius_to_kelvin(grid_[check_point_[c]]),
                        ring::SpiceRingOptions{});
                    if (res.ok()) ref_period[c] = res.value().period;
                }
            });
        for (std::size_t c = 0; c < configs_.size(); ++c) {
            const double fast = reference_[c].period_s[check_point_[c]];
            const double dev = std::abs(fast / ref_period[c] - 1.0);
            checks.expect(ref_period[c] > 0.0 && dev <= kKernelGate,
                          ring::describe(configs_[c]) +
                              ": fast kernel agrees with the reference kernel at " +
                              std::to_string(grid_[check_point_[c]]) + " degC (dev " +
                              std::to_string(dev) + ")");
        }
    }

    // One lock-step group of 8 points records ~1.7e5 Newton-level spans;
    // a worker may run two groups of a traced sweep.
    std::size_t trace_capacity() const override { return std::size_t{1} << 19; }
    const exec::ThreadPool& pool() const override { return exec::ThreadPool::global(); }

private:
    void sweep(std::size_t idx, bool first, RepResult& r) {
        const auto t0 = Clock::now();
        ring::SweepResult sw = ring::temperature_sweep(
            tech_, configs_[idx], grid_, ring::Engine::Spice, spice_opt_, runtime_);
        r.step_ms[static_cast<int>(idx)].push_back(1e3 * seconds_since(t0));
        r.ops += sw.temps_c.size();
        r.failed += sw.temps_c.size() - sw.count(ring::PointStatus::Ok);
        if (first) {
            reference_[idx] = std::move(sw);
        } else if (!bitwise_equal(sw, reference_[idx])) {
            ++unrepeated_;
        }
    }

    stsense::phys::Technology tech_;
    std::vector<double> grid_;
    ring::SpiceRingOptions spice_opt_;
    ring::SweepRuntime runtime_;
    std::vector<ring::RingConfig> configs_;
    std::vector<std::size_t> order_;
    std::vector<std::size_t> check_point_;
    std::vector<ring::SweepResult> reference_; ///< Warm-up results, by config.
    std::size_t unrepeated_ = 0;
    std::size_t pairs_ = 0;  ///< Traced pairs run so far.
    std::size_t traced_ = 0; ///< Configuration of the current traced pair.
};

} // namespace

std::unique_ptr<Workload> make_paper_sweeps_spice(const RunOptions& opt) {
    return std::make_unique<PaperSweeps>(opt);
}

} // namespace perfbench
