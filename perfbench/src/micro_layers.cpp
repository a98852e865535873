// Single-thread reference timings of single layer calls, each the median
// of several batches so one slow batch (a descheduled vCPU) does not set
// the value.
#include "harness.hpp"

#include "phys/corners.hpp"
#include "phys/units.hpp"
#include "ring/analytic.hpp"
#include "service/json.hpp"
#include "util/rng.hpp"

#include <string>
#include <vector>

namespace perfbench {

namespace {

/// Median over `batches` of the mean time [us] of one `call(i)`.
template <typename Fn>
double time_us(int batches, int calls, Fn&& call) {
    std::vector<double> per_call;
    double sink = 0.0;
    int i = 0;
    for (int b = 0; b < batches; ++b) {
        const auto t0 = Clock::now();
        for (int k = 0; k < calls; ++k) sink += call(i++);
        per_call.push_back(1e6 * seconds_since(t0) / calls);
    }
    volatile double keep = sink; // keep the calls from being folded away
    (void)keep;
    return median(per_call);
}

/// A sweep reply as the service sends it: 65 points at full precision.
std::string sample_reply() {
    namespace service = stsense::service;
    service::Json temps = service::Json::array();
    service::Json periods = service::Json::array();
    service::Json status = service::Json::array();
    for (int i = 0; i < 65; ++i) {
        temps.push_back(-50.0 + 200.0 * i / 64.0);
        periods.push_back(1.0e-9 * (1.0 + 0.0031 * i + 1e-7 * i * i));
        status.push_back("ok");
    }
    service::Json result = service::Json::object();
    result.set("temps_c", std::move(temps));
    result.set("period_s", std::move(periods));
    result.set("status", std::move(status));
    service::Json doc = service::Json::object();
    doc.set("id", 17);
    doc.set("ok", true);
    doc.set("result", std::move(result));
    return doc.dump();
}

} // namespace

void micro_layers(std::uint64_t seed, LayerValues& out) {
    namespace ring = stsense::ring;
    namespace population = stsense::population;
    const auto cfg = analytic_population_config(seed);

    const ring::AnalyticRingModel analytic(cfg.tech, cfg.ring);
    out["ring.analytic_period_us"] = time_us(9, 2000, [&](int i) {
        return analytic.period(stsense::phys::celsius_to_kelvin(-50.0 + (i % 201)));
    });

    const population::DieEvaluator eval(cfg);
    out["population.die_eval_us"] = time_us(9, 200, [&](int i) {
        return eval.evaluate(static_cast<std::uint64_t>(i))[0];
    });

    const stsense::phys::VariationStream stream(cfg.tech, cfg.variation,
                                                stsense::util::Rng(seed));
    out["phys.variation_at_us"] = time_us(9, 2000, [&](int i) {
        return stream.at(static_cast<std::uint64_t>(i)).vdd;
    });

    const std::string reply = sample_reply();
    out["service.json_parse_us"] = time_us(9, 200, [&](int) {
        const auto parsed = stsense::service::Json::parse(reply);
        return parsed.value ? 1.0 : 0.0;
    });
}

} // namespace perfbench
