// service_mix — a closed loop of four loopback clients against the
// telemetry server, one die session per client, each client waiting for
// its reply before sending the next request. A repetition is one round:
// every client sends a seeded mix of 96 requests of fixed make-up (thermal
// maps, fresh and cached site readings, analytic sweeps of which a third
// repeat an earlier grid, small population studies, an optimisation,
// light queries and pings). One operation is one answered request; the
// latency step is the round trip of a heavy request.
//
// Clients never share a session: two clients sending heavy requests to
// one session can deadlock the server (see the FOUND note in CHANGES.md),
// and a watchdog turns any stalled round into a failed run.
#include "harness.hpp"

#include "phys/units.hpp"
#include "population/engine.hpp"
#include "ring/analytic.hpp"
#include "ring/sweep.hpp"
#include "sensor/smart_sensor.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "trace_stats.hpp"
#include "util/rng.hpp"
#include "api/population_spec.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

namespace service = stsense::service;
namespace ring = stsense::ring;
namespace population = stsense::population;
namespace exec = stsense::exec;

constexpr int kClients = 4;
/// A stalled round (no progress for this long) fails the run.
constexpr double kWatchdogS = 60.0;

enum class Kind {
    ThermalMap,
    MeasureFresh,
    MeasureCached,
    SweepNew,
    SweepRepeat,
    Population,
    Optimize,
    Query,
    Ping,
};

/// The per-client make-up of one round: 64 heavy, 32 light requests.
/// A third of the sweeps repeat a grid the client already sent in the
/// round (cache hits); the rest are fresh grids (misses).
const std::pair<Kind, int> kRound[] = {
    {Kind::ThermalMap, 8},  {Kind::MeasureFresh, 8}, {Kind::MeasureCached, 16},
    {Kind::SweepNew, 18},   {Kind::SweepRepeat, 9},  {Kind::Population, 4},
    {Kind::Optimize, 1},    {Kind::Query, 16},       {Kind::Ping, 16},
};
/// Result-cache budget of the server: small enough that the warm-up
/// fills it, so resident memory does not grow with the run length.
constexpr std::size_t kCacheBytes = std::size_t{1} << 20;
/// Warm-up rounds, numbered apart from the timed rounds.
constexpr std::size_t kWarmupRounds = 4;
constexpr std::size_t kWarmupRoundBase = std::size_t{1} << 32;

bool is_heavy(Kind k) { return k != Kind::Query && k != Kind::Ping; }

struct SweepParams {
    double lo = 0.0;
    double hi = 0.0;
    int points = 0;
};

struct PopulationParams {
    int dice = 1000;
    int shard = 64;
    int seed = 0;
};

/// One request as sent, with its reply and timing.
struct Exchange {
    Kind kind = Kind::Ping;
    std::int64_t id = 0;
    std::string line;
    std::string reply;
    std::uint64_t sent_ns = 0; ///< Tracer clock.
    std::uint64_t recv_ns = 0;
    SweepParams sweep;
    PopulationParams pop;
};

std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Builds client `c`'s round `rep`: the fixed make-up in a seeded order
/// with seeded parameters.
std::vector<Exchange> make_round(std::uint64_t seed, int c, std::size_t rep) {
    stsense::util::Rng rng = stsense::util::Rng(seed).split(
        static_cast<std::uint64_t>(rep) * kClients + static_cast<std::uint64_t>(c));
    std::vector<Kind> kinds;
    for (const auto& [k, n] : kRound) kinds.insert(kinds.end(), static_cast<std::size_t>(n), k);
    for (std::size_t i = kinds.size(); i > 1; --i) std::swap(kinds[i - 1], kinds[rng.below(i)]);
    // A repeat needs an earlier fresh grid: swap it behind the first one.
    const auto first_new = std::find(kinds.begin(), kinds.end(), Kind::SweepNew);
    for (auto it = kinds.begin(); it < first_new; ++it) {
        if (*it == Kind::SweepRepeat) std::iter_swap(it, first_new);
    }

    const int grid_points[] = {65, 129, 257, 513};
    const std::string queries[] = {"pool.queue_depth", "cache.hit_rate",
                                   "sessions[" + std::to_string(c) + "].sites[0].health"};
    std::vector<Exchange> out;
    std::vector<SweepParams> sent;
    int new_sweeps = 0;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        Exchange x;
        x.kind = kinds[i];
        x.id = static_cast<std::int64_t>(rep) * 100 + static_cast<std::int64_t>(i);
        std::ostringstream p;
        p << "\"session\":" << c;
        std::string method;
        switch (x.kind) {
        case Kind::ThermalMap:
            method = "thermal_map";
            break;
        case Kind::MeasureFresh:
        case Kind::MeasureCached:
            method = "measure_site";
            p << ",\"site\":" << rng.below(9)
              << ",\"fresh\":" << (x.kind == Kind::MeasureFresh ? "true" : "false");
            break;
        case Kind::SweepNew:
            // Continuous bounds: a fresh grid never matches an earlier one.
            x.sweep = {-50.0 - 10.0 * rng.uniform01(), 150.0 + 10.0 * rng.uniform01(),
                       grid_points[new_sweeps++ % 4]};
            sent.push_back(x.sweep);
            [[fallthrough]];
        case Kind::SweepRepeat:
            if (x.kind == Kind::SweepRepeat) x.sweep = sent[rng.below(sent.size())];
            method = "sweep";
            p << ",\"t_min_c\":" << fmt(x.sweep.lo) << ",\"t_max_c\":" << fmt(x.sweep.hi)
              << ",\"points\":" << x.sweep.points << ",\"engine\":\"analytic\"";
            break;
        case Kind::Population:
            method = "population_run";
            x.pop.seed = static_cast<int>(rng.below(1u << 30));
            p << ",\"dice\":" << x.pop.dice << ",\"shard\":" << x.pop.shard
              << ",\"seed\":" << x.pop.seed
              << ",\"calibration\":\"two_point\",\"recal_interval_hours\":1000";
            break;
        case Kind::Optimize: {
            const double lo = 1.0 + 0.5 * rng.uniform01();
            method = "optimize";
            p << ",\"ratio_lo\":" << fmt(lo) << ",\"ratio_hi\":" << fmt(lo + 2.5)
              << ",\"points\":7";
            break;
        }
        case Kind::Query:
            method = "query";
            p << ",\"path\":\"" << queries[rng.below(3)] << "\"";
            break;
        case Kind::Ping:
            method = "ping";
            break;
        }
        x.line = "{\"id\":" + std::to_string(x.id) + ",\"method\":\"" + method +
                 "\",\"params\":{" + p.str() + "}}";
        out.push_back(std::move(x));
    }
    return out;
}

/// Deterministic inclusive grid, the arithmetic the service uses for
/// request grids (so a direct sweep hashes and computes identically).
std::vector<double> linspace(double lo, double hi, int n) {
    std::vector<double> out;
    for (int i = 0; i < n; ++i) {
        out.push_back(lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1));
    }
    return out;
}

service::SessionSpec session_spec(int i) {
    service::SessionSpec spec;
    spec.name = "die-" + std::to_string(i);
    spec.monitor.grid_nx = 32;
    spec.monitor.grid_ny = 32;
    spec.sites_nx = 3;
    spec.sites_ny = 3;
    return spec;
}

/// Fails the run with a message when a round makes no progress.
class Watchdog {
public:
    Watchdog() : thread_([this] { loop(); }) {}
    ~Watchdog() {
        {
            std::lock_guard lock(m_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }
    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    void arm() {
        std::lock_guard lock(m_);
        armed_ = true;
        last_ = Clock::now();
    }
    void progress() {
        std::lock_guard lock(m_);
        last_ = Clock::now();
    }
    void disarm() {
        std::lock_guard lock(m_);
        armed_ = false;
    }

private:
    void loop() {
        std::unique_lock lock(m_);
        while (!stop_) {
            cv_.wait_for(lock, std::chrono::seconds(1));
            if (armed_ && seconds_since(last_) > kWatchdogS) {
                std::cerr << "perfbench: service_mix stalled: no reply for "
                          << kWatchdogS << " s; failing the run\n";
                std::_Exit(3);
            }
        }
    }

    std::mutex m_;
    std::condition_variable cv_;
    bool stop_ = false;
    bool armed_ = false;
    Clock::time_point last_ = Clock::now();
    std::thread thread_; // last: started after the state it reads
};

class ServiceMix final : public Workload {
public:
    explicit ServiceMix(const RunOptions& opt) : seed_(opt.seed) {
        service::ServerConfig cfg;
        cfg.threads = opt.threads;
        cfg.cache_bytes = kCacheBytes;
        std::vector<service::SessionSpec> specs;
        for (int i = 0; i < kClients; ++i) specs.push_back(session_spec(i));
        server_ = std::make_unique<service::Server>(cfg, std::move(specs));
        server_->start(loopback_);
        for (int c = 0; c < kClients; ++c) conns_.push_back(loopback_.connect());
        for (int c = 0; c < kClients; ++c) crew_.emplace_back([this, c] { client_loop(c); });
        sampled_.resize(kClients);
    }

    ~ServiceMix() override {
        {
            std::lock_guard lock(crew_m_);
            stop_ = true;
        }
        crew_cv_.notify_all();
        for (auto& t : crew_) t.join();
        for (auto& conn : conns_) conn->close();
        server_->request_shutdown();
        server_->wait();
    }
    ServiceMix(const ServiceMix&) = delete;
    ServiceMix& operator=(const ServiceMix&) = delete;

    RepResult run_rep(std::size_t rep, RepKind kind) override {
        if (rep == 0) {
            // Warm-up: enough rounds to fill the result cache to its byte
            // budget, so memory and hit ratio are steady once timing starts.
            for (std::size_t k = 0; k + 1 < kWarmupRounds; ++k) {
                RepResult r = run_round(kWarmupRoundBase + k, kind);
                digest(r);
            }
            return run_round(kWarmupRoundBase + kWarmupRounds - 1, kind);
        }
        return run_round(rep, kind);
    }

    void digest(RepResult& r) override {
        for (std::size_t c = 0; c < rounds_.size(); ++c) {
            bool sampled_sweep = false;
            bool sampled_pop = false;
            for (Exchange& x : rounds_[c]) {
                const auto parsed = service::Json::parse(x.reply);
                if (!reply_ok(x, parsed)) {
                    ++r.failed;
                    continue;
                }
                const double rt_ms = 1e-6 * static_cast<double>(x.recv_ns - x.sent_ns);
                if (is_heavy(x.kind)) {
                    r.step_ms[static_cast<int>(x.kind)].push_back(rt_ms);
                } else if (kind_ == RepKind::TraceBaseline) {
                    light_rt_us_.push_back(1e3 * rt_ms);
                }
                if (x.kind == Kind::ThermalMap || x.kind == Kind::MeasureFresh ||
                    x.kind == Kind::MeasureCached) {
                    check_readings(parsed);
                }
                if (x.kind == Kind::SweepNew && !sampled_sweep) {
                    sampled_[c].sweep = x;
                    sampled_sweep = true;
                }
                if (x.kind == Kind::Population && !sampled_pop) {
                    sampled_[c].pop = x;
                    sampled_pop = true;
                }
            }
        }
    }

    void check(Checks& checks) override {
        checks.expect(broken_ == 0, "every client connection stayed open");
        checks.expect(bad_replies_ == 0,
                      "every reply is ok with a matching id (" +
                          std::to_string(bad_replies_) + " were not)");
        checks.expect(readings_checked_ > 0 && readings_off_ == 0,
                      "healthy-site readings within the calibration residual +- 2 LSB (" +
                          std::to_string(readings_off_) + " of " +
                          std::to_string(readings_checked_) + " outside, worst excess " +
                          std::to_string(worst_excess_c_) + " degC)");
        const auto spec = session_spec(0);
        for (int c = 0; c < kClients; ++c) {
            const Exchange& sw = sampled_[c].sweep;
            const auto reply = service::Json::parse(sw.reply);
            const auto direct = ring::temperature_sweep(
                spec.tech, spec.ring, linspace(sw.sweep.lo, sw.sweep.hi, sw.sweep.points),
                ring::Engine::Analytic, {}, ring::SweepRuntime::serial());
            bool equal = reply.value.has_value();
            if (equal) {
                const auto& periods = reply.value->at("result").at("period_s");
                equal = periods.size() == direct.period_s.size();
                for (std::size_t i = 0; equal && i < direct.period_s.size(); ++i) {
                    equal = periods.at(i).as_double() == direct.period_s[i];
                }
            }
            checks.expect(equal, "client " + std::to_string(c) +
                                     ": sampled sweep reply bitwise equals a direct "
                                     "ring::temperature_sweep");

            const Exchange& px = sampled_[c].pop;
            const auto pop_reply = service::Json::parse(px.reply);
            const auto cfg = stsense::PopulationSpec()
                                 .technology(spec.tech)
                                 .ring(spec.ring)
                                 .dice(static_cast<std::uint64_t>(px.pop.dice))
                                 .shard(static_cast<std::size_t>(px.pop.shard))
                                 .seed(static_cast<std::uint64_t>(px.pop.seed))
                                 .corner(stsense::phys::Corner::TT)
                                 .calibration(population::CalibrationPolicy::TwoPoint)
                                 .horizon_hours(10000.0)
                                 .yield_limit_c(1.0)
                                 .recalibration(1000.0, 60.0)
                                 .config();
            population::PopulationRuntime rt;
            rt.parallel = false;
            const auto res = population::run_population(cfg, rt);
            bool pop_equal = pop_reply.value.has_value();
            if (pop_equal) {
                const auto& result = pop_reply.value->at("result");
                pop_equal = result.at("yield_fresh").as_double(-1.0) == res.yield_fresh &&
                            result.at("yield_aged").as_double(-1.0) == res.yield_aged &&
                            result.at("metrics").size() == res.metrics.size();
                for (std::size_t m = 0; pop_equal && m < res.metrics.size(); ++m) {
                    const auto& mj = result.at("metrics").at(m);
                    const auto& ms = res.metrics[m];
                    pop_equal = mj.at("mean").as_double() == ms.mean &&
                                mj.at("stddev").as_double() == ms.stddev &&
                                mj.at("min").as_double() == ms.min &&
                                mj.at("max").as_double() == ms.max;
                    for (std::size_t j = 0; pop_equal && j < ms.quantiles.size(); ++j) {
                        pop_equal = mj.at("quantiles").at(j).at("value").as_double() ==
                                    ms.quantiles[j].value;
                    }
                }
            }
            checks.expect(pop_equal, "client " + std::to_string(c) +
                                         ": sampled population_run reply bitwise equals a "
                                         "direct population::run_population");
        }
    }

    void layers(const TracedRep&, const SpanStats& spans, LayerValues& out) override {
        std::vector<double> compute;
        for (const char* name : {"service.session.sweep", "service.session.optimize",
                                 "service.session.population_run", "service.session.scan"}) {
            const auto d = spans.durations_ms(name);
            compute.insert(compute.end(), d.begin(), d.end());
        }
        out["service.compute_ms_p50"] = median(compute);
        out["service.render_ms_p50"] = median(spans.self_ms("service.request"));
        out["service.wait_ms_p50"] = median(wait_ms(spans));
        out["service.cache_hit_ratio"] = last_lookups_ > 0.0 ? last_hits_ / last_lookups_ : 0.0;
    }

    void untraced_layers(LayerValues& out) override {
        out["service.light_rt_us_p50"] = quantile(light_rt_us_, 0.5);
        out["service.light_rt_us_p99"] = quantile(light_rt_us_, 0.99);
    }

    const exec::ThreadPool& pool() const override { return server_->pool(); }

private:
    struct Sampled {
        Exchange sweep;
        Exchange pop;
    };

    /// One closed-loop round: every client sends its seeded requests.
    RepResult run_round(std::size_t round, RepKind kind) {
        std::vector<std::vector<Exchange>> rounds(kClients);
        for (int c = 0; c < kClients; ++c) rounds[c] = make_round(seed_, c, round);
        const auto cache0 = server_->cache().stats();
        watchdog_.arm();
        {
            std::unique_lock lock(crew_m_);
            work_ = &rounds;
            running_ = kClients;
            ++generation_;
            crew_cv_.notify_all();
            crew_cv_.wait(lock, [&] { return running_ == 0; });
        }
        watchdog_.disarm();
        const auto cache1 = server_->cache().stats();
        last_hits_ = static_cast<double>(cache1.hits - cache0.hits);
        last_lookups_ = last_hits_ + static_cast<double>(cache1.misses - cache0.misses);
        kind_ = kind;
        rounds_ = std::move(rounds);
        RepResult r;
        r.ops = static_cast<std::uint64_t>(kClients) * rounds_[0].size();
        return r;
    }

    /// A client thread: runs its part of every round the main thread
    /// starts, until the workload is torn down.
    void client_loop(int c) {
        std::uint64_t seen = 0;
        for (;;) {
            std::vector<Exchange>* round = nullptr;
            {
                std::unique_lock lock(crew_m_);
                crew_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
                if (stop_) return;
                seen = generation_;
                round = &(*work_)[static_cast<std::size_t>(c)];
            }
            drive(c, *round);
            std::lock_guard lock(crew_m_);
            if (--running_ == 0) crew_cv_.notify_all();
        }
    }

    void drive(int c, std::vector<Exchange>& round) {
        auto& conn = *conns_[static_cast<std::size_t>(c)];
        auto& tracer = stsense::obs::Tracer::global();
        for (std::size_t i = 0; i < round.size(); ++i) {
            Exchange& x = round[i];
            x.sent_ns = tracer.now_ns();
            if (!conn.write_line(x.line) || !conn.read_line(x.reply)) {
                broken_.fetch_add(1);
                for (std::size_t j = i; j < round.size(); ++j) round[j].recv_ns = round[j].sent_ns = 0;
                return;
            }
            x.recv_ns = tracer.now_ns();
            watchdog_.progress();
        }
    }

    bool reply_ok(const Exchange& x, const service::JsonParseResult& parsed) {
        const bool ok = parsed.value && parsed.value->at("ok").as_bool(false) &&
                        parsed.value->at("id").as_int64(-1) == x.id;
        if (!ok && bad_replies_++ == 0) {
            std::cerr << "first failed exchange: " << x.line << " -> " << x.reply << "\n";
        }
        return ok;
    }

    /// Healthy readings must sit on the two-point calibration residual of
    /// the analytic ring at the site's true temperature, within two codes
    /// of the period counter (see README, "Reading accuracy").
    void check_readings(const service::JsonParseResult& parsed) {
        const auto& result = parsed.value->at("result");
        std::vector<const service::Json*> readings;
        if (result.contains("readings")) {
            for (const auto& r : result.at("readings").items()) readings.push_back(&r);
        } else {
            readings.push_back(&result);
        }
        for (const service::Json* r : readings) {
            if (r->at("health").as_string() != "healthy" || !r->at("valid").as_bool()) continue;
            const double true_c = r->at("true_c").as_double();
            const double err = r->at("error_c").as_double();
            const double excess = std::abs(err - residual_c(true_c)) - 2.0 * lsb_c(true_c);
            ++readings_checked_;
            if (excess > 0.0) {
                ++readings_off_;
                worst_excess_c_ = std::max(worst_excess_c_, excess);
            }
        }
    }

    double residual_c(double t_c) const {
        const double p = analytic_.period(stsense::phys::celsius_to_kelvin(t_c));
        const double est = cal_lo_c_ + (p - p_lo_) * (cal_hi_c_ - cal_lo_c_) / (p_hi_ - p_lo_);
        return est - t_c;
    }

    /// One counter code in degC: the gate counts reference cycles over
    /// osc_cycles ring periods.
    double lsb_c(double t_c) const {
        const double dp_dt = analytic_.sensitivity(stsense::phys::celsius_to_kelvin(t_c));
        return 1.0 / (gate_.osc_cycles * std::ldexp(1.0, gate_.divider_log2) *
                      gate_.ref_freq_hz * std::abs(dp_dt));
    }

    /// Matches each round trip to the service.request span it contains
    /// (the contained span ending closest to the reply) and returns the
    /// remainder for heavy requests: framing, transport and queue time.
    std::vector<double> wait_ms(const SpanStats& spans) const {
        struct Window {
            std::uint64_t sent, recv;
            bool heavy;
        };
        std::vector<Window> windows;
        for (const auto& round : rounds_) {
            for (const auto& x : round) {
                if (x.recv_ns > 0) windows.push_back({x.sent_ns, x.recv_ns, is_heavy(x.kind)});
            }
        }
        std::sort(windows.begin(), windows.end(),
                  [](const Window& a, const Window& b) { return a.recv < b.recv; });
        std::vector<const stsense::obs::TraceEvent*> requests;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto& e = spans.event(i).ev;
            if (std::string(e.name) == "service.request") requests.push_back(&e);
        }
        std::vector<bool> used(requests.size(), false);
        std::vector<double> out;
        for (const Window& w : windows) {
            int best = -1;
            for (std::size_t i = 0; i < requests.size(); ++i) {
                const auto* s = requests[i];
                const std::uint64_t end = s->start_ns + s->dur_ns;
                if (used[i] || s->start_ns < w.sent || end > w.recv) continue;
                const auto* b = best < 0 ? nullptr : requests[static_cast<std::size_t>(best)];
                if (b == nullptr || end > b->start_ns + b->dur_ns) {
                    best = static_cast<int>(i);
                }
            }
            if (best < 0) continue;
            used[static_cast<std::size_t>(best)] = true;
            const auto* s = requests[static_cast<std::size_t>(best)];
            if (w.heavy) {
                out.push_back(1e-6 * static_cast<double>((w.recv - w.sent) - s->dur_ns));
            }
        }
        return out;
    }

    std::uint64_t seed_;
    service::LoopbackTransport loopback_;
    std::unique_ptr<service::Server> server_;
    std::vector<std::shared_ptr<service::Connection>> conns_;
    Watchdog watchdog_;

    // Reading-accuracy reference: the session ring's analytic model and
    // the monitor's two-point calibration.
    const service::SessionSpec spec_ = session_spec(0);
    const ring::AnalyticRingModel analytic_{spec_.tech, spec_.ring};
    const double cal_lo_c_ = spec_.monitor.cal_low_c;
    const double cal_hi_c_ = spec_.monitor.cal_high_c;
    const double p_lo_ = analytic_.period(stsense::phys::celsius_to_kelvin(cal_lo_c_));
    const double p_hi_ = analytic_.period(stsense::phys::celsius_to_kelvin(cal_hi_c_));
    const stsense::digital::GateConfig gate_ = spec_.monitor.sensor_options.gate;

    std::atomic<int> broken_{0};
    int bad_replies_ = 0;
    long readings_checked_ = 0;
    long readings_off_ = 0;
    double worst_excess_c_ = 0.0;
    std::vector<Sampled> sampled_;
    std::vector<double> light_rt_us_;
    std::vector<std::vector<Exchange>> rounds_; ///< The last repetition's exchanges.
    RepKind kind_ = RepKind::Timed;
    double last_hits_ = 0.0;
    double last_lookups_ = 0.0;

    // Persistent client threads, one per connection; a round is started
    // by bumping generation_ and ends when running_ drops to 0.
    std::mutex crew_m_;
    std::condition_variable crew_cv_;
    std::uint64_t generation_ = 0;
    int running_ = 0;
    bool stop_ = false;
    std::vector<std::vector<Exchange>>* work_ = nullptr;
    std::vector<std::thread> crew_; // last: the threads use every member above
};

} // namespace

std::unique_ptr<Workload> make_service_mix(const RunOptions& opt) {
    return std::make_unique<ServiceMix>(opt);
}

} // namespace perfbench
