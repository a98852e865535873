// Span statistics over one merged trace: durations and self times by
// span name. A span's self time is its duration minus the time its
// direct children (spans nested inside it on the same thread) cover.
#pragma once

#include "obs/trace.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanStats {
public:
    /// `events` must outlive this object and stay sorted as
    /// obs::Tracer::merged() returns them.
    explicit SpanStats(const std::vector<stsense::obs::MergedEvent>& events);

    /// Durations [ms] of every span called `name`.
    std::vector<double> durations_ms(const std::string& name) const;
    /// Self times [ms] of every span called `name`.
    std::vector<double> self_ms(const std::string& name) const;
    /// Summed self time [ms] of every span called `name`.
    double self_ms_total(const std::string& name) const;
    /// Summed numeric annotation of every span called `name`.
    double num_total(const std::string& name) const;
    std::size_t count(const std::string& name) const;

    std::size_t size() const { return events_.size(); }
    const stsense::obs::MergedEvent& event(std::size_t i) const { return events_[i]; }
    bool top_level(std::size_t i) const { return top_level_[i]; }

private:
    bool is(std::size_t i, const std::string& name) const;

    const std::vector<stsense::obs::MergedEvent>& events_;
    std::vector<std::uint64_t> self_ns_;
    std::vector<bool> top_level_;
};

} // namespace perfbench
