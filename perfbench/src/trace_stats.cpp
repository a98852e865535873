#include "trace_stats.hpp"

#include <algorithm>
#include <cstring>
#include <map>

namespace perfbench {

SpanStats::SpanStats(const std::vector<stsense::obs::MergedEvent>& events)
    : events_(events), self_ns_(events.size()), top_level_(events.size(), true) {
    // merged() sorts by (start, duration descending), so on each thread
    // a parent precedes its children: one open-span stack per thread.
    std::map<std::uint32_t, std::vector<std::size_t>> open;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto& e = events[i];
        self_ns_[i] = e.ev.dur_ns;
        auto& stack = open[e.tid];
        while (!stack.empty()) {
            const auto& top = events[stack.back()].ev;
            if (top.start_ns + top.dur_ns > e.ev.start_ns) break;
            stack.pop_back();
        }
        if (!stack.empty()) {
            top_level_[i] = false;
            std::uint64_t& parent_self = self_ns_[stack.back()];
            parent_self -= std::min(parent_self, e.ev.dur_ns);
        }
        stack.push_back(i);
    }
}

bool SpanStats::is(std::size_t i, const std::string& name) const {
    const char* n = events_[i].ev.name;
    return n != nullptr && std::strcmp(n, name.c_str()) == 0;
}

std::vector<double> SpanStats::durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (is(i, name)) out.push_back(1e-6 * static_cast<double>(events_[i].ev.dur_ns));
    }
    return out;
}

std::vector<double> SpanStats::self_ms(const std::string& name) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (is(i, name)) out.push_back(1e-6 * static_cast<double>(self_ns_[i]));
    }
    return out;
}

double SpanStats::self_ms_total(const std::string& name) const {
    double total = 0.0;
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (is(i, name)) total += 1e-6 * static_cast<double>(self_ns_[i]);
    }
    return total;
}

double SpanStats::num_total(const std::string& name) const {
    double total = 0.0;
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (is(i, name)) total += events_[i].ev.num;
    }
    return total;
}

std::size_t SpanStats::count(const std::string& name) const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < events_.size(); ++i) n += is(i, name) ? 1 : 0;
    return n;
}

} // namespace perfbench
