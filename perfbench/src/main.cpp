// perfbench — the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spawn-ns <CLOCK_MONOTONIC ns at process spawn>]
//
// Runs one workload in this process on a pool of min(4, hardware
// threads) workers, checks its outputs, and prints one JSON result line
// last on stdout. Exit code 0 only when every correctness check passed.
#include "harness.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

namespace {

bool parse_u64(const char* s, std::uint64_t& out) {
    char* end = nullptr;
    out = std::strtoull(s, &end, 10);
    return end != s && *end == '\0';
}

int usage() {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spawn-ns <ns>]\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    using perfbench::Clock;
    Clock::time_point start = Clock::now();
    perfbench::RunOptions opt;
    bool have_workload = false;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc) return usage();
        const std::string key = argv[i];
        const char* val = argv[i + 1];
        std::uint64_t n = 0;
        if (key == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (key == "--seed" && parse_u64(val, n)) {
            opt.seed = n;
        } else if (key == "--seconds" && parse_u64(val, n) && n >= 1 && n <= 3600) {
            opt.seconds = static_cast<double>(n);
        } else if (key == "--trace" && (std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0)) {
            opt.trace = val[0] == '1';
        } else if (key == "--spawn-ns" && parse_u64(val, n)) {
            // steady_clock is CLOCK_MONOTONIC, the clock the launcher
            // read just before spawning this process.
            const auto spawn = Clock::time_point(std::chrono::nanoseconds(n));
            if (spawn <= start) start = spawn;
        } else {
            return usage();
        }
    }
    if (!have_workload) return usage();

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    opt.threads = static_cast<int>(std::min(4u, hw));
    // Reference runs only (README): PERFBENCH_THREADS=1 gives the
    // single-thread figures. The benchmark itself never sets it.
    if (const char* env = std::getenv("PERFBENCH_THREADS")) {
        std::uint64_t n = 0;
        if (parse_u64(env, n) && n >= 1 && n < static_cast<std::uint64_t>(opt.threads)) {
            opt.threads = static_cast<int>(n);
        }
    }
    // Sizes the process-wide pool before anything touches it, so every
    // library call that defaults to the global pool shares this one.
    setenv("STSENSE_THREADS", std::to_string(opt.threads).c_str(), 1);
    try {
        return perfbench::run(opt, start);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
