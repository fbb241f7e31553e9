/// perfbench — the walb performance ledger's measuring program.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--tree-seed N] [--scratch DIR]
///
/// Prints one "context" JSON line (host fingerprint, workload facts) and, as
/// its last line, the result object {"correct", "attempted", "failed",
/// "metrics", "errors"}. --trace 0 reports the end-to-end metrics, --trace 1
/// the per-layer ones. perfbench/run.py builds this program and checks the
/// metric names against BENCHMARK.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

void printMetrics(const std::vector<ledger::Metric>& ms) {
    std::printf("{");
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    ms[i].name.c_str(), v, ms[i].unit.c_str());
    }
    std::printf("}");
}

std::string jsonEscape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += (c == '\n') ? ' ' : c;
    }
    return out;
}

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tree-seed N] [--scratch DIR]\n",
                 msg);
    std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
    ledger::Options opt;
    bool haveWorkload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            const std::string v = argv[++i];
            if (a == "--workload") {
                opt.workload = v;
                haveWorkload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
            } else if (a == "--tree-seed") {
                opt.treeSeed = std::stoull(v);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
            } else if (a == "--trace") {
                opt.trace = std::stoi(v) != 0;
            } else if (a == "--scratch") {
                opt.scratchDir = v;
            } else {
                usage(("unknown argument " + a).c_str());
            }
        }
    } catch (const std::logic_error&) {
        usage("malformed numeric argument");
    }
    if (!haveWorkload) usage("--workload is required");
    if (!(opt.seconds > 0)) usage("--seconds must be positive");

    ledger::Result res;
    try {
        res = ledger::runWorkload(opt);
    } catch (const std::invalid_argument& e) {
        usage(e.what());
    }

    std::printf("{\"context\": ");
    printMetrics(res.context);
    std::printf("}\n");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
                res.correct ? "true" : "false", (unsigned long long)res.attempted,
                (unsigned long long)res.failed);
    printMetrics(res.metrics);
    std::printf(", \"errors\": [");
    for (std::size_t i = 0; i < res.errors.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", jsonEscape(res.errors[i]).c_str());
    std::printf("]}\n");
    return 0;
}
