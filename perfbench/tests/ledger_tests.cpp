/// Tests of the ledger's own measurement helpers: the ten-samples-beyond
/// percentile rule, the peak-RSS reset and span self time. Run through
/// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.

#include <sys/mman.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ledger.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
}

bool near(double a, double b, double tol = 1e-9) { return a - b <= tol && b - a <= tol; }

void percentileNeedsTenSamplesBeyond() {
    std::vector<double> v;
    for (int i = 1; i <= 199; ++i) v.push_back(double(i));
    // 199 samples: nearest rank ceil(0.95 * 199) = 190, only 9 lie beyond.
    expect(ledger::samplesBeyond(199, 0.95) == 9, "199 samples leave 9 beyond p95");
    expect(!ledger::tailPercentile(v, 0.95).has_value(), "p95 withheld at 199 samples");
    v.push_back(200.0);
    expect(ledger::samplesBeyond(200, 0.95) == 10, "200 samples leave 10 beyond p95");
    const auto p95 = ledger::tailPercentile(v, 0.95);
    expect(p95.has_value() && *p95 == 190.0, "p95 of 1..200 is 190");
    expect(!ledger::tailPercentile(std::vector<double>(19, 1.0), 0.5).has_value(),
           "p50 withheld at 19 samples");
    expect(ledger::tailPercentile(std::vector<double>(20, 1.0), 0.5).has_value(),
           "p50 reported at 20 samples");
    expect(!ledger::tailPercentile({}, 0.5).has_value(), "no percentile of nothing");
    expect(ledger::median({3, 1, 2}) == 2.0 && ledger::median({4, 1, 3, 2}) == 2.5,
           "median of odd and even counts");
}

void peakRssResets() {
    const std::size_t bytes = std::size_t(256) << 20;
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    expect(p != MAP_FAILED, "map 256 MiB");
    if (p == MAP_FAILED) return;
    std::memset(p, 1, bytes);
    munmap(p, bytes);
    const ledger::MemStatus before = ledger::readMemStatus();
    expect(before.peakMiB - before.rssMiB > 200,
           "peak keeps the unmapped 256 MiB until reset (peak " +
               std::to_string(before.peakMiB) + " MiB, rss " + std::to_string(before.rssMiB) +
               " MiB)");
    expect(ledger::resetPeakRss(), "kernel accepts the clear_refs reset");
    const ledger::MemStatus after = ledger::readMemStatus();
    expect(after.peakMiB - after.rssMiB < 32,
           "peak drops to the current RSS after reset (peak " +
               std::to_string(after.peakMiB) + " MiB, rss " + std::to_string(after.rssMiB) +
               " MiB)");
}

void spanSelfTime() {
    using ledger::Span;
    // root [0,10] with children [1,3] and [2,5] (overlapping: union 1..5)
    // and [9,12] (clipped to 9..10); grandchild [1.5,2] belongs to child 1.
    const std::vector<Span> spans = {
        {"root", -1, 0, 10}, {"a", 0, 1, 3}, {"b", 0, 2, 5}, {"c", 0, 9, 12}, {"a1", 1, 1.5, 2},
    };
    const std::vector<double> self = ledger::selfTimes(spans);
    expect(near(self[0], 10 - 4 - 1), "root self time excludes the union of its children");
    expect(near(self[1], 2 - 0.5), "child self time excludes its grandchild");
    expect(near(self[2], 3) && near(self[3], 3) && near(self[4], 0.5),
           "leaf spans keep their full duration");
    const std::vector<Span> disjoint = {
        {"step", -1, 0, 10}, {"comm", 0, 0, 2}, {"boundary", 0, 2, 3}, {"collide", 0, 3, 9.5}};
    const std::vector<double> s2 = ledger::selfTimes(disjoint);
    expect(near(s2[0] + s2[1] + s2[2] + s2[3], 10),
           "phase self times plus the step's own self time add up to the step");
}

} // namespace

int main() {
    percentileNeedsTenSamplesBeyond();
    peakRssResets();
    spanSelfTime();
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
