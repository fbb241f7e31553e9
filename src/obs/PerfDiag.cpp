#include "obs/PerfDiag.h"

#include <algorithm>
#include <cmath>

#include "core/Buffer.h"
#include "core/Debug.h"
#include "vmpi/Comm.h"

namespace walb::obs {

double sortedQuantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * double(sorted.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - double(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return sortedQuantile(values, 0.5);
}

double medianAbsDeviation(const std::vector<double>& values, double center) {
    std::vector<double> dev;
    dev.reserve(values.size());
    for (double v : values) dev.push_back(std::abs(v - center));
    return median(std::move(dev));
}

std::vector<double> logHistogramEdges(double lo, double hi, unsigned perDecade) {
    WALB_ASSERT(lo > 0 && hi > lo && perDecade > 0, "invalid log-edge parameters");
    std::vector<double> edges;
    const double step = 1.0 / double(perDecade);
    for (double e = std::log10(lo); e <= std::log10(hi) + 1e-12; e += step)
        edges.push_back(std::pow(10.0, e));
    return edges;
}

std::vector<int> StragglerHold::apply(const std::vector<int>& flagged,
                                      const std::vector<int>& participants) {
    std::map<int, unsigned> next;
    for (int id : participants) {
        const bool flaggedNow = std::find(flagged.begin(), flagged.end(), id) != flagged.end();
        const auto held = cleanRuns_.find(id);
        if (flaggedNow) next[id] = 0;
        else if (held != cleanRuns_.end() && held->second + 1 < clearAfter_)
            next[id] = held->second + 1;
    }
    cleanRuns_ = std::move(next);
    std::vector<int> out;
    out.reserve(cleanRuns_.size());
    for (const auto& [id, clean] : cleanRuns_) out.push_back(id);
    return out;
}

StragglerVerdict StragglerDetector::judge(std::vector<double> ewmaByRank,
                                          std::uint64_t step) const {
    StragglerVerdict v;
    v.step = step;
    v.ewmaByRank = std::move(ewmaByRank);
    if (v.ewmaByRank.empty()) return v;
    v.median = median(v.ewmaByRank);
    v.mad = medianAbsDeviation(v.ewmaByRank, v.median);
    // 1.4826 scales MAD to a normal-distribution sigma estimate.
    const double sigma = 1.4826 * v.mad;
    for (std::size_t r = 0; r < v.ewmaByRank.size(); ++r) {
        const double e = v.ewmaByRank[r];
        if (e > v.median * relThreshold_ && e > v.median + madK_ * sigma)
            v.stragglers.push_back(int(r));
    }
    return v;
}

StragglerVerdict StragglerDetector::detect(vmpi::Comm& comm, std::uint64_t step) {
    SendBuffer sb;
    sb << ewma_;
    // walb-lint: allow(blocking): report-time collective — every rank reaches it unconditionally; the run comm's recv deadline applies
    const auto all = comm.allgatherv(std::span<const std::uint8_t>(sb.data(), sb.size()));
    std::vector<double> ewmaByRank;
    ewmaByRank.reserve(all.size());
    for (const auto& bytes : all) {
        RecvBuffer rb(bytes);
        double e = 0;
        rb >> e;
        ewmaByRank.push_back(e);
    }
    StragglerVerdict v = judge(std::move(ewmaByRank), step);
    std::vector<int> ranks(v.ewmaByRank.size());
    for (std::size_t r = 0; r < ranks.size(); ++r) ranks[r] = int(r);
    v.stragglers = hold_.apply(v.stragglers, ranks);
    lastImbalance_ = v.median > 0 ? ewma_ / v.median : 1.0;
    return v;
}

} // namespace walb::obs
