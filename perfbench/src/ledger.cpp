#include "ledger.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

namespace ledger {

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(mid), v.end());
    if (v.size() % 2 == 1) return v[mid];
    const double upper = v[mid];
    const double lower = *std::max_element(v.begin(), v.begin() + std::ptrdiff_t(mid));
    return 0.5 * (lower + upper);
}

namespace {
/// 1-based nearest rank of the q-quantile: ceil(q * n), at least 1.
std::size_t nearestRank(std::size_t n, double q) {
    const auto r = std::size_t(std::ceil(q * double(n) - 1e-9));
    return std::clamp<std::size_t>(r, 1, n);
}
} // namespace

std::size_t samplesBeyond(std::size_t n, double q) {
    if (n == 0) return 0;
    return n - nearestRank(n, q);
}

std::optional<double> tailPercentile(std::vector<double> v, double q, std::size_t minBeyond) {
    if (v.empty() || samplesBeyond(v.size(), q) < minBeyond) return std::nullopt;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), q) - 1];
}

namespace {
/// Value in kB of a "Key:   123 kB" line of /proc/self/status, or -1.
double statusKiB(const std::string& key) {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) != 0 || line.size() <= key.size() ||
            line[key.size()] != ':')
            continue;
        std::istringstream is(line.substr(key.size() + 1));
        double v = -1;
        is >> v;
        return v;
    }
    return -1;
}
} // namespace

MemStatus readMemStatus() {
    return {statusKiB("VmRSS") / 1024.0, statusKiB("VmHWM") / 1024.0};
}

bool resetPeakRss() {
    std::ofstream out("/proc/self/clear_refs");
    if (!out) return false;
    out << "5";
    out.flush();
    return bool(out);
}

int usableCpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    return CPU_COUNT(&set);
}

bool pinToCpus(int first, int count) {
    cpu_set_t usable;
    CPU_ZERO(&usable);
    if (sched_getaffinity(0, sizeof(usable), &usable) != 0) return false;
    cpu_set_t mine;
    CPU_ZERO(&mine);
    int index = 0, taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < count; ++cpu) {
        if (!CPU_ISSET(cpu, &usable)) continue;
        if (index++ < first) continue;
        CPU_SET(cpu, &mine);
        ++taken;
    }
    return taken == count && sched_setaffinity(0, sizeof(mine), &mine) == 0;
}

double loadAverage1() {
    std::ifstream in("/proc/loadavg");
    double v = -1;
    in >> v;
    return v;
}

std::size_t lastLevelCacheBytes() {
    std::size_t best = 0;
    for (int idx = 0; idx < 8; ++idx) {
        std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) +
                         "/size");
        std::string s;
        if (!(in >> s) || s.empty()) continue;
        std::size_t mult = 1;
        if (s.back() == 'K') mult = std::size_t(1) << 10;
        if (s.back() == 'M') mult = std::size_t(1) << 20;
        if (mult != 1) s.pop_back();
        best = std::max(best, std::size_t(std::stoull(s)) * mult);
    }
    return best;
}

int processThreads() { return int(statusKiB("Threads")); }

double refCoreMs(int reps) {
    std::vector<double> ms;
    volatile double sink = 0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        double x = 1.0 + double(r) * 1e-12;
        for (int i = 0; i < 20'000'000; ++i) x = x * 0.9999999 + 1e-7;
        sink = sink + x;
        ms.push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                .count());
    }
    return median(ms);
}

double refTriadGiBs(std::size_t bytesPerArray, int reps) {
    const std::size_t n = bytesPerArray / sizeof(double);
    std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = 0.0;
        b[i] = 1.0;
        c[i] = 2.0;
    }
    double best = 0;
    for (int r = 0; r < reps; ++r) {
        const double s = 0.5 + double(r);
        const auto t0 = std::chrono::steady_clock::now();
        double* __restrict pa = a.get();
        const double* __restrict pb = b.get();
        const double* __restrict pc = c.get();
        for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
        const double sec =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        best = std::max(best, 3.0 * double(n * sizeof(double)) / sec / double(1u << 30));
    }
    volatile double sink = a[n / 2];
    (void)sink;
    return best;
}

namespace {
CpuUsage usage(int who) {
    rusage ru{};
    getrusage(who, &ru);
    return {double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec) +
                double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec),
            ru.ru_nivcsw};
}
} // namespace

CpuUsage threadUsage() { return usage(RUSAGE_THREAD); }
CpuUsage processUsage() { return usage(RUSAGE_SELF); }

std::vector<double> selfTimes(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0 && std::size_t(s.parent) < spans.size())
            children[std::size_t(s.parent)].push_back({s.begin, s.end});
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, curBegin = 0, curEnd = 0;
        bool open = false;
        for (auto [b, e] : iv) {
            b = std::max(b, spans[i].begin);
            e = std::min(e, spans[i].end);
            if (e <= b) continue;
            if (open && b <= curEnd) {
                curEnd = std::max(curEnd, e);
                continue;
            }
            if (open) covered += curEnd - curBegin;
            curBegin = b;
            curEnd = e;
            open = true;
        }
        if (open) covered += curEnd - curBegin;
        self[i] = spans[i].duration() - covered;
    }
    return self;
}

} // namespace ledger
