#pragma once
/// \file ledger.h
/// Measurement helpers of the performance ledger: order statistics with the
/// ten-samples-beyond rule, peak-RSS reset, host fingerprint probes and span
/// self time. Nothing here calls into walb, so no change to the program can
/// move these numbers.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ledger {

// ---- order statistics ------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// Number of samples strictly above the nearest-rank q-quantile of n samples.
std::size_t samplesBeyond(std::size_t n, double q);

/// Nearest-rank q-quantile, reported only when at least `minBeyond` samples
/// lie beyond it; std::nullopt otherwise.
std::optional<double> tailPercentile(std::vector<double> v, double q,
                                     std::size_t minBeyond = 10);

// ---- memory ------------------------------------------------------------------

struct MemStatus {
    double rssMiB = 0;  ///< VmRSS
    double peakMiB = 0; ///< VmHWM, the peak since start or the last reset
};
MemStatus readMemStatus();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS by writing
/// "5" to /proc/self/clear_refs. Returns false when the kernel refuses.
bool resetPeakRss();

// ---- host fingerprint --------------------------------------------------------

/// CPUs this process may run on (sched_getaffinity).
int usableCpus();
/// Restricts the calling thread (and the threads it creates later, such as
/// its OpenMP team) to `count` of the usable CPUs, starting at index
/// `first` of the usable set. Returns false when the set is too small or the
/// kernel refuses.
bool pinToCpus(int first, int count);
/// 1-minute load average from /proc/loadavg.
double loadAverage1();
/// Size of the last-level cache in bytes (sysfs), or 0 when unknown.
std::size_t lastLevelCacheBytes();
/// Threads of this process (/proc/self/status).
int processThreads();

/// Fixed scalar reference loop (dependent multiply-add chain); median
/// milliseconds of `reps` runs. Measures the core clock the host gives us.
double refCoreMs(int reps = 5);
/// Benchmark-owned single-threaded STREAM triad over three arrays of
/// `bytesPerArray` bytes; best of `reps` sweeps in GiB/s (three arrays'
/// bytes per sweep, write-allocate not counted).
double refTriadGiBs(std::size_t bytesPerArray, int reps = 3);

/// CPU seconds and involuntary context switches of the calling thread
/// (RUSAGE_THREAD) or of the whole process (RUSAGE_SELF).
struct CpuUsage {
    double cpuSeconds = 0;
    long involuntarySwitches = 0;
};
CpuUsage threadUsage();
CpuUsage processUsage();

// ---- spans -------------------------------------------------------------------

/// One timed interval. `parent` is the index of the enclosing span, or -1.
struct Span {
    std::string name;
    int parent = -1;
    double begin = 0;
    double end = 0;
    double duration() const { return end - begin; }
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers (children are clipped to
/// the parent, overlapping children are counted once).
std::vector<double> selfTimes(const std::vector<Span>& spans);

} // namespace ledger
