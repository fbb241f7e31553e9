#pragma once
/// \file PerfDiag.h
/// Live performance diagnostics (`walb::obs` v2): statistics helpers shared
/// by the metrics layer and tools (sample quantiles, median, median
/// absolute deviation) and the cross-rank StragglerDetector.
///
/// The detector is the paper's "% MPI time" curves turned into an alarm: a
/// rank whose smoothed step time departs from the fleet is exactly the
/// failure mode that erodes the Figure 6/7 parallel efficiency (one slow
/// node serializes every bulk-synchronous step). Each rank folds its step
/// seconds into an EWMA; every detection epoch the EWMAs are allgathered
/// and a rank is flagged as a straggler when it exceeds both
///   median * relThreshold                      (gross departure), and
///   median + madK * 1.4826 * MAD               (statistical departure),
/// where MAD is the median absolute deviation of the per-rank EWMAs. The
/// MAD term adapts to fleet-wide noise; the relative term keeps tiny
/// absolute jitter from firing when the fleet is nearly noise-free
/// (MAD ~ 0). Every rank computes the identical verdict from the identical
/// allgathered data — the detection is collectively deterministic.
///
/// A flag then has hysteresis (StragglerHold): it stays set until the rank
/// passes kHoldEpochs consecutive judgments unflagged. Host noise on the
/// fast ranks widens the MAD for an epoch or two, which would otherwise let
/// a persistent straggler's flag flap off and on.

#include <cstdint>
#include <map>
#include <vector>

namespace walb::vmpi {
class Comm;
}

namespace walb::obs {

/// Quantile of an ascending-sorted sample vector with linear interpolation
/// between order statistics; q in [0,1]. Returns 0 for an empty vector.
double sortedQuantile(const std::vector<double>& sortedAscending, double q);

/// Median of a sample vector (copies + sorts internally).
double median(std::vector<double> values);

/// Median absolute deviation around the given center.
double medianAbsDeviation(const std::vector<double>& values, double center);

/// Log-spaced histogram upper edges covering [lo, hi] with `perDecade`
/// buckets per decade — the default bucketing for step-seconds histograms
/// (step times span orders of magnitude between machines and geometries).
std::vector<double> logHistogramEdges(double lo, double hi, unsigned perDecade);

/// Cross-rank verdict of one detection epoch; identical on every rank.
struct StragglerVerdict {
    std::uint64_t step = 0;            ///< step index of the detection
    std::vector<double> ewmaByRank;    ///< smoothed step seconds, rank order
    double median = 0;                 ///< fleet median of the EWMAs
    double mad = 0;                    ///< median absolute deviation
    std::vector<int> stragglers;       ///< flagged ranks, ascending

    bool isStraggler(int rank) const {
        for (int r : stragglers)
            if (r == rank) return true;
        return false;
    }
};

/// Hysteresis over successive straggler judgments: a flagged id stays
/// flagged until `clearAfter` consecutive judgments that do not flag it
/// (1 = no hysteresis). Ids are caller-defined (ranks, dump indices).
class StragglerHold {
public:
    explicit StragglerHold(unsigned clearAfter) : clearAfter_(clearAfter) {}

    /// Folds one judgment in: `flagged` are the ids it flagged, all of them
    /// among `participants`, the ids it judged. Returns, ascending, the
    /// flagged ids plus the participants whose flag is still held; an id
    /// that did not take part loses its hold.
    std::vector<int> apply(const std::vector<int>& flagged,
                           const std::vector<int>& participants);

private:
    unsigned clearAfter_;
    std::map<int, unsigned> cleanRuns_; ///< held id -> clean judgments since
};

class StragglerDetector {
public:
    /// Consecutive unflagged epochs that clear a flag (see the file comment).
    static constexpr unsigned kHoldEpochs = 3;

    /// `alpha` is the EWMA weight of the newest step (same convention as
    /// rebalance::LoadModel). `relThreshold`/`madK` gate the verdict; see
    /// the file comment.
    explicit StragglerDetector(double alpha = 0.3, double relThreshold = 1.5,
                               double madK = 3.0)
        : alpha_(alpha), relThreshold_(relThreshold), madK_(madK), hold_(kHoldEpochs) {}

    double alpha() const { return alpha_; }
    double relThreshold() const { return relThreshold_; }
    double madK() const { return madK_; }

    /// Folds one step's wall seconds into this rank's EWMA.
    void record(double stepSeconds) {
        ewma_ = haveSample_ ? alpha_ * stepSeconds + (1.0 - alpha_) * ewma_ : stepSeconds;
        haveSample_ = true;
    }

    double ewma() const { return ewma_; }
    bool hasSample() const { return haveSample_; }

    /// This rank's EWMA relative to the fleet median of the last detection
    /// epoch (1.0 before the first detection) — the per-sample "imbalance
    /// contribution" stored in the flight recorder.
    double lastImbalance() const { return lastImbalance_; }

    /// Collective: allgathers every rank's EWMA, judges it and folds the
    /// judgment into the hold, so the straggler set keeps every rank whose
    /// flag is still held. Every rank receives the identical verdict.
    StragglerVerdict detect(vmpi::Comm& comm, std::uint64_t step);

    /// Pure decision core, testable without a communicator: applies the
    /// median/MAD thresholds to an already-gathered EWMA vector (no hold).
    StragglerVerdict judge(std::vector<double> ewmaByRank, std::uint64_t step) const;

private:
    double alpha_;
    double relThreshold_;
    double madK_;
    StragglerHold hold_;
    double ewma_ = 0.0;
    bool haveSample_ = false;
    double lastImbalance_ = 1.0;
};

} // namespace walb::obs
