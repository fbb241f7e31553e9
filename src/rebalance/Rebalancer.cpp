#include "rebalance/Rebalancer.h"

#include "core/Debug.h"
#include "core/Logging.h"
#include "core/ParseNumber.h"
#include "rebalance/Migrator.h"
#include "sim/DistributedSimulation.h"

namespace walb::rebalance {

Rebalancer::Rebalancer(sim::DistributedSimulation& sim, RebalanceOptions opt)
    : sim_(sim), opt_(std::move(opt)),
      policy_(makePolicy(opt_.policy, opt_.maxMoves)) {
    WALB_ASSERT(policy_ != nullptr, "unknown rebalance policy '" << opt_.policy << "'");
}

void Rebalancer::install() {
    sim_.setStepHook([this](std::uint64_t step) { maybeRebalance(step); });
}

void Rebalancer::maybeRebalance(std::uint64_t step) {
    if (!opt_.any() || step == 0 || step % opt_.every != 0) return;
    // The LoadModel is fed from the flight recorder's StepSamples: the
    // recorder's collideSeconds sum over this epoch's window is the rank's
    // authoritative sweep time (the same clock every other diagnostic uses).
    // The ad-hoc per-block accumulators only provide the *proportions*
    // between this rank's blocks — their sum is rescaled onto the recorder's
    // time base. Falls back to the raw accumulators when the ring no longer
    // covers the whole epoch (tiny capacity or very long epochs).
    std::vector<double> sweepSeconds = sim_.blockSweepSeconds();
    bool windowComplete = false;
    const double recorded =
        sim_.flightRecorder().collideSecondsSince(lastEpochStep_, &windowComplete);
    double accumulated = 0.0;
    for (double s : sweepSeconds) accumulated += s;
    if (windowComplete && recorded > 0.0 && accumulated > 0.0) {
        const double scale = recorded / accumulated;
        for (double& s : sweepSeconds) s *= scale;
    }
    model_.recordEpoch(sim_.forest(), sweepSeconds);
    sim_.resetBlockSweepSeconds();
    lastEpochStep_ = step;
    const std::vector<double> weights = model_.gatherGlobal(sim_.comm(), sim_.setup());
    runEpoch(step, weights);
}

bool Rebalancer::runEpoch(std::uint64_t step, const std::vector<double>& weights) {
    const auto numRanks = std::uint32_t(sim_.comm().size());
    EpochRecord rec;
    rec.step = step;
    rec.imbalanceBefore = imbalanceFactor(sim_.setup(), weights, numRanks);
    rec.imbalanceAfter = rec.imbalanceBefore;
    sim_.metrics().gauge("rebalance.imbalance").set(rec.imbalanceBefore);

    // Hysteresis: a healthy assignment never migrates.
    if (rec.imbalanceBefore < opt_.imbalanceThreshold) {
        history_.push_back(rec);
        return false;
    }

    const RebalanceContext ctx{sim_.setup(), weights, numRanks};
    const std::vector<std::uint32_t> proposed = policy_->propose(ctx);
    const double proposedImbalance = imbalanceFactor(proposed, weights, numRanks);
    // Migrate only on strict improvement — paying migration cost for an
    // equal (or worse) assignment would make epochs oscillate.
    if (proposedImbalance >= rec.imbalanceBefore) {
        history_.push_back(rec);
        return false;
    }

    const MigrationStats stats = migrate(sim_, proposed);
    rec.imbalanceAfter = proposedImbalance;
    rec.blocksMoved = stats.blocksMoved;
    rec.bytesMoved = stats.bytesSent + stats.bytesReceived;
    rec.seconds = stats.seconds;
    rec.migrated = true;
    history_.push_back(rec);

    sim_.metrics().gauge("rebalance.imbalance").set(rec.imbalanceAfter);
    sim_.metrics().counter("rebalance.blocks_moved").inc(stats.blocksMoved);
    sim_.metrics().counter("rebalance.bytes_moved").inc(rec.bytesMoved);
    cumulativeSeconds_ += stats.seconds;
    sim_.metrics().gauge("rebalance.seconds").set(cumulativeSeconds_);
    // The migration rebuilt the block neighborhoods, and with them every
    // core/shell split plan of the overlapped communication schedule —
    // record the new shell share so load traces explain comm-hiding shifts.
    const double localCells = double(sim_.localFluidCells());
    const double shellFraction =
        localCells > 0 ? double(sim_.localShellCells()) / localCells : 0.0;
    sim_.metrics().gauge("rebalance.shell_fraction").set(shellFraction);
    if (sim_.comm().rank() == 0)
        WALB_LOG_INFO("rebalance @" << step << " [" << policy_->name()
                                    << "]: imbalance " << rec.imbalanceBefore << " -> "
                                    << rec.imbalanceAfter << ", moved "
                                    << stats.blocksMoved << " blocks (rank 0 shell share now "
                                    << shellFraction << ")");
    return true;
}

RebalanceOptions RebalanceOptions::fromArgs(int argc, char** argv) {
    auto valueOf = [&](const std::string& flag, int i) -> std::string {
        const std::string arg = argv[i];
        if (arg == flag && i + 1 < argc) return argv[i + 1];
        const std::string prefix = flag + "=";
        if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
        return "";
    };
    RebalanceOptions opt;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (!(v = valueOf("--rebalance-every", i)).empty())
            opt.every = parseNumber<std::uint64_t>("--rebalance-every", v);
        else if (!(v = valueOf("--rebalance-policy", i)).empty())
            opt.policy = v;
        else if (!(v = valueOf("--imbalance-threshold", i)).empty())
            opt.imbalanceThreshold =
                parseNumber<double>("--imbalance-threshold", v, /*allowNegative=*/false);
        else if (!(v = valueOf("--rebalance-max-moves", i)).empty())
            opt.maxMoves = parseNumber<std::uint32_t>("--rebalance-max-moves", v);
    }
    return opt;
}

} // namespace walb::rebalance
