#pragma once
/// \file DistributedSimulation.h
/// Multi-block, multi-process LBM driver: the distributed counterpart of
/// SingleBlockSimulation. Each virtual-MPI rank owns the blocks assigned to
/// it by the setup/load-balancing phase, allocates PDF/flag fields for
/// those blocks only, and advances every time step through one pipeline:
///
///   1. begin the ghost-layer exchange (sim/PdfCommScheme.h) — block-to-
///      block copies of the slots a fluid cell reads for local neighbors
///      (lbm/GhostCopyPlan.h), packed BufferSystem messages for remote
///      ones, direction-sliced to the 5/1/0 PDFs that cross each
///      face/edge/corner;
///   2. core boundary links and core sweep;
///   3. finish the exchange;
///   4. shell boundary links and shell sweep;
///   5. src/dst swap (two-grid tiers; the AA tiers advance their parity).
///
/// Every sweep runs over fluid line intervals, whatever the kernel tier.
/// The core/shell split of each block follows the communication ordering:
/// overlapped, cells whose stencil reads a remote-backed ghost region are
/// shell; synchronous, the exchange finishes before step 2 and the core is
/// the whole block. A TimingPool records communication vs. compute time —
/// the quantity behind the "% MPI communication" curves of Figure 6.

#include <algorithm>
#include <fstream>
#include <functional>

#include "blockforest/BlockForest.h"
#include "core/BinaryIO.h"
#include "core/Logging.h"
#include "core/Timer.h"
#include "lbm/Boundary.h"
#include "lbm/Sparse.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/PerfDiag.h"
#include "obs/TimingReduction.h"
#include "obs/Trace.h"
#include "sim/Checkpoint.h"
#include "sim/Health.h"
#include "sim/PdfCommScheme.h"
#include "sim/SingleBlockSimulation.h"

namespace walb::sim {

class DistributedSimulation {
public:
    using M = lbm::D3Q19;

    /// Fills the flag field of one block (interior *and* ghost layers —
    /// flags are a pure function of global position, so neighboring blocks
    /// agree on the shared cells without communication).
    using FlagInitializer =
        std::function<void(field::FlagField&, const lbm::BoundaryFlags&,
                           const bf::BlockForest::Block&, const geometry::CellMapping&)>;

    DistributedSimulation(vmpi::Comm& comm, const bf::SetupBlockForest& setup,
                          const FlagInitializer& initFlags,
                          KernelTier tier = KernelTier::Simd)
        : comm_(&comm), setup_(setup), initFlags_(initFlags),
          forest_(setup_, std::uint32_t(comm.rank())), tier_(tier) {
        buildBlockData();
        trace_.setRank(comm.rank());
        installErrorObserver();
    }

    ~DistributedSimulation() { comm_->setErrorObserver(nullptr); }

    /// The global setup structure this simulation was built from. The stored
    /// copy tracks live migrations: applyBlockAssignment() updates its
    /// process fields, so it is always the authoritative block -> rank map.
    const bf::SetupBlockForest& setup() const { return setup_; }

    /// Live re-assignment of blocks to ranks (walb::rebalance migration
    /// layer). Rebuilds the rank-local BlockForest, all per-block data
    /// (fields re-initialized to equilibrium, flags re-derived through the
    /// stored flag initializer — flags are a pure function of global
    /// position), boundary handlings, fluid runs and the ghost-exchange
    /// BufferSystem plan. Carries *no* PDF state over: callers (the
    /// migrator) pack block records before this call and apply them after
    /// it. Must be invoked with the identical `ownerBySetupIndex` on every
    /// rank.
    void applyBlockAssignment(const std::vector<std::uint32_t>& ownerBySetupIndex) {
        WALB_ASSERT(ownerBySetupIndex.size() == setup_.numBlocks(),
                    "assignment covers " << ownerBySetupIndex.size() << " of "
                                         << setup_.numBlocks() << " blocks");
        WALB_ASSERT(!comm_scheme_ || !comm_scheme_->exchangeInProgress(),
                    "block migration while a ghost exchange is in flight");
        auto& blocks = setup_.blocks();
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            WALB_ASSERT(ownerBySetupIndex[i] < std::uint32_t(comm_->size()),
                        "block assigned to rank " << ownerBySetupIndex[i] << " of "
                                                  << comm_->size());
            blocks[i].process = ownerBySetupIndex[i];
        }
        forest_ = bf::BlockForest(setup_, std::uint32_t(comm_->rank()));
        boundaries_.clear();
        runs_.clear();
        buildBlockData();
    }

    /// One ghost-layer exchange outside the step loop — the migration /
    /// restart epilogue that re-establishes cross-block consistency.
    /// Parity-aware for the AA tiers: at parity Odd it runs the forward
    /// (ghost-fill) exchange, at parity Even the reverse exchange that
    /// completes the interior edge slots from the neighbors' ghost pushes —
    /// in both cases the same exchange the next step would open with, so an
    /// extra refill is idempotent. Collective.
    void refillGhostLayers() {
        syncExchangeMode();
        comm_scheme_->communicate();
    }

    /// Abandons any in-flight ghost exchange without draining it — the
    /// recovery entry point: after a rank failure the outstanding receives
    /// will never complete (or carry a half-stepped epoch that the rewind
    /// discards), so the exchange is dropped rather than finished.
    void abortGhostExchange() {
        if (comm_scheme_) comm_scheme_->abortExchange();
    }

    bf::BlockForest& forest() { return forest_; }
    const bf::BlockForest& forest() const { return forest_; }
    const lbm::BoundaryFlags& masks() const { return masks_; }
    TimingPool& timing() { return timing_; }
    obs::MetricsRegistry& metrics() { return metrics_; }
    obs::TraceRecorder& trace() { return trace_; }
    vmpi::Comm& comm() { return *comm_; }

    /// Swaps the communicator under a live simulation — the recovery shrink
    /// (walb::recover): after a rank failure the survivors rebind to their
    /// ShrunkComm and carry on. Moves the last-breath error observer to the
    /// new comm. The caller MUST follow up with applyBlockAssignment()
    /// (which rebuilds the ghost-exchange BufferSystem on the new comm)
    /// before the next step or collective.
    void rebindComm(vmpi::Comm& comm) {
        comm_->setErrorObserver(nullptr);
        comm_ = &comm;
        installErrorObserver();
    }

    /// Re-arms the one-shot on-error flight dump — called after a completed
    /// recovery so the *next* failure leaves telemetry again.
    void resetErrorDump() { errorDumped_ = false; }

    /// Direct access to the per-block fields (checkpointing, health scans).
    lbm::PdfField& pdfField(std::size_t block) {
        return forest_.getData<lbm::PdfField>(block, srcId_);
    }
    field::FlagField& flagField(std::size_t block) {
        return forest_.getData<field::FlagField>(block, flagId_);
    }

    // ---- AA-pattern state (in-place kernel tiers) --------------------------

    KernelTier kernelTier() const { return tier_; }
    /// True when the simulation runs a single-grid AA tier.
    bool usesAaPattern() const { return isAaTier(tier_); }
    /// Current AA storage layout == parity of the next step to run.
    lbm::AaParity aaParity() const { return lbm::aaParityOfStep(currentStep_); }

    // ---- block state ---------------------------------------------------------

    /// Bytes packBlockState() appends for block `block`.
    std::size_t blockStateBytes(std::size_t block) const {
        return std::size_t(runs_[block].fluidCells) * M::Q * sizeof(real_t);
    }

    /// Appends the state of block `block`: the canonical post-collision PDFs
    /// (the values cellCanonicalPdfs returns) of its interior fluid cells,
    /// population by population, each population in fluid-run order. The
    /// order depends only on the flag field, so the bytes are the same for
    /// every kernel tier and AA parity. Every other slot is either refilled
    /// by the next ghost exchange or overwritten by the boundary sweep before
    /// a kernel reads it, so this payload is the block's complete state.
    void packBlockState(std::size_t block, SendBuffer& buf) {
        forEachStateSpan(block, [&](real_t* p, std::size_t n) {
            buf.putBytes(p, n * sizeof(real_t));
        });
    }

    /// Inverse of packBlockState: writes blockStateBytes(block) bytes from
    /// `rb` into the slots that hold the canonical PDFs under the current
    /// tier and AA parity (restore the step counter first). Touches no other
    /// slot. Callers check the payload size beforehand: a short buffer
    /// throws BufferError after part of the block was written.
    void unpackBlockState(std::size_t block, RecvBuffer& rb) {
        forEachStateSpan(block, [&](real_t* p, std::size_t n) {
            rb.getBytes(p, n * sizeof(real_t));
        });
    }

    /// Measured sweep (collide+stream) seconds per local block, accumulated
    /// since the last reset — the feed of the rebalance LoadModel. Indexed
    /// like forest().blocks().
    const std::vector<double>& blockSweepSeconds() const { return blockSweepSeconds_; }
    void resetBlockSweepSeconds() {
        std::fill(blockSweepSeconds_.begin(), blockSweepSeconds_.end(), 0.0);
    }

    /// Global time-step counter: incremented by run(), restored by
    /// checkpointLoad() so a resumed simulation continues its numbering.
    std::uint64_t currentStep() const { return currentStep_; }
    void setCurrentStep(std::uint64_t step) { currentStep_ = step; }

    /// Invoked at the top of every time step with the global step index.
    /// Fault drills hook FaultyComm::beginStep here; anything thrown
    /// propagates out of run() like a communication failure.
    void setPreStepCallback(std::function<void(std::uint64_t)> cb) {
        preStep_ = std::move(cb);
    }

    /// Structural hook invoked between time steps (after preStep, before the
    /// ghost exchange). Unlike preStep it is *allowed to mutate the block
    /// structure* — the rebalance subsystem runs its migration epochs here.
    /// Must behave identically (collectively) on every rank.
    void setStepHook(std::function<void(std::uint64_t)> hook) {
        stepHook_ = std::move(hook);
    }

    /// Enables the periodic health guard: every policy.checkEvery steps the
    /// run loop allreduces NaN/Inf counts and total mass; on violation it
    /// emergency-checkpoints, logs an ERROR diagnosis and throws HealthError
    /// on all ranks (see sim/Health.h).
    void attachHealthMonitor(const HealthPolicy& policy) {
        health_ = std::make_unique<HealthMonitor>(policy);
        health_->setViolationHook(
            [this](const HealthReport&) { dumpFlightRecorder("health-violation"); });
    }
    HealthMonitor* healthMonitor() { return health_.get(); }

    // ---- flight recorder & live performance diagnostics -------------------

    /// Per-step telemetry ring, always recording (see obs/FlightRecorder.h).
    obs::FlightRecorder& flightRecorder() { return flight_; }
    const obs::FlightRecorder& flightRecorder() const { return flight_; }

    /// Filename prefix of `.wfr` dumps (default "walb"): rank N writes
    /// `<prefix>.r<N>.s<step>.wfr` — rank AND step are embedded so that a
    /// dying fleet dumping concurrently (or the same rank dumping again
    /// after a recovery rewind) never clobbers an earlier dump.
    void setFlightRecorderDumpPrefix(const std::string& prefix) {
        flightDumpPrefix_ = prefix;
    }
    const std::string& flightRecorderDumpPrefix() const { return flightDumpPrefix_; }

    /// Dumps this rank's flight-recorder history to
    /// `<prefix>.r<rank>.s<step>.wfr`. Runs automatically when a CommError
    /// surfaces on this rank or the health monitor aborts; callable any time
    /// for a voluntary snapshot. Not collective. Returns the written path,
    /// empty on IO failure.
    std::string dumpFlightRecorder(const std::string& reason) {
        const std::string path = flightDumpPrefix_ + ".r" +
                                 std::to_string(comm_->rank()) + ".s" +
                                 std::to_string(currentStep_) + ".wfr";
        std::string err;
        if (!flight_.dump(path, comm_->rank(), comm_->size(), &err)) {
            WALB_LOG_ERROR("flight recorder dump to '" << path << "' failed: " << err);
            return "";
        }
        WALB_LOG_INFO("flight recorder dumped to '" << path << "' (" << flight_.size()
                                                    << " samples, reason: " << reason
                                                    << ")");
        return path;
    }

    /// Straggler-detection knobs; see obs::StragglerDetector for the model.
    struct StragglerOptions {
        std::uint64_t detectEvery = 5; ///< steps between collective epochs
        double alpha = 0.3;            ///< EWMA weight of the newest step
        double relThreshold = 1.5;     ///< flag at this multiple of the median
        double madK = 3.0;             ///< and this many MAD-sigmas above it
    };

    /// Turns on periodic collective straggler detection inside run(). Off by
    /// default: each epoch allgathers one double per rank, and a collective
    /// would deadlock worlds where a rank can die mid-run — fault drills
    /// keep it off and read the flight-recorder dumps post mortem instead.
    void enableStragglerDetection(const StragglerOptions& opt) {
        stragglerOptions_ = opt;
        straggler_ = obs::StragglerDetector(opt.alpha, opt.relThreshold, opt.madK);
        stragglerEnabled_ = true;
    }
    void enableStragglerDetection() { enableStragglerDetection(StragglerOptions{}); }
    const obs::StragglerDetector& stragglerDetector() const { return straggler_; }
    /// Verdict of the most recent detection epoch (default before the first).
    const obs::StragglerVerdict& lastStragglerVerdict() const {
        return lastStragglerVerdict_;
    }
    /// First step at which any rank was flagged as a straggler; -1 if never.
    std::int64_t firstStragglerDetectedStep() const { return firstStragglerStep_; }

    /// Model-vs-measured wiring: this rank's ECM/machine-model MLUP/s
    /// prediction (see perf/Ecm.h). When > 0, run() exports the
    /// `perf.predicted_mlups` and `perf.efficiency` gauges alongside the
    /// measured `sim.mlups`.
    void setPerfReference(double predictedMlups) { perfReferenceMlups_ = predictedMlups; }

    /// Artificial per-step compute load (busy spin inside the sweep phase) —
    /// the lever behind straggler drills and rebalance experiments. Zero
    /// disables.
    void setSweepThrottle(std::chrono::microseconds perStep) { sweepThrottle_ = perStep; }

    /// Boundary parameters are stored here as well as pushed into the live
    /// boundary handlings: applyBlockAssignment() rebuilds the handlings
    /// from scratch, and the rebuilt ones must keep the configured values.
    void setWallVelocity(const Vec3& u) {
        wallVelocity_ = u;
        for (auto& b : boundaries_) b->setWallVelocity(u);
    }
    void setPressureDensity(real_t rho) {
        pressureDensity_ = rho;
        for (auto& b : boundaries_) b->setPressureDensity(rho);
    }

    uint_t localFluidCells() const {
        uint_t n = 0;
        for (const auto& r : runs_) n += r.fluidCells;
        return n;
    }
    uint_t globalFluidCells() {
        // walb-lint: allow(blocking): diagnostic collective, reached by all ranks; the run comm's recv deadline applies
        return vmpi::allreduceSum(*comm_, std::uint64_t(localFluidCells()));
    }

    /// Selects the communication ordering of the step pipeline. Overlapped:
    /// ghost sends are posted first, core cells (stencil never reaches a
    /// remote-backed ghost slice) are swept while the halos are in flight,
    /// and the shell cells follow once finishExchange() has drained them.
    /// Synchronous (the default): the exchange finishes before the core
    /// phase, and the core is the whole block. Bit-exact either way — shell
    /// cells only run after their halos landed, and core/shell covers every
    /// fluid cell exactly once. A change rebuilds the core/shell split.
    void setOverlapCommunication(bool on) {
        if (on == overlap_) return;
        overlap_ = on;
        buildCoreShellSplit();
    }
    bool overlapCommunication() const { return overlap_; }

    /// Shell size of the current block assignment and ordering (empty under
    /// the synchronous ordering).
    uint_t localShellCells() const {
        uint_t n = 0;
        for (const auto& cs : coreShellRuns_) n += cs.shell.fluidCells;
        return n;
    }

    /// Cumulative seconds of ghost-exchange latency that were overlapped
    /// with (hidden behind) the core phase, resp. left exposed on the
    /// critical path (pack/send + blocking drain). Synchronous ordering:
    /// nothing runs inside the arrival window, so all of it is exposed.
    /// Feeds `comm.hidden_seconds` / `comm.exposed_seconds` /
    /// `comm.hidden_fraction`.
    double commHiddenSeconds() const { return commHiddenSeconds_; }
    double commExposedSeconds() const { return commExposedSeconds_; }

    template <typename Op>
    void run(uint_t numSteps, const Op& op) {
        // Cached metric handles: one map lookup per run, not per step.
        obs::Counter& steps = metrics_.counter("sim.steps");
        obs::Counter& bytesSent = metrics_.counter("comm.bytesSent");
        obs::Counter& bytesRecv = metrics_.counter("comm.bytesReceived");
        obs::Counter& msgsSent = metrics_.counter("comm.messagesSent");
        obs::Counter& msgsRecv = metrics_.counter("comm.messagesReceived");
        obs::Gauge& localCopyBytes = metrics_.gauge("comm.local_copy_bytes");
        obs::Histogram& stepSecondsHist = metrics_.histogram(
            "sim.step_seconds", obs::logHistogramEdges(1e-6, 10.0, 4));
        // Timer handles are stable for the pool's lifetime (node-based map),
        // so the per-step phase deltas below cost two subtractions.
        Timer& boundaryTimer = timing_["boundary"];
        Timer& collideTimer = timing_["collideStream"];

        Timer wall;
        wall.start();
        for (uint_t i = 0; i < numSteps; ++i) {
            if (preStep_) preStep_(currentStep_);
            // The structural hook may replace forest_/comm_scheme_ (block
            // migration), so per-step state is re-read below, never cached
            // across iterations.
            if (stepHook_) stepHook_(currentStep_);
            const double boundary0 = boundaryTimer.total();
            const double collide0 = collideTimer.total();
            const auto step0 = std::chrono::steady_clock::now();
            step(op);
            const double stepSeconds =
                elapsedSeconds(step0, std::chrono::steady_clock::now());
            const vmpi::BufferSystem& bs = comm_scheme_->bufferSystem();
            bytesSent.inc(bs.lastSendBytes());
            bytesRecv.inc(bs.lastRecvBytes());
            msgsSent.inc(bs.lastSendMessages());
            msgsRecv.inc(bs.lastRecvMessages());
            localCopyBytes.set(double(comm_scheme_->localCopyBytes()));
            steps.inc();

            obs::StepSample sample;
            sample.step = currentStep_;
            sample.collideSeconds = collideTimer.total() - collide0;
            sample.shellSeconds = stepShellSeconds_;
            sample.boundarySeconds = boundaryTimer.total() - boundary0;
            sample.packSeconds = stepPackSeconds_;
            sample.exchangeSeconds = stepExchangeSeconds_;
            sample.totalSeconds = stepSeconds;
            sample.mlups =
                stepSeconds > 0 ? double(localFluidCells()) / stepSeconds / 1e6 : 0.0;
            sample.imbalance = straggler_.lastImbalance();
            sample.bytesMoved = bs.lastSendBytes() + bs.lastRecvBytes();
            sample.messages = bs.lastSendMessages() + bs.lastRecvMessages();
            sample.kernelTier = std::uint8_t(tier_);
            // currentStep_ still indexes the step that just ran, so this is
            // the parity that step's kernels executed under.
            sample.aaParity = usesAaPattern() ? std::uint8_t(aaParity()) : 0;
            flight_.record(sample);
            stepSecondsHist.record(stepSeconds);
            // The detector smooths this rank's *work* share, not the whole
            // step: bulk-synchronous stepping equalizes total step times (a
            // slow rank surfaces as exchange wait on every fast rank), so
            // only the non-wait share separates a straggler from its fleet.
            straggler_.record(std::max(stepSeconds - stepExchangeSeconds_, 0.0));

            ++currentStep_;
            if (stragglerEnabled_ && stragglerOptions_.detectEvery > 0 &&
                currentStep_ % stragglerOptions_.detectEvery == 0)
                detectStragglers();
            if (health_ && health_->policy().checkEvery > 0 &&
                currentStep_ % health_->policy().checkEvery == 0)
                health_->check(*this, currentStep_);
        }
        wall.stop();
        if (wall.total() > 0)
            metrics_.gauge("sim.mlups").set(double(localFluidCells()) * double(numSteps) /
                                            wall.total() / 1e6);
        metrics_.gauge("sim.fluidCells").set(double(localFluidCells()));
        if (usesAaPattern())
            metrics_.gauge("perf.aa_parity").set(double(std::uint8_t(aaParity())));
        metrics_.gauge("comm.hidden_seconds").set(commHiddenSeconds_);
        metrics_.gauge("comm.exposed_seconds").set(commExposedSeconds_);
        metrics_.gauge("comm.begin_seconds").set(commBeginSeconds_);
        metrics_.gauge("comm.finish_seconds").set(commFinishSeconds_);
        const double commTotal = commHiddenSeconds_ + commExposedSeconds_;
        metrics_.gauge("comm.hidden_fraction")
            .set(commTotal > 0 ? commHiddenSeconds_ / commTotal : 0.0);
        if (perfReferenceMlups_ > 0.0) {
            metrics_.gauge("perf.predicted_mlups").set(perfReferenceMlups_);
            metrics_.gauge("perf.efficiency")
                .set(metrics_.gauge("sim.mlups").value() / perfReferenceMlups_);
        }
    }

    // ---- cross-rank observability (collective calls) ----------------------

    /// Per-phase min/avg/max over all ranks of this rank's TimingPool.
    obs::ReducedTimingPool reduceTiming() { return obs::reduceTimingPool(*comm_, timing_); }

    /// Cross-rank reduction of all registered metrics.
    obs::ReducedMetrics reduceMetrics() { return metrics_.reduce(*comm_); }

    /// Prints the Figure-6-style report (per-phase min/avg/max table plus
    /// the communication fraction) on rank 0. Collective.
    void printFigure6Report(std::ostream& os) {
        const obs::ReducedTimingPool reduced = reduceTiming();
        const obs::ReducedMetrics metrics = reduceMetrics();
        if (comm_->rank() != 0) return;
        const auto it = metrics.gauges.find("sim.mlups");
        auto gaugeAvg = [&](const char* name, double fallback) {
            const auto g = metrics.gauges.find(name);
            return g != metrics.gauges.end() ? g->second.avg() : fallback;
        };
        const auto hist = metrics.histograms.find("sim.step_seconds");
        obs::printFigure6Report(os, reduced, "communication",
                                it != metrics.gauges.end() ? it->second.avg() : 0.0,
                                gaugeAvg("comm.hidden_seconds", -1.0),
                                gaugeAvg("comm.exposed_seconds", -1.0),
                                hist != metrics.histograms.end() ? &hist->second
                                                                 : nullptr);
    }

    /// Gathers all ranks' phase traces and writes one Chrome trace_event
    /// JSON file from rank 0 (load it in chrome://tracing). Collective;
    /// returns success on rank 0, true elsewhere.
    bool writeChromeTrace(const std::string& path) {
        const auto events = obs::TraceRecorder::gather(*comm_, trace_);
        const std::uint64_t dropped = obs::TraceRecorder::gatherDropped(*comm_, trace_);
        if (comm_->rank() != 0) return true;
        std::ofstream os(path, std::ios::binary);
        if (!os) return false;
        obs::TraceRecorder::writeChromeJson(os, events, "walb", dropped);
        return bool(os);
    }

    /// Velocity at a global cell, available on every rank (owner
    /// broadcasts through an allreduce; exactly one rank owns the cell).
    Vec3 gatherCellVelocity(const Cell& global) {
        double data[4] = {0, 0, 0, 0};
        const std::int32_t b = forest_.findBlockForGlobalCell(global);
        if (b >= 0) {
            const Cell off = forest_.globalCellOffset(forest_.blocks()[std::size_t(b)]);
            const Cell local = global - off;
            const auto pdfs = cellCanonicalPdfs(std::size_t(b), local.x, local.y, local.z);
            const Vec3 u = lbm::momentum<M>(pdfs) / lbm::density<M>(pdfs);
            data[0] = u[0];
            data[1] = u[1];
            data[2] = u[2];
            data[3] = 1;
        }
        // walb-lint: allow(blocking): diagnostic collective, reached by all ranks; the run comm's recv deadline applies
        comm_->allreduce(std::span<double>(data, 4), vmpi::ReduceOp::Sum);
        WALB_ASSERT(data[3] == 1.0, "global cell owned by " << data[3] << " ranks");
        return {data[0], data[1], data[2]};
    }

    /// Total fluid mass over all ranks.
    real_t gatherTotalMass() {
        real_t mass = 0;
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
            const auto& flags = forest_.getData<field::FlagField>(b, flagId_);
            flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                if (flags.get(x, y, z) & masks_.fluid)
                    mass += lbm::density<M>(cellCanonicalPdfs(b, x, y, z));
            });
        }
        // walb-lint: allow(blocking): diagnostic collective, reached by all ranks; the run comm's recv deadline applies
        return vmpi::allreduceSum(*comm_, mass);
    }

    /// Canonical PDF set of one local cell — parity-normalized for the AA
    /// tiers, a plain read otherwise. Macroscopic accessors build on this so
    /// all tiers report physically comparable values.
    std::array<real_t, M::Q> cellCanonicalPdfs(std::size_t block, cell_idx_t x, cell_idx_t y,
                                               cell_idx_t z) {
        const auto& src = forest_.getData<lbm::PdfField>(block, srcId_);
        if (usesAaPattern()) return lbm::aaCanonicalPdfs(src, aaParity(), x, y, z);
        return lbm::getPdfs<M>(src, x, y, z);
    }

    std::size_t bytesLastExchange() const { return comm_scheme_->bytesLastExchange(); }

    /// Collective checkpoint of the simulation state (every block's
    /// packBlockState payload, current step). Thin member wrapper over
    /// sim::checkpointSave (see sim/Checkpoint.h for the format) that feeds
    /// the obs metrics `ckpt.bytes` (counter) and `ckpt.seconds` (cumulative
    /// gauge). All ranks return the same success flag.
    bool saveCheckpoint(const std::string& path, std::string* error = nullptr) {
        Timer t;
        t.start();
        std::size_t bytes = 0;
        const bool ok = checkpointSave(*this, path, currentStep_, &bytes, error);
        t.stop();
        metrics_.counter("ckpt.bytes").inc(bytes);
        ckptSeconds_ += t.total();
        metrics_.gauge("ckpt.seconds").set(ckptSeconds_);
        return ok;
    }

    /// Collective restart from a checkpoint written by saveCheckpoint().
    /// Restores the state of this rank's blocks (CRC- and geometry-checked
    /// before any block is written) and the simulation's step counter;
    /// returns false with a diagnosis instead of throwing on a missing,
    /// corrupt or mismatched file.
    bool loadCheckpoint(const std::string& path, std::string* error = nullptr) {
        return checkpointLoad(*this, path, nullptr, error);
    }

    /// Order-independent fingerprint of the complete distributed PDF state
    /// (collective). Equal digests <=> bit-exact equal states.
    std::uint64_t stateDigest() { return checkpointDigest(*this); }

private:
    /// Configured boundary parameters, reapplied whenever the per-block
    /// boundary handlings are rebuilt (defaults match lbm::BoundaryHandling).
    Vec3 wallVelocity_{0, 0, 0};
    real_t pressureDensity_ = real_c(1);

    using Clock = std::chrono::steady_clock;

    static double elapsedSeconds(Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    }

    /// One fluid sweep of block b over `chunk` of `numChunks` contiguous
    /// slices of a run subset (whole block, core or shell). The core phase
    /// sweeps in several chunks while an exchange is in flight, so it can
    /// poll for halo arrivals between them; the union over all chunks is
    /// exactly the subset, and every cell is updated by the same kernel
    /// either way. An empty slice costs no kernel call.
    template <typename Op>
    void sweepSubset(std::size_t b, const lbm::FluidRunList& runs, lbm::AaParity parity,
                     const Op& op, std::size_t chunk = 0, std::size_t numChunks = 1) {
        const std::size_t lo = runs.runs.size() * chunk / numChunks;
        const std::size_t hi = runs.runs.size() * (chunk + 1) / numChunks;
        if (lo == hi) return;
        const auto sweepBegin = std::chrono::steady_clock::now();
        sweepRuns(tier_, forest_.getData<lbm::PdfField>(b, srcId_),
                  forest_.getData<lbm::PdfField>(b, dstId_), parity, runs.runs.data() + lo,
                  hi - lo, op, kernels_);
        blockSweepSeconds_[b] +=
            elapsedSeconds(sweepBegin, std::chrono::steady_clock::now());
    }

    /// One collective straggler-detection epoch (enableStragglerDetection):
    /// allgathers the per-rank step-time EWMAs, publishes the verdict as
    /// gauges and drops a zero-length trace marker when anyone is flagged.
    void detectStragglers() {
        if (!straggler_.hasSample()) return;
        lastStragglerVerdict_ = straggler_.detect(*comm_, currentStep_);
        const obs::StragglerVerdict& v = lastStragglerVerdict_;
        metrics_.gauge("perf.straggler_ranks").set(double(v.stragglers.size()));
        metrics_.gauge("perf.step_seconds_ewma").set(straggler_.ewma());
        metrics_.gauge("perf.fleet_median_step_seconds").set(v.median);
        metrics_.gauge("perf.imbalance").set(straggler_.lastImbalance());
        if (v.stragglers.empty()) return;
        if (firstStragglerStep_ < 0) firstStragglerStep_ = std::int64_t(v.step);
        trace_.begin("straggler-detected");
        trace_.end();
        if (comm_->rank() == 0) {
            std::string who;
            for (int r : v.stragglers)
                who += (who.empty() ? "" : ",") + std::to_string(r);
            WALB_LOG_WARNING("step " << currentStep_ << ": straggler rank(s) " << who
                                     << " (fleet median step " << v.median << " s)");
        }
    }

    /// Busy spin for the configured throttle — unlike a sleep, the core
    /// stays busy, which is what a genuinely slow sweep looks like to the
    /// scheduler and to the phase clocks.
    void applySweepThrottle() {
        if (sweepThrottle_.count() <= 0) return;
        const auto until = std::chrono::steady_clock::now() + sweepThrottle_;
        while (std::chrono::steady_clock::now() < until) {
        }
    }

    void logExchangeError(const vmpi::CommError& e) {
        if (e.kind == vmpi::CommError::Kind::DeadlineExceeded)
            metrics_.counter("comm.deadline_misses").inc();
        WALB_LOG_ERROR("step " << currentStep_ << ": ghost exchange failed: " << e.what());
    }

    /// One time step of the pipeline described in the file comment. The
    /// streaming state (two-grid, AA even, AA odd) is resolved once here;
    /// the exchange mode, the boundary phases and the sweeps all follow it.
    /// The synchronous ordering is the same pipeline with the exchange
    /// finished inside the first communication phase; its core is the whole
    /// block, so it has no shell phase. src/dst swap happens at the very
    /// end: a pull-scheme step only reads src and writes dst, and blocks
    /// never read each other's fields directly, so deferring the per-block
    /// swap is bit-exact.
    template <typename Op>
    void step(const Op& op) {
        stepPackSeconds_ = stepExchangeSeconds_ = stepShellSeconds_ = 0.0;
        const lbm::AaParity parity = aaParity();
        const lbm::Streaming streaming = lbm::streamingOf(usesAaPattern(), parity);
        comm_scheme_->setExchangeMode(exchangeModeFor(streaming));
        Clock::time_point posted, lastArrival;
        communicationPhase([&] {
            posted = lastArrival = beginExchange();
            if (!overlap_) finishExchange(lastArrival);
        });
        const Clock::time_point coreBegin = Clock::now();
        sweepPhase(true, streaming, parity, op, lastArrival);
        const Clock::time_point coreEnd = Clock::now();
        if (overlap_) {
            communicationPhase([&] { finishExchange(lastArrival); });
            stepShellSeconds_ = sweepPhase(false, streaming, parity, op, lastArrival);
        }
        // Hidden: the part of the arrival window (sends posted -> last
        // arrival) that the core phase covered. The synchronous ordering
        // starts its core phase after the last arrival, so this adds 0.
        commHiddenSeconds_ += std::max(
            0.0, elapsedSeconds(std::max(posted, coreBegin), std::min(lastArrival, coreEnd)));
        if (streaming == lbm::Streaming::TwoGrid)
            for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
                forest_.getData<lbm::PdfField>(b, srcId_)
                    .swapDataWith(forest_.getData<lbm::PdfField>(b, dstId_));
    }

    /// Boundary links, then the sweep, of the core (resp. shell) part of
    /// every block, under the `boundary` and `collideStream` phase timers.
    /// While an exchange is in flight each block's part is swept in chunks
    /// with arrivals drained in between: the earlier an arrival is drained,
    /// the more of the exchange latency the sweep hides. The step's last
    /// sweep phase carries the sweep throttle. Returns the seconds of the
    /// sweep (throttle included).
    template <typename Op>
    double sweepPhase(bool core, lbm::Streaming streaming, lbm::AaParity parity, const Op& op,
                      Clock::time_point& lastArrival) {
        {
            ScopedTimer t(timing_["boundary"]);
            obs::ScopedTrace tr(trace_, "boundary");
            for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
                if (core) boundaries_[b]->applyCore(pdfField(b), streaming);
                else boundaries_[b]->applyShell(pdfField(b), streaming);
            }
        }
        ScopedTimer t(timing_["collideStream"]);
        obs::ScopedTrace tr(trace_, "collideStream");
        const Clock::time_point sweep0 = Clock::now();
        constexpr std::size_t kArrivalPollChunks = 8;
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
            const lbm::FluidRunList& runs =
                core ? coreShellRuns_[b].core : coreShellRuns_[b].shell;
            const std::size_t chunks =
                comm_scheme_->exchangeInProgress() ? kArrivalPollChunks : 1;
            for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
                sweepSubset(b, runs, parity, op, chunk, chunks);
                if (comm_scheme_->exchangeInProgress() && comm_scheme_->progress() > 0)
                    lastArrival = Clock::now();
            }
        }
        if (!core || !overlap_) applySweepThrottle();
        return elapsedSeconds(sweep0, Clock::now());
    }

    /// Runs `fn` under the `communication` phase timer; a CommError it
    /// raises is logged (and counted) before it propagates.
    template <typename Fn>
    void communicationPhase(const Fn& fn) {
        try {
            ScopedTimer t(timing_["communication"]);
            obs::ScopedTrace tr(trace_, "communication");
            fn();
        } catch (const vmpi::CommError& e) {
            logExchangeError(e);
            throw;
        }
    }

    /// First half of the step's exchange: local ghost copies, then pack and
    /// post the remote sends. Returns when the sends were posted. Local
    /// copies are memory traffic, not network time, so they are left out of
    /// the exposed gauge.
    Clock::time_point beginExchange() {
        comm_scheme_->copyLocalGhosts();
        const Clock::time_point t0 = Clock::now();
        comm_scheme_->packAndPost();
        const Clock::time_point posted = Clock::now();
        stepPackSeconds_ = elapsedSeconds(t0, posted);
        commBeginSeconds_ += stepPackSeconds_;
        commExposedSeconds_ += stepPackSeconds_;
        return posted;
    }

    /// Second half: blocks until every halo message is unpacked. Moves
    /// `lastArrival` to the end of the drain if messages were still pending.
    void finishExchange(Clock::time_point& lastArrival) {
        const bool pendingBefore = comm_scheme_->pendingReceives() > 0;
        const Clock::time_point f0 = Clock::now();
        comm_scheme_->finishExchange();
        const Clock::time_point f1 = Clock::now();
        if (pendingBefore) lastArrival = f1;
        stepExchangeSeconds_ = elapsedSeconds(f0, f1);
        commFinishSeconds_ += stepExchangeSeconds_;
        commExposedSeconds_ += stepExchangeSeconds_;
    }

    /// Ghost-exchange mode of a streaming state: the AA odd step opens with
    /// the forward (ghost-fill) exchange, the even step with the reverse one.
    static PdfCommScheme::ExchangeMode exchangeModeFor(lbm::Streaming s) {
        switch (s) {
            case lbm::Streaming::AaOdd: return PdfCommScheme::ExchangeMode::AaForward;
            case lbm::Streaming::AaEven: return PdfCommScheme::ExchangeMode::AaReverse;
            case lbm::Streaming::TwoGrid: break;
        }
        return PdfCommScheme::ExchangeMode::TwoGrid;
    }

    /// Calls fn(pointer, count) for every contiguous span of block `block`'s
    /// state (see packBlockState): per population a, per fluid x-run, the
    /// slots holding P(x, a) — (x, a) for two-grid, (x, abar) at AA parity
    /// Odd, (x + c_a, a) at AA parity Even (the storage invariants of
    /// lbm/KernelAa.h).
    template <typename Fn>
    void forEachStateSpan(std::size_t block, const Fn& fn) {
        lbm::PdfField& pdf = pdfField(block);
        WALB_ASSERT(pdf.xStride() == 1, "block state spans assume the fzyx layout");
        const bool aa = usesAaPattern();
        const bool even = aaParity() == lbm::AaParity::Even;
        const cell_idx_t shift = aa && even ? 1 : 0;
        for (uint_t a = 0; a < M::Q; ++a) {
            const cell_idx_t f = cell_idx_c(aa && !even ? M::inv[a] : a);
            for (const auto& r : runs_[block].runs)
                fn(pdf.dataAt(r.xBegin + shift * M::c[a][0], r.y + shift * M::c[a][1],
                              r.z + shift * M::c[a][2], f),
                   std::size_t(r.xEnd - r.xBegin + 1));
        }
    }

    /// (Re)creates every per-block datum of the current forest_: PDF fields
    /// (equilibrium-initialized), flag fields (derived through initFlags_),
    /// boundary handlings, fluid runs and their core/shell split, the
    /// ghost-exchange scheme and the per-block sweep-time accumulators. Shared by the constructor
    /// and applyBlockAssignment().
    void buildBlockData() {
        const cell_idx_t cx = forest_.cellsX(), cy = forest_.cellsY(), cz = forest_.cellsZ();
        srcId_ = forest_.addBlockData<lbm::PdfField>([&](const auto&) {
            return std::make_unique<lbm::PdfField>(lbm::makePdfField<M>(cx, cy, cz));
        });
        // The AA tiers update in place — the shadow grid shrinks to a token
        // allocation and the per-block PDF footprint halves.
        dstId_ = forest_.addBlockData<lbm::PdfField>([&](const auto&) {
            return std::make_unique<lbm::PdfField>(
                usesAaPattern() ? lbm::makePdfField<M>(1, 1, 1)
                                : lbm::makePdfField<M>(cx, cy, cz));
        });
        flagId_ = forest_.addBlockData<field::FlagField>([&](const bf::BlockForest::Block& b) {
            auto ff = std::make_unique<field::FlagField>(cx, cy, cz, 1);
            masks_ = lbm::BoundaryFlags::registerOn(*ff);
            initFlags_(*ff, masks_, b, geometry::CellMapping{b.aabb, forest_.dx()});
            return ff;
        });
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
            auto& flags = forest_.getData<field::FlagField>(b, flagId_);
            boundaries_.push_back(std::make_unique<lbm::BoundaryHandling<M>>(flags, masks_));
            boundaries_.back()->setWallVelocity(wallVelocity_);
            boundaries_.back()->setPressureDensity(pressureDensity_);
            runs_.push_back(lbm::buildFluidRuns(flags, masks_.fluid));
            // Uniform equilibrium including ghosts is also a valid AA state
            // at the initial parity (Even): pdf(x, a) = P(x - e_a, a) holds
            // trivially when every cell carries the same PDF set. After a
            // mid-run rebuild the migrator restores the real state on top
            // before any sweep runs.
            lbm::initEquilibrium<M>(forest_.getData<lbm::PdfField>(b, srcId_), 1.0, {0, 0, 0});
            if (!usesAaPattern())
                lbm::initEquilibrium<M>(forest_.getData<lbm::PdfField>(b, dstId_), 1.0,
                                        {0, 0, 0});
        }
        buildCoreShellSplit();
        comm_scheme_ = std::make_unique<PdfCommScheme>(
            forest_, *comm_, srcId_, PdfCommScheme::FluidFlags{flagId_, masks_.fluid});
        syncExchangeMode();
        blockSweepSeconds_.assign(forest_.blocks().size(), 0.0);

        std::size_t pdfBytes = 0;
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
            pdfBytes += (forest_.getData<lbm::PdfField>(b, srcId_).allocCells() +
                         forest_.getData<lbm::PdfField>(b, dstId_).allocCells()) *
                        sizeof(real_t);
        metrics_.gauge("mem.pdf_bytes").set(double(pdfBytes));
    }

    /// Splits every block's fluid runs and boundary links into core and
    /// shell for the active communication ordering. Overlapped: a ghost
    /// region backed by a block on *another rank* is filled by a halo
    /// message, so the cells that read it are shell, and so are the links
    /// whose boundary slot the unpack overwrites (their unique readers are
    /// shell cells). Synchronous: the exchange has finished before the core
    /// phase, so the remote mask is empty and the core is the whole block.
    void buildCoreShellSplit() {
        const cell_idx_t cx = forest_.cellsX(), cy = forest_.cellsY(), cz = forest_.cellsZ();
        coreShellRuns_.clear();
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b) {
            std::array<bool, 26> remote{};
            if (overlap_)
                for (const auto& n : forest_.blocks()[b].neighbors)
                    if (n.localIndex < 0) remote[lbm::dirIndex26(n.dir)] = true;
            coreShellRuns_.push_back(lbm::splitFluidRuns<M>(runs_[b], cx, cy, cz, remote));
            boundaries_[b]->partitionForOverlap([&](const Cell& c) {
                const std::array<int, 3> g = {c.x < 0 ? -1 : (c.x >= cx ? 1 : 0),
                                              c.y < 0 ? -1 : (c.y >= cy ? 1 : 0),
                                              c.z < 0 ? -1 : (c.z >= cz ? 1 : 0)};
                if (g[0] == 0 && g[1] == 0 && g[2] == 0) return false;
                return remote[lbm::dirIndex26(g)];
            });
        }
    }

    /// Points the ghost-exchange scheme at the mode of the next step.
    void syncExchangeMode() {
        comm_scheme_->setExchangeMode(
            exchangeModeFor(lbm::streamingOf(usesAaPattern(), aaParity())));
    }

    /// Last-breath diagnostics: when a CommError surfaces on this rank
    /// (deadline miss, corrupt payload, killed rank), dump the flight
    /// recorder before the error unwinds — the telemetry survives even when
    /// a caller absorbs the exception. One-shot until resetErrorDump().
    /// Installed at construction and re-installed by rebindComm().
    void installErrorObserver() {
        comm_->setErrorObserver([this](const vmpi::CommError& e) {
            if (errorDumped_) return;
            errorDumped_ = true;
            dumpFlightRecorder(std::string("comm-error: ") +
                               vmpi::CommError::kindName(e.kind));
        });
    }

    vmpi::Comm* comm_;
    bf::SetupBlockForest setup_; ///< global structure, kept current by migrations
    FlagInitializer initFlags_;  ///< retained: migration re-derives flag fields
    bf::BlockForest forest_;
    KernelTier tier_;
    lbm::BoundaryFlags masks_{};
    bf::BlockForest::BlockDataID srcId_ = 0, dstId_ = 0, flagId_ = 0;
    std::vector<std::unique_ptr<lbm::BoundaryHandling<M>>> boundaries_;
    std::vector<lbm::FluidRunList> runs_;
    std::vector<lbm::CoreShellRuns> coreShellRuns_;
    bool overlap_ = false;
    double commHiddenSeconds_ = 0.0;
    double commExposedSeconds_ = 0.0;
    double commBeginSeconds_ = 0.0;  ///< pack + send posting (both orderings)
    double commFinishSeconds_ = 0.0; ///< blocking drain (both orderings)
    SimdKernels kernels_;
    std::unique_ptr<PdfCommScheme> comm_scheme_;
    TimingPool timing_;
    obs::MetricsRegistry metrics_;
    obs::TraceRecorder trace_;
    std::function<void(std::uint64_t)> preStep_;
    std::function<void(std::uint64_t)> stepHook_;
    std::unique_ptr<HealthMonitor> health_;
    std::vector<double> blockSweepSeconds_;
    std::uint64_t currentStep_ = 0;
    double ckptSeconds_ = 0.0;

    // ---- flight recorder & live perf diagnostics state --------------------
    obs::FlightRecorder flight_;
    std::string flightDumpPrefix_ = "walb";
    bool errorDumped_ = false; ///< one automatic dump per surfaced CommError run
    obs::StragglerDetector straggler_;
    StragglerOptions stragglerOptions_;
    bool stragglerEnabled_ = false;
    obs::StragglerVerdict lastStragglerVerdict_;
    std::int64_t firstStragglerStep_ = -1;
    double perfReferenceMlups_ = 0.0;
    std::chrono::microseconds sweepThrottle_{0};
    // Per-step phase scratch, reset at the top of each step() and
    // harvested into the StepSample by run().
    double stepPackSeconds_ = 0.0;
    double stepExchangeSeconds_ = 0.0;
    double stepShellSeconds_ = 0.0;
};

/// Drives a simulation under the CheckpointOptions command-line contract:
/// optionally restarts from `opt.restartFrom`, then advances to `numSteps`
/// total steps (or `opt.steps` when given), saving a checkpoint every
/// `opt.every` steps and at the end, and stopping early after
/// `opt.stopAfter` steps (simulated process death — no final checkpoint
/// beyond the last periodic one). Returns the number of steps executed in
/// this process. Throws std::runtime_error if a requested restart file
/// cannot be loaded.
template <typename Op>
std::uint64_t runWithCheckpoints(DistributedSimulation& sim, const CheckpointOptions& opt,
                                 uint_t numSteps, const Op& op) {
    if (opt.steps > 0) numSteps = uint_t(opt.steps);
    if (!opt.restartFrom.empty()) {
        std::string err;
        if (!sim.loadCheckpoint(opt.restartFrom, &err))
            throw std::runtime_error("restart from '" + opt.restartFrom + "' failed: " + err);
        WALB_LOG_INFO("restarted from '" << opt.restartFrom << "' at step "
                                         << sim.currentStep());
    }

    const std::uint64_t target =
        opt.stopAfter > 0 ? std::min<std::uint64_t>(numSteps, opt.stopAfter)
                          : std::uint64_t(numSteps);
    std::uint64_t executed = 0;
    while (sim.currentStep() < target) {
        // Next stop: the upcoming checkpoint boundary or the target.
        std::uint64_t next = target;
        if (opt.every > 0) {
            const std::uint64_t boundary =
                (sim.currentStep() / opt.every + 1) * opt.every;
            next = std::min(next, boundary);
        }
        const uint_t chunk = uint_t(next - sim.currentStep());
        sim.run(chunk, op);
        executed += chunk;
        const bool atPeriodicBoundary =
            opt.every > 0 && sim.currentStep() % opt.every == 0;
        const bool atEnd = sim.currentStep() >= target;
        if (atPeriodicBoundary || (atEnd && opt.every > 0)) {
            std::string err;
            if (!sim.saveCheckpoint(opt.path, &err))
                WALB_LOG_ERROR("checkpoint save to '" << opt.path << "' failed: " << err);
            else
                WALB_LOG_INFO("checkpoint written to '" << opt.path << "' at step "
                                                        << sim.currentStep());
        }
    }
    return executed;
}

/// Verdict of the between-chunk control callback of runResumableChunks().
enum class ChunkControl : std::uint8_t { Continue = 0, Preempt = 1 };

/// Result of one runResumableChunks() leg.
struct ResumableRunResult {
    bool preempted = false;          ///< stopped early on a Preempt verdict
    std::uint64_t step = 0;          ///< sim step when the leg ended
    std::uint64_t checkpointStep = 0;///< step of the newest on-disk checkpoint
    bool hasCheckpoint = false;      ///< false when no checkpoint was written
};

/// Resumable job entry point (walb::serve): advances the simulation to
/// `targetStep` total steps in chunks of `chunkSteps`, consulting `control`
/// between chunks so an external scheduler can preempt the job at a
/// deterministic step. `control(currentStep)` MUST return the identical
/// verdict on every rank of the simulation's communicator (serve's gang
/// leader broadcasts the word before returning it) — a split verdict
/// deadlocks the next ghost exchange. Checkpoints are written every
/// `checkpointEvery` steps and on preemption, so the job can later resume
/// from `checkpointStep` via DistributedSimulation::loadCheckpoint. The
/// final completed state is NOT checkpointed here — callers digest/persist
/// it themselves. Propagates CommError from the step loop (rank failure);
/// `liveProgress`, when given, tracks the result so far and stays valid
/// across such a throw (the serve scheduler reads the last checkpoint step
/// off it when a gang member dies mid-job).
template <typename Op, typename Control>
ResumableRunResult runResumableChunks(DistributedSimulation& sim,
                                      const std::string& checkpointPath,
                                      std::uint64_t targetStep,
                                      std::uint64_t checkpointEvery,
                                      std::uint64_t chunkSteps, const Op& op,
                                      const Control& control,
                                      ResumableRunResult* liveProgress = nullptr) {
    WALB_ASSERT(chunkSteps > 0, "chunkSteps must be positive");
    ResumableRunResult local;
    ResumableRunResult& res = liveProgress ? *liveProgress : local;
    res = {};
    res.step = sim.currentStep();
    res.checkpointStep = res.step;
    res.hasCheckpoint = false;
    while (sim.currentStep() < targetStep) {
        const std::uint64_t chunk =
            std::min<std::uint64_t>(chunkSteps, targetStep - sim.currentStep());
        sim.run(uint_t(chunk), op);
        res.step = sim.currentStep();
        const bool done = sim.currentStep() >= targetStep;
        const ChunkControl word = control(sim.currentStep());
        if (word == ChunkControl::Preempt && !done) {
            std::string err;
            if (!sim.saveCheckpoint(checkpointPath, &err))
                WALB_LOG_ERROR("preemption checkpoint to '" << checkpointPath
                                                            << "' failed: " << err);
            else {
                res.checkpointStep = sim.currentStep();
                res.hasCheckpoint = true;
            }
            res.preempted = true;
            return res;
        }
        if (!done && checkpointEvery > 0 && sim.currentStep() % checkpointEvery == 0) {
            std::string err;
            if (!sim.saveCheckpoint(checkpointPath, &err))
                WALB_LOG_ERROR("periodic checkpoint to '" << checkpointPath
                                                          << "' failed: " << err);
            else {
                res.checkpointStep = sim.currentStep();
                res.hasCheckpoint = true;
            }
        }
    }
    return res;
}

} // namespace walb::sim
