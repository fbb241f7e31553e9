#pragma once
/// \file SingleBlockSimulation.h
/// Convenience driver for one-block LBM simulations (validation cases,
/// quickstart example, kernel benchmarks). It owns the PDF double buffer,
/// flag field and boundary handling, and runs the canonical time step:
///
///   1. communication — here: periodic wrap of the ghost layers,
///   2. boundary handling — write boundary values into boundary-cell slots,
///   3. fused stream-pull-collide sweep over the fluid line intervals,
///   4. src/dst swap.
///
/// The multi-block distributed driver (sim/DistributedSimulation.h) runs
/// the same sequence with real ghost-layer exchange via vmpi; both sweep
/// through sweepRuns(), the one kernel-tier dispatch.

#include <cstdint>
#include <functional>
#include <memory>

#include "core/Timer.h"
#include "lbm/Boundary.h"
#include "lbm/Communication.h"
#include "lbm/KernelAa.h"
#include "lbm/KernelAaSimd.h"
#include "lbm/KernelD3Q19Simd.h"
#include "lbm/KernelGeneric.h"
#include "lbm/PdfField.h"
#include "lbm/Sparse.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

namespace walb::sim {

/// Which optimization tier performs the sweep. Aa and AaSimd are the
/// in-place AA-pattern tiers (lbm/KernelAa.h): a single PDF grid — half the
/// PDF memory — with the even/odd kernels alternating by step parity.
enum class KernelTier { Generic, D3Q19, Simd, Aa, AaSimd };

/// True for the single-grid AA-pattern tiers (no shadow buffer, no swap).
constexpr bool isAaTier(KernelTier t) {
    return t == KernelTier::Aa || t == KernelTier::AaSimd;
}

// The numeric values are part of the .wfr v2 flight-recorder format
// (StepSample::kernelTier, decoded by obs::kernelTierName) — keep stable.
static_assert(int(KernelTier::Generic) == 0 && int(KernelTier::D3Q19) == 1 &&
              int(KernelTier::Simd) == 2 && int(KernelTier::Aa) == 3 &&
              int(KernelTier::AaSimd) == 4);

/// Row kernels of the SIMD tiers. Each holds per-thread scratch buffers, so
/// a driver keeps one set for its lifetime.
struct SimdKernels {
    lbm::KernelD3Q19Simd<> twoGrid;
    lbm::KernelAaSimd<> aa;
};

/// One fluid sweep over the runs [runs, runs + numRuns) with the kernel of
/// `tier` (`parity` selects the AA kernel; the two-grid tiers ignore it).
/// The scalar tiers run their per-cell kernel along each run: the runs hold
/// exactly the fluid cells and cell updates are order-independent, so the
/// result is bit-identical to a flag-tested whole-interior sweep. An empty
/// range makes no kernel call (the SIMD sweeps would open an OpenMP region).
template <typename Op>
void sweepRuns(KernelTier tier, lbm::PdfField& src, lbm::PdfField& dst, lbm::AaParity parity,
               const lbm::FluidRun* runs, std::size_t numRuns, const Op& op,
               SimdKernels& simd) {
    if (numRuns == 0) return;
    const auto eachCell = [&](const auto& update) {
        for (std::size_t i = 0; i < numRuns; ++i)
            for (cell_idx_t x = runs[i].xBegin; x <= runs[i].xEnd; ++x)
                update(x, runs[i].y, runs[i].z);
    };
    switch (tier) {
        case KernelTier::Generic:
            eachCell([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                lbm::streamCollideGenericCell<lbm::D3Q19>(src, dst, x, y, z, op);
            });
            break;
        case KernelTier::D3Q19:
            eachCell([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                lbm::streamCollideCell(src, dst, x, y, z, op);
            });
            break;
        case KernelTier::Simd:
            lbm::streamCollideRuns(src, dst, runs, numRuns, op, simd.twoGrid);
            break;
        case KernelTier::Aa:
            eachCell([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                lbm::aaCell(src, parity, x, y, z, op);
            });
            break;
        case KernelTier::AaSimd:
            lbm::aaCollideRuns(src, parity, runs, numRuns, op, simd.aa);
            break;
    }
}

class SingleBlockSimulation {
public:
    using M = lbm::D3Q19;

    struct Config {
        cell_idx_t xSize = 16, ySize = 16, zSize = 16;
        bool periodicX = false, periodicY = false, periodicZ = false;
        KernelTier tier = KernelTier::Simd;
        field::Layout layout = field::Layout::fzyx;
    };

    explicit SingleBlockSimulation(const Config& cfg)
        : cfg_(cfg),
          src_(lbm::makePdfField<M>(cfg.xSize, cfg.ySize, cfg.zSize, cfg.layout)),
          // The AA tiers update in place — the shadow grid shrinks to a
          // token allocation and the PDF footprint halves.
          dst_(isAaTier(cfg.tier)
                   ? lbm::makePdfField<M>(1, 1, 1, cfg.layout)
                   : lbm::makePdfField<M>(cfg.xSize, cfg.ySize, cfg.zSize, cfg.layout)),
          flags_(cfg.xSize, cfg.ySize, cfg.zSize, 1),
          masks_(lbm::BoundaryFlags::registerOn(flags_)) {}

    field::FlagField& flags() { return flags_; }
    const lbm::BoundaryFlags& masks() const { return masks_; }
    lbm::PdfField& pdfs() { return src_; }
    const lbm::PdfField& pdfs() const { return src_; }

    /// Marks every interior cell not flagged otherwise as fluid. Call after
    /// setting boundary flags.
    void fillRemainingWithFluid() {
        flags_.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (flags_.get(x, y, z) == 0) flags_.addFlag(x, y, z, masks_.fluid);
        });
    }

    /// Finalizes the setup: builds boundary link lists and initializes all
    /// PDFs to equilibrium (rho, u). Must be called exactly once.
    void finalize(real_t rho = 1.0, const Vec3& u = {0, 0, 0}) {
        WALB_ASSERT(!boundary_, "finalize() called twice");
        // Wrap flags into the ghost layers of periodic directions so that
        // boundary links crossing a periodic interface are discovered (the
        // boundary cell then appears as a ghost cell with a valid flag).
        for (const auto& d : lbm::neighborhood26) {
            if (d[0] != 0 && !cfg_.periodicX) continue;
            if (d[1] != 0 && !cfg_.periodicY) continue;
            if (d[2] != 0 && !cfg_.periodicZ) continue;
            lbm::copySliceLocal(flags_, flags_, d);
        }
        boundary_ = std::make_unique<lbm::BoundaryHandling<M>>(flags_, masks_);
        // Uniform equilibrium including ghosts is also a valid AA state at
        // parity Even: pdf(x, a) = P(x - e_a, a) holds trivially when every
        // cell carries the same PDF set.
        lbm::initEquilibrium<M>(src_, rho, u);
        if (!isAaTier(cfg_.tier)) lbm::initEquilibrium<M>(dst_, rho, u);
        runs_ = lbm::buildFluidRuns(flags_, masks_.fluid);
    }

    lbm::BoundaryHandling<M>& boundary() {
        WALB_ASSERT(boundary_, "finalize() not called");
        return *boundary_;
    }

    uint_t fluidCells() const { return runs_.fluidCells; }

    /// Advances the simulation by n time steps with the given collision
    /// operator (SRT or TRT). The canonical phases are recorded in the
    /// TimingPool and the phase trace, and the step counter / MLUP/s gauge
    /// are maintained — same observability surface as the distributed
    /// driver, minus the cross-rank reduction.
    template <typename Op>
    void run(uint_t n, const Op& op) {
        WALB_ASSERT(boundary_, "finalize() not called");
        obs::Counter& steps = metrics_.counter("sim.steps");
        Timer wall;
        wall.start();
        for (uint_t step = 0; step < n; ++step) {
            const lbm::AaParity parity = aaParity();
            const lbm::Streaming streaming = lbm::streamingOf(isAaTier(cfg_.tier), parity);
            {
                ScopedTimer t(timing_["communication"]);
                obs::ScopedTrace tr(trace_, "communication");
                applyPeriodicity(streaming);
            }
            {
                ScopedTimer t(timing_["boundary"]);
                obs::ScopedTrace tr(trace_, "boundary");
                boundary_->apply(src_, streaming);
            }
            {
                ScopedTimer t(timing_["collideStream"]);
                obs::ScopedTrace tr(trace_, "collideStream");
                sweepRuns(cfg_.tier, src_, dst_, parity, runs_.runs.data(), runs_.runs.size(),
                          op, kernels_);
            }
            if (streaming == lbm::Streaming::TwoGrid) src_.swapDataWith(dst_);
            ++currentStep_;
            steps.inc();
        }
        wall.stop();
        if (wall.total() > 0)
            metrics_.gauge("sim.mlups").set(double(fluidCells()) * double(n) / wall.total() /
                                            1e6);
        metrics_.gauge("sim.fluidCells").set(double(fluidCells()));
        metrics_.gauge("mem.pdf_bytes")
            .set(double((src_.allocCells() + dst_.allocCells()) * sizeof(real_t)));
    }

    /// Number of completed time steps (across run() calls).
    std::uint64_t currentStep() const { return currentStep_; }

    /// AA storage layout right now == parity of the next step. Meaningful
    /// for the AA tiers only.
    lbm::AaParity aaParity() const { return lbm::aaParityOfStep(currentStep_); }

    TimingPool& timing() { return timing_; }
    obs::MetricsRegistry& metrics() { return metrics_; }
    obs::TraceRecorder& trace() { return trace_; }

    /// The canonical (physical) PDF set of one cell — parity-normalized for
    /// the AA tiers, a plain read otherwise.
    std::array<real_t, M::Q> cellPdfs(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        if (isAaTier(cfg_.tier)) return lbm::aaCanonicalPdfs(src_, aaParity(), x, y, z);
        return lbm::getPdfs<M>(src_, x, y, z);
    }

    real_t density(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        return lbm::density<M>(cellPdfs(x, y, z));
    }
    Vec3 velocity(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        const auto pdfs = cellPdfs(x, y, z);
        return lbm::momentum<M>(pdfs) / lbm::density<M>(pdfs);
    }

    /// Total mass over all fluid cells — conserved in closed systems.
    real_t totalMass() const {
        real_t m = 0;
        flags_.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (flags_.get(x, y, z) & masks_.fluid) m += lbm::density<M>(cellPdfs(x, y, z));
        });
        return m;
    }

private:
    void applyPeriodicity(lbm::Streaming streaming) {
        if (!cfg_.periodicX && !cfg_.periodicY && !cfg_.periodicZ) return;
        for (const auto& d : lbm::neighborhood26) {
            if (d[0] != 0 && !cfg_.periodicX) continue;
            if (d[1] != 0 && !cfg_.periodicY) continue;
            if (d[2] != 0 && !cfg_.periodicZ) continue;
            switch (streaming) {
                case lbm::Streaming::TwoGrid: lbm::copyPdfsLocal<M>(src_, src_, d); break;
                case lbm::Streaming::AaOdd: lbm::aaCopyPdfsLocalForward<M>(src_, src_, d); break;
                case lbm::Streaming::AaEven: lbm::aaCopyPdfsLocalReverse<M>(src_, src_, d); break;
            }
        }
    }

    Config cfg_;
    lbm::PdfField src_, dst_;
    field::FlagField flags_;
    lbm::BoundaryFlags masks_;
    std::unique_ptr<lbm::BoundaryHandling<M>> boundary_;
    lbm::FluidRunList runs_; ///< built by finalize()
    SimdKernels kernels_;
    std::uint64_t currentStep_ = 0;
    TimingPool timing_;
    obs::MetricsRegistry metrics_;
    obs::TraceRecorder trace_;
};

} // namespace walb::sim
