#include "workloads.h"

#include <malloc.h>
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "blockforest/ScalingSetup.h"
#include "geometry/CoronaryTree.h"
#include "geometry/Voxelizer.h"
#include "ledger.h"
#include "perf/LocalBench.h"
#include "perf/Machine.h"
#include "perf/Stream.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/ThreadComm.h"

namespace ledger {

void Result::check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    correct = false;
    errors.push_back(what);
}

namespace {

using namespace walb;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One workload: geometry, kernel tier, schedule and thread split.
struct Spec {
    std::string name;
    int ranks = 1;
    int threadsPerRank = 1;
    sim::KernelTier tier = sim::KernelTier::Simd;
    perf::KernelTier perfTier = perf::KernelTier::Simd;
    double bytesPerLUP = perf::kBytesPerLUP;
    bool overlap = false;
    bool vascular = false;
    std::uint32_t blockEdge = 16;    ///< cells per block edge
    uint_t targetBlocks = 0;         ///< vascular: weak-scaling partition target
    cell_idx_t kernelEdge = 128;     ///< single-thread kernel baseline domain edge
    int setupReps = 5;
    uint_t warmupSteps = 10;
};

// Why each workload exists is recorded in perfbench/README.md. The cavity
// sizes put the PDF arrays at >= 4x the 105 MiB L3 of the reference host:
// 4 x 74^3 x 304 B = 470 MiB (two-grid) and 2 x 114^3 x 152 B = 421 MiB (AA).
std::vector<Spec> specs() {
    Spec dense;
    dense.name = "dense_cavity";
    dense.ranks = 4;
    dense.threadsPerRank = 1;
    dense.blockEdge = 72;
    dense.warmupSteps = 20;

    Spec vascular;
    vascular.name = "vascular_tree";
    vascular.ranks = 2;
    vascular.threadsPerRank = 2;
    vascular.vascular = true;
    vascular.blockEdge = 16;
    vascular.targetBlocks = 300;
    vascular.warmupSteps = 5;
    vascular.setupReps = 3;

    Spec aa;
    aa.name = "cavity_aa_overlap";
    aa.ranks = 2;
    aa.threadsPerRank = 2;
    aa.tier = sim::KernelTier::AaSimd;
    aa.perfTier = perf::KernelTier::Aa;
    aa.bytesPerLUP = perf::kAaBytesPerLUP;
    aa.overlap = true;
    aa.blockEdge = 112;
    aa.kernelEdge = 160;
    aa.warmupSteps = 20;
    return {dense, vascular, aa};
}

constexpr real_t kOmega = 1.5;
/// Checkpoint round trips behind restart_s (their median).
constexpr int kCheckpointRoundTrips = 3;
/// Step samples a p95 needs: ten beyond the 95th percentile.
constexpr std::uint64_t kMinStepSamples = 200;
const Vec3 kLidVelocity{0.05, 0, 0};

/// Deterministic per-cell density perturbation: the seeded part of every
/// workload's input. Keyed by global cell position, so it does not depend
/// on the partitioning.
real_t seededDensity(std::uint64_t seed, std::int64_t gx, std::int64_t gy, std::int64_t gz) {
    std::uint64_t h = seed * 0x9E3779B97F4A7C15ull ^ std::uint64_t(gx) * 0xBF58476D1CE4E5B9ull ^
                      std::uint64_t(gy) * 0x94D049BB133111EBull ^ std::uint64_t(gz) * 0x2545F4914F6CDD1Dull;
    h ^= h >> 31;
    h *= 0xD6E8FEB86659FD93ull;
    h ^= h >> 32;
    return real_c(1) + real_c(1e-3) * (real_c(double(h >> 11) * 0x1.0p-53) - real_c(0.5));
}

/// The global structure a workload runs on, built once per setup repetition.
struct Geometry {
    bf::SetupBlockForest forest;
    std::unique_ptr<geometry::DistanceFunction> phi;
    double treeS = 0, partitionS = 0, balanceS = 0;
};

Geometry buildGeometry(const Spec& spec, const Options& opt) {
    Geometry g;
    if (!spec.vascular) {
        auto t0 = Clock::now();
        bf::SetupConfig cfg;
        const real_t e = real_c(spec.blockEdge);
        cfg.domain = AABB(0, 0, 0, e * real_c(spec.ranks), e, e);
        cfg.rootBlocksX = std::uint32_t(spec.ranks);
        cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = spec.blockEdge;
        g.forest = bf::SetupBlockForest::create(cfg);
        g.partitionS = secondsSince(t0);
        t0 = Clock::now();
        g.forest.balanceMorton(std::uint32_t(spec.ranks));
        g.balanceS = secondsSince(t0);
        return g;
    }
    auto t0 = Clock::now();
    geometry::CoronaryTreeParams params; // the fig7 tree, shape chosen by treeSeed
    params.seed = opt.treeSeed;
    params.bounds = AABB(0, 0, 0, 1, 1, 1);
    params.rootRadius = 0.04;
    params.minRadius = 0.006;
    params.maxDepth = 11;
    const auto tree = geometry::CoronaryTree::generate(params);
    g.phi = tree.implicitDistance();
    g.treeS = secondsSince(t0);
    t0 = Clock::now();
    auto search = bf::findWeakScalingPartition(*g.phi, params.bounds, spec.blockEdge,
                                               spec.targetBlocks);
    search.forest.assignFluidCellWorkload(*g.phi);
    g.partitionS = secondsSince(t0);
    g.forest = std::move(search.forest);
    t0 = Clock::now();
    g.forest.balanceGraph(std::uint32_t(spec.ranks));
    g.balanceS = secondsSince(t0);
    return g;
}

/// Seconds spent in the flag initializer by the calling rank thread.
thread_local double tlsFlagInitSeconds = 0;

sim::DistributedSimulation::FlagInitializer makeFlagInit(const Spec& spec, const Geometry& g) {
    if (spec.vascular) {
        const geometry::DistanceFunction* phi = g.phi.get();
        return [phi](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                     const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
            const auto t0 = Clock::now();
            geometry::voxelize(*phi, flags, mapping, masks.fluid);
            const field::flag_t hull = flags.registerFlag("hull");
            lbm::markBoundaryHull<lbm::D3Q19>(flags, masks.fluid, 0, hull);
            flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                if (!flags.isFlagSet(x, y, z, hull)) return;
                flags.removeFlag(x, y, z, hull);
                flags.addFlag(x, y, z, masks.noSlip);
            });
            tlsFlagInitSeconds += secondsSince(t0);
        };
    }
    // Lid-driven box: lid (z top) moves, every other face is a no-slip wall.
    const cell_idx_t nx = cell_idx_t(spec.blockEdge) * spec.ranks;
    const cell_idx_t n = cell_idx_t(spec.blockEdge);
    return [nx, n](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                   const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
        const auto t0 = Clock::now();
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 p = mapping.cellCenter(x, y, z);
            if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > real_c(nx) || p[1] > real_c(n) ||
                p[2] > real_c(n))
                return;
            const cell_idx_t gx = cell_idx_t(p[0]), gy = cell_idx_t(p[1]), gz = cell_idx_t(p[2]);
            if (gz == n - 1)
                flags.addFlag(x, y, z, masks.ubb);
            else if (gx == 0 || gx == nx - 1 || gy == 0 || gy == n - 1 || gz == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else
                flags.addFlag(x, y, z, masks.fluid);
        });
        tlsFlagInitSeconds += secondsSince(t0);
    };
}

/// Replaces the uniform start state by the seeded density field (at rest)
/// on every interior fluid cell, then refills the ghost layers. AA tiers
/// are written in their parity layout directly, so no block-sized canonical
/// scratch field is allocated before the timed window. Collective.
void applySeededState(sim::DistributedSimulation& s, std::uint64_t seed) {
    using M = lbm::D3Q19;
    const real_t dx = s.forest().dx();
    for (std::size_t b = 0; b < s.forest().blocks().size(); ++b) {
        const AABB& box = s.forest().blocks()[b].aabb;
        const auto& flags = s.flagField(b);
        lbm::PdfField& pdf = s.pdfField(b);
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!(flags.get(x, y, z) & s.masks().fluid)) return;
            const auto gi = [&](int d, cell_idx_t c) {
                return std::int64_t(std::llround(box.min()[d] / dx)) + std::int64_t(c);
            };
            std::array<real_t, M::Q> f{};
            lbm::setEquilibrium<M>(f, seededDensity(seed, gi(0, x), gi(1, y), gi(2, z)),
                                   Vec3(0, 0, 0));
            if (s.usesAaPattern()) lbm::aaSetCanonicalPdfs(pdf, s.aaParity(), x, y, z, f);
            else lbm::setPdfs<M>(pdf, x, y, z, f);
        });
    }
    s.refillGhostLayers();
}

/// Non-finite PDF values on interior fluid cells of this rank's blocks.
std::uint64_t countNonFinite(sim::DistributedSimulation& s) {
    std::uint64_t bad = 0;
    for (std::size_t b = 0; b < s.forest().blocks().size(); ++b) {
        const auto& flags = s.flagField(b);
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!(flags.get(x, y, z) & s.masks().fluid)) return;
            for (real_t v : s.cellCanonicalPdfs(b, x, y, z))
                if (!std::isfinite(v)) ++bad;
        });
    }
    return bad;
}

/// Per-rank observations, each slot written only by its rank thread.
struct RankRecord {
    int ompMaxThreads = 0;
    bool pinned = false;
    double buildS = 0;
    double flagInitS = 0;
    double fluidCells = 0;
    double blocks = 0;
    double pdfBytes = 0;
    double cpuShare = 0;
    // Per-step means over the traced window.
    double collideMs = 0, boundaryMs = 0, exchangeWaitMs = 0, exposedMs = 0;
    double bytesPerStep = 0, messagesPerStep = 0;
    double hiddenS = 0, exposedS = 0;
    // Benchmark-built PdfCommScheme.
    double ghostCopyMs = 0, packMs = 0;
};

/// Rank-0 view of one timed stepping window.
struct Window {
    std::uint64_t steps = 0;
    double runSeconds = 0;        ///< wall time inside sim.run(), rank 0
    std::vector<double> stepSec;  ///< per-step wall seconds
    std::vector<ledger::Span> stepSpans; ///< one "step" span per step (trace clock, us)
};

/// Steps in chunks of `chunkSteps` until rank 0 has spent `seconds` inside
/// run() and holds at least `minSteps` step samples (but never past three
/// times `seconds`); the stop decision is agreed collectively after every
/// chunk. The pre-step callback timestamps give per-step wall times on
/// rank 0.
template <typename Op>
Window timedWindow(sim::DistributedSimulation& s, vmpi::Comm& comm, double seconds,
                   std::uint64_t minSteps, uint_t chunkSteps, const Op& op) {
    Window w;
    std::vector<double> stamps; // microseconds on the trace clock
    stamps.reserve(4096);
    const bool rank0 = comm.rank() == 0;
    s.setPreStepCallback([&](std::uint64_t) {
        if (rank0) stamps.push_back(obs::TraceRecorder::nowUs());
    });
    for (;;) {
        const std::size_t first = stamps.size();
        const auto c0 = Clock::now();
        s.run(chunkSteps, op);
        const double chunkEnd = obs::TraceRecorder::nowUs();
        w.runSeconds += secondsSince(c0);
        w.steps += chunkSteps;
        if (rank0)
            for (std::size_t i = first; i < stamps.size(); ++i) {
                const double end = i + 1 < stamps.size() ? stamps[i + 1] : chunkEnd;
                w.stepSec.push_back(1e-6 * (end - stamps[i]));
                w.stepSpans.push_back({"step", -1, stamps[i], end});
            }
        const bool done = w.runSeconds >= seconds &&
                          (w.steps >= minSteps || w.runSeconds >= 3 * seconds);
        const double stop = vmpi::allreduceMax(comm, rank0 && done ? 1.0 : 0.0);
        if (stop > 0) break;
    }
    s.setPreStepCallback(nullptr);
    return w;
}

/// The program's own step phase spans, in step order.
const char* const kStepPhases[] = {"communication", "boundary", "collideStream"};

/// Per-step medians (ms) of the self time of each of kStepPhases inside
/// rank 0's step spans, from the simulation's trace recorder events.
std::vector<double> phaseLadder(const Window& w, const std::vector<obs::TraceEvent>& ev) {
    std::vector<ledger::Span> spans = w.stepSpans;
    const std::size_t nSteps = spans.size();
    std::size_t step = 0;
    for (const auto& e : ev) {
        while (step < nSteps && spans[step].end <= e.beginUs) ++step;
        if (step == nSteps) break;
        if (e.beginUs < spans[step].begin) continue;
        spans.push_back({e.name, int(step), e.beginUs, e.beginUs + e.durUs});
    }
    const std::vector<double> self = ledger::selfTimes(spans);
    std::vector<double> out;
    for (const char* name : kStepPhases) {
        std::vector<double> perStep(nSteps, 0.0);
        for (std::size_t i = nSteps; i < spans.size(); ++i)
            if (spans[i].name == name) perStep[std::size_t(spans[i].parent)] += self[i];
        out.push_back(1e-3 * ledger::median(perStep));
    }
    return out;
}

struct Counters {
    double collide = 0, boundary = 0, exposed = 0, hidden = 0, bytes = 0, messages = 0;
    std::uint64_t step = 0;
};

Counters readCounters(sim::DistributedSimulation& s) {
    Counters c;
    c.collide = s.timing()["collideStream"].total();
    c.boundary = s.timing()["boundary"].total();
    c.exposed = s.commExposedSeconds();
    c.hidden = s.commHiddenSeconds();
    c.bytes = double(s.metrics().counter("comm.bytesSent").value());
    c.messages = double(s.metrics().counter("comm.messagesSent").value());
    c.step = s.currentStep();
    return c;
}

/// Exchange wait (finishExchange) per step over steps >= fromStep, from the
/// simulation's flight recorder — finishExchange has no public timer.
double exchangeWaitSeconds(const sim::DistributedSimulation& s, std::uint64_t fromStep) {
    double sum = 0;
    for (const auto& smp : s.flightRecorder().samples())
        if (smp.step >= fromStep) sum += smp.exchangeSeconds;
    return sum;
}

double rankMax(const std::vector<RankRecord>& r, double RankRecord::*field) {
    double m = 0;
    for (const auto& x : r) m = std::max(m, x.*field);
    return m;
}
double rankSum(const std::vector<RankRecord>& r, double RankRecord::*field) {
    double m = 0;
    for (const auto& x : r) m += x.*field;
    return m;
}

/// Digest after 9 steps of a small seeded lid cavity on the workload's tier
/// under the given schedule — the schedule-equivalence probe of
/// cavity_aa_overlap (the code guarantees overlap == sync bit-exactly).
std::uint64_t aaPrefixDigest(const Spec& spec, const Options& opt, bool overlap) {
    Spec small = spec;
    small.blockEdge = 32;
    const Geometry g = buildGeometry(small, opt);
    const auto flagInit = makeFlagInit(small, g);
    std::uint64_t digest = 0;
    vmpi::ThreadCommWorld::launch(small.ranks, [&](vmpi::Comm& comm) {
        omp_set_num_threads(small.threadsPerRank);
        sim::DistributedSimulation s(comm, g.forest, flagInit, small.tier);
        s.setOverlapCommunication(overlap);
        s.setWallVelocity(kLidVelocity);
        applySeededState(s, opt.seed);
        s.run(9, lbm::TRT::fromOmegaAndMagic(kOmega));
        const std::uint64_t d = sim::checkpointDigest(s);
        if (comm.rank() == 0) digest = d;
    });
    return digest;
}

} // namespace

Result runWorkload(const Options& opt) {
    const auto all = specs();
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const Spec& s) { return s.name == opt.workload; });
    if (it == all.end()) throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    const Spec spec = *it;
    Result res;
    auto ctx = [&](const std::string& name, double v, const std::string& unit) {
        res.context.push_back({name, v, unit});
    };
    auto metric = [&](const std::string& name, double v, const std::string& unit) {
        res.metrics.push_back({name, v, unit});
    };

    // ---- host fingerprint (before the workload starts) ---------------------
    const int nproc = ledger::usableCpus();
    const std::size_t llc = ledger::lastLevelCacheBytes();
    const std::size_t bandwidthArray = std::max<std::size_t>(4 * llc, std::size_t(256) << 20);
    const double loadavg = ledger::loadAverage1();
    const double refCore = ledger::refCoreMs();
    const double refTriad = ledger::refTriadGiBs(bandwidthArray);
    ctx("host.nproc", nproc, "count");
    ctx("host.llc_mib", double(llc) / double(1 << 20), "MiB");
    ctx("host.loadavg1", loadavg, "1");
    ctx("host.ref_core_ms", refCore, "ms");
    ctx("host.ref_triad_gibs", refTriad, "GiB/s");
    ctx("host.ref_triad_array_mib", double(bandwidthArray) / double(1 << 20), "MiB");
    ctx("workload.ranks", spec.ranks, "count");
    ctx("workload.threads_per_rank", spec.threadsPerRank, "count");
    ctx("workload.seed", double(opt.seed), "1");
    if (spec.vascular) ctx("workload.tree_seed", double(opt.treeSeed), "1");

    std::vector<RankRecord> rr(std::size_t(spec.ranks));
    std::vector<double> setupSeconds;
    Geometry geo;
    Window window, tracedWindow;
    double untracedHalfMflups = 0, tracedHalfMflups = 0;
    std::vector<double> ladder;
    double fluidCells = 0, massDrift = 0, rssPeakMiB = 0, ckptRssPeakMiB = 0, ckptMiB = 0;
    std::uint64_t nonFinite = 0;
    std::vector<double> saveS, loadS;
    std::vector<int> digestMatches;
    double loadAvgWindow = 0;
    int threadsInWindow = 0;
    long nivcsw = 0;
    const auto op = lbm::TRT::fromOmegaAndMagic(kOmega);
    const std::string ckptPath =
        (std::filesystem::path(opt.scratchDir) / (spec.name + ".wckp")).string();

    for (int rep = 0; rep < spec.setupReps; ++rep) {
        const bool last = rep + 1 == spec.setupReps;
        if (last) {
            // rss_peak_mib covers one set-up plus stepping: hand the heap
            // the earlier repetitions freed back to the kernel, then reset.
            geo = Geometry();
            malloc_trim(0);
            res.check(ledger::resetPeakRss(), "peak-RSS reset refused by the kernel");
        }
        const auto setupStart = Clock::now();
        geo = buildGeometry(spec, opt);
        const auto flagInit = makeFlagInit(spec, geo);
        vmpi::ThreadCommWorld::launch(spec.ranks, [&](vmpi::Comm& comm) {
            const int rank = comm.rank();
            RankRecord& me = rr[std::size_t(rank)];
            // Each rank owns a disjoint set of cores, like an MPI launcher's
            // core binding; its OpenMP team inherits the set.
            me.pinned = ledger::pinToCpus(rank * spec.threadsPerRank, spec.threadsPerRank);
            omp_set_num_threads(spec.threadsPerRank);
            me.ompMaxThreads = omp_get_max_threads();
            tlsFlagInitSeconds = 0;
            const auto b0 = Clock::now();
            sim::DistributedSimulation s(comm, geo.forest, flagInit, spec.tier);
            me.buildS = secondsSince(b0);
            me.flagInitS = tlsFlagInitSeconds;
            s.trace().setEnabled(false); // end-to-end numbers are taken untraced
            s.setOverlapCommunication(spec.overlap);
            if (!spec.vascular) s.setWallVelocity(kLidVelocity);
            applySeededState(s, opt.seed);
            const auto w0 = Clock::now();
            s.run(spec.warmupSteps, op);
            const double warmStep = secondsSince(w0) / double(spec.warmupSteps);
            comm.barrier();
            if (rank == 0) setupSeconds.push_back(secondsSince(setupStart));
            if (!last) return;

            // ---- timed window ------------------------------------------------
            const double fluid = double(s.globalFluidCells());
            const double mass0 = double(s.gatherTotalMass());
            me.fluidCells = double(s.localFluidCells());
            me.blocks = double(s.forest().blocks().size());
            me.pdfBytes = s.metrics().gauge("mem.pdf_bytes").value();
            const uint_t chunk = uint_t(vmpi::allreduceMax(
                comm, std::clamp(std::round(0.2 / std::max(warmStep, 1e-6)), 1.0, 1000.0)));
            const auto cpu0 = ledger::threadUsage();
            const auto proc0 = ledger::processUsage();
            const auto wall0 = Clock::now();
            if (!opt.trace) {
                Window w = timedWindow(s, comm, opt.seconds, kMinStepSamples, chunk, op);
                if (rank == 0) window = std::move(w);
            } else {
                // First half untraced (as the end-to-end run), second half
                // with the program's trace recorder on; the rate difference
                // is the tracing overhead, the second half feeds the ladder.
                Window a = timedWindow(s, comm, 0.5 * opt.seconds, kMinStepSamples / 2, chunk, op);
                const Counters c0 = readCounters(s);
                s.trace().clear();
                s.trace().setEnabled(true);
                Window b = timedWindow(s, comm, 0.5 * opt.seconds, kMinStepSamples / 2, chunk, op);
                s.trace().setEnabled(false);
                const Counters c1 = readCounters(s);
                const double n = double(c1.step - c0.step);
                me.collideMs = 1e3 * (c1.collide - c0.collide) / n;
                me.boundaryMs = 1e3 * (c1.boundary - c0.boundary) / n;
                me.exposedMs = 1e3 * (c1.exposed - c0.exposed) / n;
                me.exchangeWaitMs = 1e3 * exchangeWaitSeconds(s, c0.step) / n;
                me.bytesPerStep = (c1.bytes - c0.bytes) / n;
                me.messagesPerStep = (c1.messages - c0.messages) / n;
                me.hiddenS = c1.hidden - c0.hidden;
                me.exposedS = c1.exposed - c0.exposed;
                if (rank == 0) {
                    untracedHalfMflups = fluid * double(a.steps) / a.runSeconds / 1e6;
                    tracedHalfMflups = fluid * double(b.steps) / b.runSeconds / 1e6;
                    ladder = phaseLadder(b, s.trace().events());
                    window = std::move(a);
                    tracedWindow = std::move(b);
                }
                s.trace().clear();
            }
            const auto cpu1 = ledger::threadUsage();
            me.cpuShare = (cpu1.cpuSeconds - cpu0.cpuSeconds) / secondsSince(wall0);
            if (rank == 0) {
                nivcsw = ledger::processUsage().involuntarySwitches - proc0.involuntarySwitches;
                threadsInWindow = ledger::processThreads();
                loadAvgWindow = ledger::loadAverage1();
            }
            comm.barrier();
            if (rank == 0) rssPeakMiB = ledger::readMemStatus().peakMiB;

            // ---- correctness -------------------------------------------------
            const double mass1 = double(s.gatherTotalMass());
            const std::uint64_t bad = vmpi::allreduceSum(comm, countNonFinite(s));
            if (rank == 0) {
                fluidCells = fluid;
                massDrift = std::abs(mass1 - mass0) / mass0;
                nonFinite = bad;
            }

            // ---- checkpoint round trips --------------------------------------
            comm.barrier();
            if (rank == 0) ledger::resetPeakRss();
            comm.barrier();
            const std::uint64_t digest0 = sim::checkpointDigest(s);
            for (int k = 0; k < kCheckpointRoundTrips; ++k) {
                comm.barrier();
                const auto t0 = Clock::now();
                std::size_t bytes = 0;
                std::string err;
                const bool saved = sim::checkpointSave(s, ckptPath, s.currentStep(), &bytes, &err);
                const double ts = secondsSince(t0);
                const auto t1 = Clock::now();
                const bool loaded = saved && sim::checkpointLoad(s, ckptPath, nullptr, &err);
                const double tl = secondsSince(t1);
                const std::uint64_t digest1 = sim::checkpointDigest(s);
                if (rank == 0) {
                    saveS.push_back(ts);
                    loadS.push_back(tl);
                    ckptMiB = double(bytes) / double(1 << 20);
                    digestMatches.push_back(saved && loaded && digest1 == digest0);
                }
            }
            comm.barrier();
            if (rank == 0) {
                ckptRssPeakMiB = ledger::readMemStatus().peakMiB;
                std::error_code ec;
                std::filesystem::remove(ckptPath, ec);
            }
        });
    }

    // ---- correctness checks ----------------------------------------------------
    int budget = 0;
    for (const auto& r : rr) budget += r.ompMaxThreads;
    res.check(budget <= nproc, "thread budget " + std::to_string(budget) + " exceeds nproc " +
                                   std::to_string(nproc));
    res.check(std::all_of(rr.begin(), rr.end(), [](const RankRecord& r) { return r.pinned; }),
              "could not bind every rank to its own cores");
    res.check(nonFinite == 0, std::to_string(nonFinite) + " non-finite PDF values");
    res.check(massDrift < 1e-9, "relative mass drift " + std::to_string(massDrift));
    for (std::size_t k = 0; k < digestMatches.size(); ++k)
        res.check(digestMatches[k] != 0,
                  "checkpoint round trip " + std::to_string(k) + " changed the state digest");
    res.attempted += window.steps + tracedWindow.steps; // every timed step ran without a CommError
    if (spec.overlap) {
        res.check(aaPrefixDigest(spec, opt, true) == aaPrefixDigest(spec, opt, false),
                  "overlapped schedule digest differs from the synchronous schedule");
    }

    ctx("host.threads_budget", budget, "count");
    ctx("host.threads", threadsInWindow, "count");
    ctx("host.loadavg1_window", loadAvgWindow, "1");
    ctx("workload.blocks", rankSum(rr, &RankRecord::blocks), "count");
    ctx("workload.fluid_cells", fluidCells, "count");
    ctx("workload.steps", double(window.steps + tracedWindow.steps), "count");
    ctx("workload.pdf_mib", rankSum(rr, &RankRecord::pdfBytes) / double(1 << 20), "MiB");
    ctx("workload.mass_drift", massDrift, "1");

    std::vector<double> stepSec = window.stepSec;
    stepSec.insert(stepSec.end(), tracedWindow.stepSec.begin(), tracedWindow.stepSec.end());
    const auto p95 = ledger::tailPercentile(stepSec, 0.95);
    res.check(p95.has_value(),
              "only " + std::to_string(stepSec.size()) + " step samples: too few for a p95");
    ctx("workload.step_samples", double(stepSec.size()), "count");
    ctx("workload.step_ms_p95", 1e3 * p95.value_or(0.0), "ms");
    std::vector<double> restart;
    for (std::size_t k = 0; k < saveS.size(); ++k) restart.push_back(saveS[k] + loadS[k]);

    if (!opt.trace) {
        metric("mflups", fluidCells * double(window.steps) / window.runSeconds / 1e6, "MFLUP/s");
        metric("step_ms_p50", 1e3 * ledger::median(stepSec), "ms");
        metric("setup_s", ledger::median(setupSeconds), "s");
        metric("rss_peak_mib", rssPeakMiB, "MiB");
        metric("restart_s", ledger::median(restart), "s");
        return res;
    }

    // ---- traced run: per-layer ladder -------------------------------------------
    // Benchmark-built ghost exchange on the same partition, after the
    // simulation is gone: local copies and pack+post timed on their own.
    {
        const int reps = 15;
        const bool aaMode = sim::isAaTier(spec.tier);
        vmpi::ThreadCommWorld::launch(spec.ranks, [&](vmpi::Comm& comm) {
            ledger::pinToCpus(comm.rank() * spec.threadsPerRank, spec.threadsPerRank);
            omp_set_num_threads(spec.threadsPerRank);
            bf::BlockForest forest(geo.forest, std::uint32_t(comm.rank()));
            const cell_idx_t cx = forest.cellsX(), cy = forest.cellsY(), cz = forest.cellsZ();
            const auto id = forest.addBlockData<lbm::PdfField>([&](const auto&) {
                auto f = std::make_unique<lbm::PdfField>(lbm::makePdfField<lbm::D3Q19>(cx, cy, cz));
                lbm::initEquilibrium<lbm::D3Q19>(*f, 1.0, {0, 0, 0});
                return f;
            });
            sim::PdfCommScheme scheme(forest, comm, id);
            if (aaMode) scheme.setExchangeMode(sim::PdfCommScheme::ExchangeMode::AaForward);
            std::vector<double> copyS, packS;
            for (int k = 0; k < reps; ++k) {
                comm.barrier();
                const auto t0 = Clock::now();
                scheme.copyLocalGhosts();
                const auto t1 = Clock::now();
                scheme.packAndPost();
                const auto t2 = Clock::now();
                scheme.finishExchange();
                copyS.push_back(std::chrono::duration<double>(t1 - t0).count());
                packS.push_back(std::chrono::duration<double>(t2 - t1).count());
            }
            RankRecord& me = rr[std::size_t(comm.rank())];
            me.ghostCopyMs = 1e3 * ledger::median(copyS);
            me.packMs = 1e3 * ledger::median(packS);
        });
    }
    omp_set_num_threads(1);
    const double kernelMlups = perf::measureKernelMLUPS(spec.perfTier, true, spec.kernelEdge).mlups;
    const double triad = perf::measureStreamBandwidth(bandwidthArray, 3).triadGiBs;

    const double tracedP50 = 1e3 * ledger::median(tracedWindow.stepSec);
    double phaseSum = 0;
    for (double ms : ladder) phaseSum += ms;
    double fluidMax = 0, fluidSum = 0;
    for (const auto& r : rr) {
        fluidMax = std::max(fluidMax, r.fluidCells);
        fluidSum += r.fluidCells;
    }
    double blocksMax = rankMax(rr, &RankRecord::blocks);
    const double collideMaxMs = rankMax(rr, &RankRecord::collideMs);
    const double hidden = rankSum(rr, &RankRecord::hiddenS);
    const double exposed = rankSum(rr, &RankRecord::exposedS);
    double cpuShare = rankSum(rr, &RankRecord::cpuShare) / double(spec.ranks);

    metric("geometry.tree_s", geo.treeS, "s");
    metric("geometry.voxelize_s", rankMax(rr, &RankRecord::flagInitS), "s");
    metric("geometry.fluid_fraction",
           fluidCells / (rankSum(rr, &RankRecord::blocks) * double(spec.blockEdge) *
                         double(spec.blockEdge) * double(spec.blockEdge)),
           "1");
    metric("blockforest.partition_s", geo.partitionS, "s");
    metric("blockforest.blocks_per_rank", blocksMax, "count");
    metric("partition.balance_s", geo.balanceS, "s");
    metric("partition.imbalance", fluidMax / (fluidSum / double(spec.ranks)), "1");
    metric("sim.build_s", rankMax(rr, &RankRecord::buildS), "s");
    metric("sim.pdf_mib", rankSum(rr, &RankRecord::pdfBytes) / double(1 << 20), "MiB");
    metric("sim.ckpt_save_s", ledger::median(saveS), "s");
    metric("sim.ckpt_load_s", ledger::median(loadS), "s");
    metric("sim.ckpt_mib", ckptMiB, "MiB");
    metric("sim.ckpt_rss_peak_mib", ckptRssPeakMiB, "MiB");
    metric("sim.step_ms_p50", tracedP50, "ms");
    metric("sim.step_ms_p95", 1e3 * p95.value_or(0.0), "ms");
    for (std::size_t i = 0; i < ladder.size(); ++i)
        metric(std::string("sim.step.") + kStepPhases[i] + "_ms", ladder[i], "ms");
    metric("sim.unattributed_ms", tracedP50 - phaseSum, "ms");
    metric("lbm.kernel_mlups_1t", kernelMlups, "MLUP/s");
    metric("lbm.kernel_roofline_frac",
           kernelMlups * 1e6 * spec.bytesPerLUP / (triad * double(1u << 30)), "1");
    metric("lbm.collide_ms", collideMaxMs, "ms");
    metric("lbm.collide_mflups", fluidCells / (1e-3 * collideMaxMs) / 1e6, "MFLUP/s");
    metric("lbm.boundary_ms", rankMax(rr, &RankRecord::boundaryMs), "ms");
    metric("lbm.ghost_copy_ms", rankMax(rr, &RankRecord::ghostCopyMs), "ms");
    metric("lbm.pack_ms", rankMax(rr, &RankRecord::packMs), "ms");
    metric("vmpi.exchange_wait_ms", rankMax(rr, &RankRecord::exchangeWaitMs), "ms");
    metric("vmpi.exposed_ms", rankMax(rr, &RankRecord::exposedMs), "ms");
    metric("vmpi.bytes_per_step", rankSum(rr, &RankRecord::bytesPerStep), "B");
    metric("vmpi.messages_per_step", rankSum(rr, &RankRecord::messagesPerStep), "count");
    metric("sim.comm_hidden_fraction", hidden + exposed > 0 ? hidden / (hidden + exposed) : 0.0,
           "1");
    metric("perf.stream_triad_gibs", triad, "GiB/s");
    metric("host.ref_core_ms", refCore, "ms");
    metric("host.ref_triad_gibs", refTriad, "GiB/s");
    metric("host.cpu_share", cpuShare, "1");
    metric("host.nivcsw", double(nivcsw), "count");
    metric("host.loadavg1", loadavg, "1");
    metric("host.threads", threadsInWindow, "count");
    metric("trace.overhead_frac", 1.0 - tracedHalfMflups / untracedHalfMflups, "1");
    return res;
}

} // namespace ledger
