/// Tests for the flag-aware local ghost-copy plan (lbm/GhostCopyPlan.h):
/// on random voxel geometries the plan's slot set equals a brute-force
/// read set derived from the kernels' access patterns, for every exchange
/// mode; without flags the plan is the direction-sliced slices row for row
/// (and on a fully fluid block the flagged plan is those slices trimmed to
/// the rows some interior cell reads); and plan-driven runs stay
/// digest-bit-exact against a reference that refills the full slices
/// before every step — across 1-8 ranks, both streaming patterns, both
/// step schedules, a live migration and a recovery rebind.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "lbm/GhostCopyPlan.h"
#include "rebalance/Migrator.h"
#include "recover/RecoveryManager.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/ReliableComm.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using lbm::D3Q19;
using lbm::TRT;
using sim::KernelTier;
using Mode = lbm::GhostExchangeMode;
using namespace std::chrono_literals;

constexpr Mode kModes[] = {Mode::TwoGrid, Mode::AaForward, Mode::AaReverse};
constexpr cell_idx_t kEdge = 6; ///< cells per block edge

std::uint64_t cellHash(std::uint64_t seed, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    std::uint64_t h = seed ^ (std::uint64_t(std::uint32_t(x)) << 42) ^
                      (std::uint64_t(std::uint32_t(y)) << 21) ^
                      std::uint64_t(std::uint32_t(z));
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

/// Random voxel box (a pure function of global position): UBB lid, a
/// pressure face at y = 0, no-slip walls and ~1/3 random obstacle voxels.
/// `obstacleMod == 0` makes everything inside the box fluid, walls included.
sim::DistributedSimulation::FlagInitializer voxelFlags(const bf::SetupConfig& cfg,
                                                       std::uint64_t seed,
                                                       std::uint64_t obstacleMod = 3) {
    const cell_idx_t NX = cell_idx_c(cfg.blocksX() * cfg.cellsPerBlockX);
    const cell_idx_t NY = cell_idx_c(cfg.blocksY() * cfg.cellsPerBlockY);
    const cell_idx_t NZ = cell_idx_c(cfg.blocksZ() * cfg.cellsPerBlockZ);
    return [=](field::FlagField& flags, const lbm::BoundaryFlags& masks,
               const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 p = mapping.cellCenter(x, y, z);
            if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > real_c(NX) ||
                p[1] > real_c(NY) || p[2] > real_c(NZ))
                return;
            const Cell g{cell_idx_t(p[0]), cell_idx_t(p[1]), cell_idx_t(p[2])};
            if (obstacleMod == 0) flags.addFlag(x, y, z, masks.fluid);
            else if (g.z == NZ - 1) flags.addFlag(x, y, z, masks.ubb);
            else if (g.y == 0) flags.addFlag(x, y, z, masks.pressure);
            else if (g.x == 0 || g.x == NX - 1 || g.y == NY - 1 || g.z == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else if (cellHash(seed, g.x, g.y, g.z) % obstacleMod == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else
                flags.addFlag(x, y, z, masks.fluid);
        });
    };
}

bf::SetupConfig boxConfig(std::uint32_t bx, std::uint32_t by, std::uint32_t bz) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, real_c(kEdge * cell_idx_c(bx)), real_c(kEdge * cell_idx_c(by)),
                      real_c(kEdge * cell_idx_c(bz)));
    cfg.rootBlocksX = bx;
    cfg.rootBlocksY = by;
    cfg.rootBlocksZ = bz;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = std::uint32_t(kEdge);
    return cfg;
}

bf::SetupBlockForest makeSetup(const bf::SetupConfig& cfg, std::uint32_t ranks) {
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    return setup;
}

/// One rank's forest with PDF and flag fields, built as DistributedSimulation
/// builds them, for exchange schemes with and without flags.
struct RankForest {
    bf::BlockForest forest;
    bf::BlockForest::BlockDataID pdfId = 0, flagId = 0;
    lbm::BoundaryFlags masks{};

    RankForest(const bf::SetupBlockForest& setup, std::uint32_t rank,
               const sim::DistributedSimulation::FlagInitializer& init)
        : forest(setup, rank) {
        const cell_idx_t cx = forest.cellsX(), cy = forest.cellsY(), cz = forest.cellsZ();
        pdfId = forest.addBlockData<lbm::PdfField>([&](const auto&) {
            return std::make_unique<lbm::PdfField>(lbm::makePdfField<D3Q19>(cx, cy, cz));
        });
        flagId = forest.addBlockData<field::FlagField>([&](const bf::BlockForest::Block& b) {
            auto ff = std::make_unique<field::FlagField>(cx, cy, cz, 1);
            masks = lbm::BoundaryFlags::registerOn(*ff);
            init(*ff, masks, b, geometry::CellMapping{b.aabb, forest.dx()});
            return ff;
        });
    }
    lbm::PdfField& pdf(std::size_t b) { return forest.getData<lbm::PdfField>(b, pdfId); }
    field::FlagField& flags(std::size_t b) {
        return forest.getData<field::FlagField>(b, flagId);
    }
    sim::PdfCommScheme::FluidFlags fluidFlags() const { return {flagId, masks.fluid}; }
};

/// A copied slot: (fromBlock, fromOffset, toBlock, toOffset).
using Slot = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t>;

std::set<Slot> planSlots(const lbm::GhostCopyPlan& plan, std::size_t* count = nullptr) {
    std::set<Slot> slots;
    std::size_t n = 0;
    for (const auto& l : plan.links())
        for (std::uint32_t i = l.spanBegin; i < l.spanEnd; ++i) {
            const auto& s = plan.spans()[i];
            for (std::uint32_t k = 0; k < s.len; ++k, ++n)
                slots.insert({l.fromBlock, s.from + k, l.toBlock, s.to + k});
        }
    if (count) *count = n;
    return slots;
}

/// The slots the kernels read from locally-backed ghost data, derived from
/// their access patterns cell by cell — no slices, no trims:
///   * two-grid pull: fluid cell x reads (x - c_a, a);
///   * AA odd step: fluid cell x reads (x - c_a, abar);
///   * AA even step: fluid cell x reads its own (x, a), which holds the push
///     of producer x - c_a — from a neighbor's ghost copy of x when the
///     producer lives in that neighbor.
/// Only sources in a ghost region backed by a same-rank block count.
std::set<Slot> bruteForceReadSet(RankForest& rf, Mode mode) {
    std::set<Slot> slots;
    const auto& blocks = rf.forest.blocks();
    const cell_idx_t n[3] = {rf.forest.cellsX(), rf.forest.cellsY(), rf.forest.cellsZ()};
    for (std::size_t r = 0; r < blocks.size(); ++r) {
        const auto& flags = rf.flags(r);
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!(flags.get(x, y, z) & rf.masks.fluid)) return;
            for (uint_t a = 1; a < D3Q19::Q; ++a) {
                const cell_idx_t src[3] = {x - D3Q19::c[a][0], y - D3Q19::c[a][1],
                                           z - D3Q19::c[a][2]};
                std::array<int, 3> g{};
                for (int j = 0; j < 3; ++j)
                    g[std::size_t(j)] = src[j] < 0 ? -1 : (src[j] >= n[j] ? 1 : 0);
                if (g == std::array<int, 3>{0, 0, 0}) continue;
                const bf::BlockForest::NeighborInfo* nb = nullptr;
                for (const auto& cand : blocks[r].neighbors)
                    if (cand.dir == g) nb = &cand;
                if (!nb || nb->localIndex < 0) continue;
                const auto s = std::size_t(nb->localIndex);
                // Receiver-frame cell that is copied, and its sender frame.
                const cell_idx_t to[3] = {mode == Mode::AaReverse ? x : src[0],
                                          mode == Mode::AaReverse ? y : src[1],
                                          mode == Mode::AaReverse ? z : src[2]};
                cell_idx_t from[3];
                for (int j = 0; j < 3; ++j) from[j] = to[j] - g[std::size_t(j)] * n[j];
                const cell_idx_t slot =
                    cell_idx_c(mode == Mode::AaForward ? D3Q19::inv[a] : a);
                slots.insert({std::uint32_t(s),
                              std::uint32_t(rf.pdf(s).index(from[0], from[1], from[2], slot)),
                              std::uint32_t(r),
                              std::uint32_t(rf.pdf(r).index(to[0], to[1], to[2], slot))});
            }
        });
    }
    return slots;
}

// ---- (a) plan == brute-force read set ---------------------------------------

TEST(GhostCopyPlanTest, SlotSetEqualsBruteForceReadSetOnRandomGeometries) {
    const struct {
        std::uint32_t bx, by, bz, ranks;
        std::uint64_t seed, obstacleMod;
    } cases[] = {{3, 3, 3, 1, 11, 3}, {3, 2, 2, 2, 22, 2}, {2, 2, 2, 3, 33, 4},
                 {4, 2, 1, 1, 44, 5}};
    for (const auto& c : cases) {
        const auto cfg = boxConfig(c.bx, c.by, c.bz);
        const auto setup = makeSetup(cfg, c.ranks);
        const auto init = voxelFlags(cfg, c.seed, c.obstacleMod);
        vmpi::ThreadCommWorld::launch(int(c.ranks), [&](vmpi::Comm& comm) {
            RankForest rf(setup, std::uint32_t(comm.rank()), init);
            sim::PdfCommScheme scheme(rf.forest, comm, rf.pdfId, rf.fluidFlags());
            for (Mode mode : kModes) {
                SCOPED_TRACE("seed " + std::to_string(c.seed) + " rank " +
                             std::to_string(comm.rank()) + " mode " +
                             std::to_string(int(mode)));
                scheme.setExchangeMode(mode);
                std::size_t count = 0;
                const auto got = planSlots(scheme.copyPlan(), &count);
                EXPECT_EQ(count, got.size()) << "a slot is copied twice";
                EXPECT_EQ(scheme.localCopyBytes(), count * sizeof(real_t));
                const auto want = bruteForceReadSet(rf, mode);
                EXPECT_EQ(got, want);
                if (c.ranks == 1) {
                    EXPECT_FALSE(want.empty());
                }
            }
        });
    }
}

// ---- (b) no flags / fully fluid == direction-sliced slices ------------------

using SpanKey = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t,
                           std::uint32_t>; // fromBlock, toBlock, from, to, len

std::vector<SpanKey> planSpans(const lbm::GhostCopyPlan& plan) {
    std::vector<SpanKey> out;
    for (const auto& l : plan.links())
        for (std::uint32_t i = l.spanBegin; i < l.spanEnd; ++i) {
            const auto& s = plan.spans()[i];
            out.push_back({l.fromBlock, l.toBlock, s.from, s.to, s.len});
        }
    return out;
}

/// The x-rows the slice-by-slice local copies move (copyPdfsLocal,
/// aaCopyPdfsLocalForward/Reverse), one span per row, in their loop order.
/// With `trimToReaders`, each two-grid/forward slice is first trimmed on
/// the zero axes of its direction to the ghost cells whose reader g + c_a
/// is an interior cell.
std::vector<SpanKey> slicedSpans(RankForest& rf, Mode mode, bool trimToReaders) {
    std::vector<SpanKey> out;
    const auto& blocks = rf.forest.blocks();
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const lbm::PdfField& from = rf.pdf(b);
        for (const auto& nb : blocks[b].neighbors) {
            if (nb.localIndex < 0) continue;
            const auto t = std::size_t(nb.localIndex);
            const lbm::PdfField& to = rf.pdf(t);
            const std::array<int, 3> d = nb.dir, back = {-d[0], -d[1], -d[2]};
            for (uint_t a : lbm::commDirections<D3Q19>(d)) {
                CellInterval src, dst;
                cell_idx_t slot = cell_idx_c(a);
                if (mode == Mode::AaReverse) {
                    src = lbm::aaReverseTrim<D3Q19>(lbm::recvInterval(from, d), d, a);
                    dst = lbm::aaReverseTrim<D3Q19>(lbm::sendInterval(to, back), d, a);
                } else {
                    src = lbm::sendInterval(from, d);
                    dst = lbm::recvInterval(to, back);
                    if (mode == Mode::AaForward) slot = cell_idx_c(D3Q19::inv[a]);
                    if (trimToReaders) {
                        auto axis = [](Cell& c, std::size_t j) -> cell_idx_t& {
                            return j == 0 ? c.x : (j == 1 ? c.y : c.z);
                        };
                        // On a zero axis of d the ghost row lies in the
                        // receiver's span, so its minimum maps 1:1 to the
                        // sender: both sides shrink by the same amount.
                        for (std::size_t j = 0; j < 3; ++j) {
                            if (d[j] != 0) continue;
                            const int c = D3Q19::c[a][j];
                            if (c == 1) {
                                axis(src.max(), j) -= 1;
                                axis(dst.max(), j) -= 1;
                            }
                            if (c == -1) {
                                axis(src.min(), j) += 1;
                                axis(dst.min(), j) += 1;
                            }
                        }
                    }
                }
                const Cell off = src.min() - dst.min();
                for (cell_idx_t z = dst.min().z; z <= dst.max().z; ++z)
                    for (cell_idx_t y = dst.min().y; y <= dst.max().y; ++y) {
                        if (dst.min().x > dst.max().x) continue;
                        out.push_back({std::uint32_t(b), std::uint32_t(t),
                                       std::uint32_t(from.index(dst.min().x + off.x,
                                                                y + off.y, z + off.z, slot)),
                                       std::uint32_t(to.index(dst.min().x, y, z, slot)),
                                       std::uint32_t(dst.max().x - dst.min().x + 1)});
                    }
            }
        }
    }
    return out;
}

TEST(GhostCopyPlanTest, UnflaggedPlanIsTheDirectionSlicedSlicesSpanForSpan) {
    const auto cfg = boxConfig(3, 3, 3);
    const auto setup = makeSetup(cfg, 1);
    vmpi::ThreadCommWorld::launch(1, [&](vmpi::Comm& comm) {
        RankForest rf(setup, 0, voxelFlags(cfg, 5));
        sim::PdfCommScheme scheme(rf.forest, comm, rf.pdfId); // no flags
        for (Mode mode : kModes) {
            SCOPED_TRACE("mode " + std::to_string(int(mode)));
            scheme.setExchangeMode(mode);
            const auto want = slicedSpans(rf, mode, false);
            ASSERT_FALSE(want.empty());
            EXPECT_EQ(planSpans(scheme.copyPlan()), want);
        }
    });
}

TEST(GhostCopyPlanTest, FullyFluidBlockPlanIsTheSlicesTrimmedToTheirReaders) {
    // 3^3 blocks on one rank: the center block receives from all 26
    // same-rank neighbors. Everything is fluid, so every slice row whose
    // reader lies inside the receiver is planned — and nothing else.
    const auto cfg = boxConfig(3, 3, 3);
    const auto setup = makeSetup(cfg, 1);
    vmpi::ThreadCommWorld::launch(1, [&](vmpi::Comm& comm) {
        RankForest rf(setup, 0, voxelFlags(cfg, 0, /*obstacleMod=*/0));
        sim::PdfCommScheme scheme(rf.forest, comm, rf.pdfId, rf.fluidFlags());
        for (Mode mode : kModes) {
            SCOPED_TRACE("mode " + std::to_string(int(mode)));
            scheme.setExchangeMode(mode);
            // The reverse exchange's trimmed slices already end at the
            // receiver interior; the pull modes drop the slice rims.
            const auto want = slicedSpans(rf, mode, mode != Mode::AaReverse);
            EXPECT_EQ(planSpans(scheme.copyPlan()), want);
        }
    });
}

// ---- (c) plan-driven runs == full-slice reference, digest-bit-exact ---------

/// Before every step, refill the full direction-sliced slices of every
/// same-rank pair exactly as the slice-by-slice local exchange did. The
/// plan's own copies then rewrite a subset with identical values, so the
/// reference differs from a plan-driven run only in ghost slots no kernel
/// reads — if the plan missed a read slot, the digests would split.
void refillFullSlices(sim::DistributedSimulation& s) {
    const auto& blocks = s.forest().blocks();
    const bool aa = s.usesAaPattern();
    const bool forward = s.aaParity() == lbm::AaParity::Odd;
    for (std::size_t b = 0; b < blocks.size(); ++b)
        for (const auto& nb : blocks[b].neighbors) {
            if (nb.localIndex < 0) continue;
            lbm::PdfField& src = s.pdfField(b);
            lbm::PdfField& dst = s.pdfField(std::size_t(nb.localIndex));
            const std::array<int, 3> toMe = {-nb.dir[0], -nb.dir[1], -nb.dir[2]};
            if (!aa) lbm::copyPdfsLocal<D3Q19>(src, dst, toMe);
            else if (forward) lbm::aaCopyPdfsLocalForward<D3Q19>(src, dst, toMe);
            else lbm::aaCopyPdfsLocalReverse<D3Q19>(src, dst, nb.dir);
        }
}

struct RunSpec {
    std::uint32_t ranks;
    KernelTier tier;
    bool overlap;
    bool fullSliceReference;
    bool migrate = false; ///< rotate every block one rank on mid-run
};

std::uint64_t runDigest(const bf::SetupConfig& cfg, const RunSpec& spec, uint_t steps,
                        std::uint64_t seed) {
    const auto setup = makeSetup(cfg, spec.ranks);
    const auto init = voxelFlags(cfg, seed);
    std::atomic<std::uint64_t> digest{0};
    vmpi::ThreadCommWorld::launch(int(spec.ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, setup, init, spec.tier);
        s.setWallVelocity({0.04, 0, 0});
        s.setPressureDensity(real_c(1.01));
        s.setOverlapCommunication(spec.overlap);
        if (spec.fullSliceReference)
            s.setPreStepCallback([&s](std::uint64_t) { refillFullSlices(s); });
        const TRT op = TRT::fromOmegaAndMagic(1.6);
        if (spec.migrate) {
            s.run(steps / 2, op);
            std::vector<std::uint32_t> rotated;
            for (const auto& b : s.setup().blocks())
                rotated.push_back((b.process + 1) % spec.ranks);
            rebalance::migrate(s, rotated);
            s.run(steps - steps / 2, op);
        } else {
            s.run(steps, op);
        }
        const std::uint64_t d = s.stateDigest(); // collective
        if (comm.rank() == 0) digest = d;
    });
    return digest.load();
}

TEST(GhostCopyPlanTest, PlanDrivenRunsMatchFullSliceReferenceAcrossRanks) {
    const auto cfg = boxConfig(2, 2, 2); // 8 blocks: local faces, edges, corners
    for (KernelTier tier : {KernelTier::Simd, KernelTier::AaSimd})
        for (bool overlap : {false, true})
            for (std::uint32_t ranks : {1u, 2u, 3u, 4u, 8u}) {
                SCOPED_TRACE(std::string(sim::isAaTier(tier) ? "AaSimd" : "Simd") +
                             (overlap ? " overlap" : " sync") +
                             " ranks=" + std::to_string(ranks));
                const std::uint64_t seed = 900 + ranks;
                const auto want = runDigest(cfg, {ranks, tier, overlap, true}, 7, seed);
                const auto got = runDigest(cfg, {ranks, tier, overlap, false}, 7, seed);
                EXPECT_NE(want, 0u);
                EXPECT_EQ(got, want);
            }
}

TEST(GhostCopyPlanTest, PlanIsRebuiltByLiveMigration) {
    const auto cfg = boxConfig(4, 2, 1);
    for (KernelTier tier : {KernelTier::Simd, KernelTier::AaSimd})
        for (bool overlap : {false, true}) {
            SCOPED_TRACE(std::string(sim::isAaTier(tier) ? "AaSimd" : "Simd") +
                         (overlap ? " overlap" : " sync"));
            const auto want = runDigest(cfg, {4, tier, overlap, true, true}, 7, 4242);
            const auto got = runDigest(cfg, {4, tier, overlap, false, true}, 7, 4242);
            // Migration is digest-invariant: the unmigrated run agrees too.
            const auto still = runDigest(cfg, {4, tier, overlap, false, false}, 7, 4242);
            EXPECT_EQ(got, want);
            EXPECT_EQ(got, still);
        }
}

TEST(GhostCopyPlanTest, PlanIsRebuiltByRecoveryRebind) {
    // Two blocks per rank; killing rank 1 hands its blocks to survivors,
    // which then hold new same-rank neighbor pairs — the rebuilt plan must
    // cover them.
    const int ranks = 4;
    const uint_t steps = 12;
    const auto cfg = boxConfig(4, 2, 1);
    const auto setup = makeSetup(cfg, std::uint32_t(ranks));
    const auto init = voxelFlags(cfg, 77);
    for (KernelTier tier : {KernelTier::Simd, KernelTier::AaSimd}) {
        SCOPED_TRACE(sim::isAaTier(tier) ? "AaSimd" : "Simd");
        const auto reference =
            runDigest(cfg, {std::uint32_t(ranks), tier, false, true}, steps, 77);
        ASSERT_NE(reference, 0u);

        vmpi::FaultPlan plan;
        plan.killRank = 1;
        plan.killAtStep = 6;
        recover::RecoveryOptions opt;
        opt.enabled = true;
        opt.buddyEvery = 4;
        std::atomic<std::uint64_t> healed{0};
        std::atomic<int> recoveries{-1};
        vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& base) {
            vmpi::FaultyComm faulty(base, plan);
            vmpi::ReliableComm reliable(faulty);
            reliable.setRecvDeadline(250ms);
            sim::DistributedSimulation s(reliable, setup, init, tier);
            s.setWallVelocity({0.04, 0, 0});
            s.setPressureDensity(real_c(1.01));
            s.setFlightRecorderDumpPrefix(testing::TempDir() + "/walb_ghost_plan_kill");
            s.setPreStepCallback([&](std::uint64_t step) { faulty.beginStep(step); });
            recover::RecoveryManager manager(s, opt);
            try {
                manager.runWithRecovery(steps, TRT::fromOmegaAndMagic(1.6));
            } catch (const vmpi::CommError& e) {
                if (recover::RecoveryManager::isSelfDeath(e, base.rank())) return;
                throw;
            }
            const std::uint64_t d = s.stateDigest();
            if (manager.activeComm().rank() == 0) {
                healed = d;
                recoveries = manager.recoveries();
            }
        });
        EXPECT_EQ(recoveries.load(), 1);
        EXPECT_EQ(healed.load(), reference);
    }
}

} // namespace
} // namespace walb
