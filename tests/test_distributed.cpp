/// Integration tests of the full distributed stack: block forest + virtual
/// MPI + ghost-layer PDF exchange + boundary handling + kernels. The
/// gold standard: a multi-block, multi-rank run must reproduce the
/// single-block reference solution of the same global problem.

#include <gtest/gtest.h>

#include "sim/DistributedSimulation.h"
#include "sim/SingleBlockSimulation.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb::sim {
namespace {

using lbm::TRT;

constexpr cell_idx_t N = 16; // global domain: N^3 cells

/// Global flag assignment of the reference problem: lid-driven cavity with
/// a moving lid at y = N-1 and no-slip walls elsewhere.
void cavityFlags(field::FlagField& flags, const lbm::BoundaryFlags& masks, const Cell& offset) {
    flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        const Cell g{offset.x + x, offset.y + y, offset.z + z};
        if (g.x < 0 || g.y < 0 || g.z < 0 || g.x >= N || g.y >= N || g.z >= N) return;
        if (g.y == N - 1) flags.addFlag(x, y, z, masks.ubb);
        else if (g.x == 0 || g.x == N - 1 || g.y == 0 || g.z == 0 || g.z == N - 1)
            flags.addFlag(x, y, z, masks.noSlip);
        else flags.addFlag(x, y, z, masks.fluid);
    });
}

/// Reference single-block solution.
std::vector<Vec3> referenceCavity(uint_t steps, const std::vector<Cell>& probes) {
    SingleBlockSimulation::Config cfg;
    cfg.xSize = N;
    cfg.ySize = N;
    cfg.zSize = N;
    SingleBlockSimulation sim(cfg);
    cavityFlags(sim.flags(), sim.masks(), {0, 0, 0});
    sim.finalize();
    sim.boundary().setWallVelocity({0.04, 0, 0});
    sim.run(steps, TRT::fromOmegaAndMagic(1.3));
    std::vector<Vec3> result;
    for (const Cell& p : probes) result.push_back(sim.velocity(p.x, p.y, p.z));
    return result;
}

bf::SetupBlockForest cavitySetup(std::uint32_t blocksPerAxis, std::uint32_t ranks,
                                 bool graphBalance = false) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, real_c(N), real_c(N), real_c(N));
    cfg.rootBlocksX = cfg.rootBlocksY = cfg.rootBlocksZ = blocksPerAxis;
    const auto cells = std::uint32_t(uint_c(N) / blocksPerAxis);
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = cells;
    auto setup = bf::SetupBlockForest::create(cfg);
    if (graphBalance) setup.balanceGraph(ranks);
    else setup.balanceMorton(ranks);
    return setup;
}

DistributedSimulation::FlagInitializer distributedCavityFlags() {
    return [](field::FlagField& flags, const lbm::BoundaryFlags& masks,
              const bf::BlockForest::Block& block, const geometry::CellMapping& mapping) {
        const auto cells = cell_idx_c(std::llround(mapping.blockBox.xSize() / mapping.dx));
        const Cell offset{block.gridPos.x * cells, block.gridPos.y * cells,
                          block.gridPos.z * cells};
        cavityFlags(flags, masks, offset);
    };
}

struct DistCase {
    std::uint32_t blocksPerAxis;
    int ranks;
    bool graphBalance;
    KernelTier tier;
};

class DistributedEquivalence : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedEquivalence, MatchesSingleBlockReference) {
    const auto param = GetParam();
    const uint_t steps = 40;
    const std::vector<Cell> probes = {
        {N / 2, N / 2, N / 2}, {1, N - 2, 1}, {N - 2, 1, N - 2}, {3, 7, 11}, {7, 7, 8}};
    const std::vector<Vec3> reference = referenceCavity(steps, probes);

    const auto setup = cavitySetup(param.blocksPerAxis, std::uint32_t(param.ranks),
                                   param.graphBalance);
    vmpi::ThreadCommWorld::launch(param.ranks, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags(), param.tier);
        sim.setWallVelocity({0.04, 0, 0});
        sim.run(steps, TRT::fromOmegaAndMagic(1.3));
        for (std::size_t p = 0; p < probes.size(); ++p) {
            const Vec3 u = sim.gatherCellVelocity(probes[p]);
            EXPECT_NEAR(u[0], reference[p][0], 1e-13) << "probe " << probes[p];
            EXPECT_NEAR(u[1], reference[p][1], 1e-13) << "probe " << probes[p];
            EXPECT_NEAR(u[2], reference[p][2], 1e-13) << "probe " << probes[p];
        }
    });
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, DistributedEquivalence,
    ::testing::Values(DistCase{2, 1, false, KernelTier::Simd},   // multi-block, one rank
                      DistCase{2, 4, false, KernelTier::Simd},   // 8 blocks on 4 ranks
                      DistCase{2, 8, false, KernelTier::Simd},   // one block per rank
                      DistCase{4, 4, false, KernelTier::Simd},   // 64 blocks on 4 ranks
                      DistCase{2, 4, true, KernelTier::Simd},    // graph-balanced
                      DistCase{2, 4, false, KernelTier::Generic},
                      DistCase{2, 4, false, KernelTier::D3Q19}),
    [](const auto& tinfo) {
        const auto& p = tinfo.param;
        std::string name = std::to_string(p.blocksPerAxis) + "x_ranks" +
                           std::to_string(p.ranks) + (p.graphBalance ? "_graph" : "_morton");
        name += p.tier == KernelTier::Simd ? "_simd"
              : p.tier == KernelTier::Generic ? "_generic" : "_d3q19";
        return name;
    });

TEST(Distributed, MassConservedAcrossRanks) {
    const auto setup = cavitySetup(2, 4);
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags());
        sim.setWallVelocity({0.04, 0, 0});
        const real_t m0 = sim.gatherTotalMass();
        sim.run(100, TRT::fromOmegaAndMagic(1.3));
        EXPECT_NEAR(sim.gatherTotalMass(), m0, 1e-9 * m0);
    });
}

TEST(Distributed, UniformEquilibriumIsExactFixedPoint) {
    // An all-periodic-free enclosed box at rest must stay exactly at rest:
    // any packing/unpacking asymmetry would disturb it.
    const auto setup = cavitySetup(2, 8);
    vmpi::ThreadCommWorld::launch(8, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags());
        sim.setWallVelocity({0, 0, 0}); // lid at rest: closed box
        sim.run(20, TRT::fromOmegaAndMagic(1.0));
        const Vec3 u = sim.gatherCellVelocity({N / 2, N / 2, N / 2});
        // Zero up to non-associative summation residue of the lattice
        // weights (~1e-18); any packing asymmetry would be orders larger.
        EXPECT_NEAR(u[0], 0.0, 1e-15);
        EXPECT_NEAR(u[1], 0.0, 1e-15);
        EXPECT_NEAR(u[2], 0.0, 1e-15);
    });
}

TEST(Distributed, FluidCellCountsMatchReference) {
    const auto setup = cavitySetup(2, 4);
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags());
        // Interior fluid cells of the cavity: (N-2)^3 minus nothing else.
        EXPECT_EQ(sim.globalFluidCells(), uint_c((N - 2) * (N - 2) * (N - 2)));
    });
}

TEST(Distributed, CommunicationVolumeIsDirectionSliced) {
    // With 2x2x2 blocks of 8^3 cells on 2 ranks (Morton: 4 blocks each),
    // the direction-sliced exchange ships 5 PDFs per face cell and 1 per
    // edge cell -- far less than the full 19 PDFs per ghost cell.
    const auto setup = cavitySetup(2, 2);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags());
        sim.run(1, TRT::fromOmegaAndMagic(1.3));
        const std::size_t bytes = sim.bytesLastExchange();
        ASSERT_GT(bytes, 0u);
        // Upper bound if all 19 PDFs of every interface cell were sent:
        // 4 faces of 64 cells (+ edges) per rank pair ~ conservative bound.
        const std::size_t fullBytes = 4u * 64u * 19u * sizeof(real_t) * 2;
        EXPECT_LT(bytes, fullBytes / 2) << "exchange not direction-sliced?";
    });
}

TEST(Distributed, TimingPoolSeparatesPhases) {
    const auto setup = cavitySetup(2, 2);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags());
        sim.run(5, TRT::fromOmegaAndMagic(1.3));
        EXPECT_EQ(sim.timing()["communication"].count(), 5u);
        EXPECT_EQ(sim.timing()["collideStream"].count(), 5u);
        EXPECT_GT(sim.timing().grandTotal(), 0.0);
        EXPECT_GT(sim.timing().fraction("collideStream"), 0.0);
    });
}

TEST(Distributed, SerialCommBackendWorksToo) {
    const auto setup = cavitySetup(2, 1);
    vmpi::SerialComm comm;
    DistributedSimulation sim(comm, setup, distributedCavityFlags());
    sim.setWallVelocity({0.04, 0, 0});
    sim.run(10, TRT::fromOmegaAndMagic(1.3));
    const Vec3 u = sim.gatherCellVelocity({N / 2, N - 2, N / 2});
    EXPECT_NE(u[0], 0.0); // lid layer is moving
}

} // namespace
} // namespace walb::sim
