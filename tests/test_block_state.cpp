/// Tests for the one block-state payload (DistributedSimulation::
/// packBlockState / unpackBlockState, carried by the checkpoint record of
/// sim/Checkpoint.h): the checkpoint, the buddy copy and a live migration
/// restore a run bit-exactly even when every PDF slot outside the payload
/// holds NaN afterwards; the payload and the digest are tier-independent, so
/// a two-grid checkpoint restarts an AA simulation and vice versa; the file
/// holds nothing but headers and fluid-cell PDFs; version-2 files and files
/// of a different geometry are rejected without touching the live state;
/// and a mangled migration message is a typed CommError, not an abort.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/BinaryIO.h"
#include "core/Buffer.h"
#include "rebalance/Migrator.h"
#include "recover/BuddyCheckpoint.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using namespace std::chrono_literals;
using lbm::TRT;
using sim::KernelTier;

constexpr std::uint64_t kSteps = 9;
const TRT kOp = TRT::fromOmegaAndMagic(1.6);

std::uint64_t cellHash(std::uint64_t seed, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    std::uint64_t h = seed ^ (std::uint64_t(std::uint32_t(x)) << 42) ^
                      (std::uint64_t(std::uint32_t(y)) << 21) ^
                      std::uint64_t(std::uint32_t(z));
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

/// Random voxel channel with every boundary type (UBB lid, pressure face,
/// no-slip walls and obstacles); a pure function of global position.
sim::DistributedSimulation::FlagInitializer voxelFlags(cell_idx_t NX, std::uint64_t seed) {
    return [=](field::FlagField& flags, const lbm::BoundaryFlags& masks,
               const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 p = mapping.cellCenter(x, y, z);
            if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > real_c(NX) || p[1] > 8 ||
                p[2] > 8)
                return;
            const Cell g{cell_idx_t(p[0]), cell_idx_t(p[1]), cell_idx_t(p[2])};
            if (g.z == 7) flags.addFlag(x, y, z, masks.ubb);
            else if (g.y == 0) flags.addFlag(x, y, z, masks.pressure);
            else if (g.x == 0 || g.x == NX - 1 || g.y == 7 || g.z == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else if (cellHash(seed, g.x, g.y, g.z) % 6 == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else
                flags.addFlag(x, y, z, masks.fluid);
        });
    };
}

/// Four 8^3 blocks in a row, Morton-balanced over `ranks`.
struct Scenario {
    explicit Scenario(std::uint32_t numRanks, std::uint64_t seed = 42) : ranks(numRanks) {
        bf::SetupConfig cfg;
        cfg.domain = AABB(0, 0, 0, 32, 8, 8);
        cfg.rootBlocksX = 4;
        cfg.rootBlocksY = cfg.rootBlocksZ = 1;
        cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
        setup = bf::SetupBlockForest::create(cfg);
        setup.balanceMorton(ranks);
        flags = voxelFlags(32, seed);
    }

    void configure(sim::DistributedSimulation& s) const {
        s.setWallVelocity({0.04, 0, 0});
        s.setPressureDensity(real_c(1.01));
        s.setFlightRecorderDumpPrefix(testing::TempDir() + "/walb_block_state");
    }

    std::uint32_t ranks;
    bf::SetupBlockForest setup;
    sim::DistributedSimulation::FlagInitializer flags;
};

/// Sets every PDF slot outside the block-state payload to NaN: pack, fill
/// the whole allocation with NaN, unpack. Any later read of such a slot
/// before it is rewritten spreads NaN into the fluid and the digest.
void poisonOutsidePayload(sim::DistributedSimulation& s) {
    for (std::size_t b = 0; b < s.forest().numLocalBlocks(); ++b) {
        SendBuffer payload;
        s.packBlockState(b, payload);
        EXPECT_EQ(payload.size(), s.blockStateBytes(b));
        s.pdfField(b).fill(std::numeric_limits<real_t>::quiet_NaN());
        RecvBuffer rb(payload.release());
        s.unpackBlockState(b, rb);
        EXPECT_TRUE(rb.atEnd());
    }
}

/// Non-finite canonical PDF values on this rank's interior fluid cells.
std::uint64_t nonFiniteFluidPdfs(sim::DistributedSimulation& s) {
    std::uint64_t bad = 0;
    for (std::size_t b = 0; b < s.forest().numLocalBlocks(); ++b) {
        const auto& flags = s.flagField(b);
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!(flags.get(x, y, z) & s.masks().fluid)) return;
            for (real_t v : s.cellCanonicalPdfs(b, x, y, z))
                if (!std::isfinite(v)) ++bad;
        });
    }
    return bad;
}

/// Digest after `steps` uninterrupted steps.
std::uint64_t referenceDigest(const Scenario& sc, KernelTier tier, std::uint64_t steps) {
    std::atomic<std::uint64_t> digest{0};
    vmpi::ThreadCommWorld::launch(int(sc.ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, sc.setup, sc.flags, tier);
        sc.configure(s);
        s.run(steps, kOp);
        const std::uint64_t d = s.stateDigest();
        if (comm.rank() == 0) digest = d;
    });
    return digest.load();
}

/// Finishes the run to kSteps and records the digest and the non-finite
/// fluid PDF count.
void finishRun(sim::DistributedSimulation& s, vmpi::Comm& comm,
               std::atomic<std::uint64_t>& digest, std::atomic<std::uint64_t>& bad) {
    s.run(kSteps - s.currentStep(), kOp);
    const std::uint64_t d = s.stateDigest();
    const std::uint64_t n = vmpi::allreduceSum(comm, nonFiniteFluidPdfs(s));
    if (comm.rank() == 0) {
        digest = d;
        bad = n;
    }
}

struct SentinelCase {
    KernelTier tier;
    std::uint32_t ranks;
};

class BlockStateSentinel : public testing::TestWithParam<SentinelCase> {};

TEST_P(BlockStateSentinel, CheckpointLoadRestoresOnlyThePayload) {
    const auto [tier, ranks] = GetParam();
    const Scenario sc(ranks);
    const std::uint64_t want = referenceDigest(sc, tier, kSteps);
    // One file per case: ctest runs the cases as parallel processes.
    const std::string path = testing::TempDir() + "/walb_block_state_sentinel_t" +
                             std::to_string(int(tier)) + "_r" + std::to_string(ranks) +
                             ".wckp";
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, sc.setup, sc.flags, tier);
        sc.configure(s);
        s.run(5, kOp);
        ASSERT_TRUE(s.saveCheckpoint(path));
    });
    std::atomic<std::uint64_t> digest{0}, bad{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, sc.setup, sc.flags, tier);
        sc.configure(s);
        std::string err;
        ASSERT_TRUE(s.loadCheckpoint(path, &err)) << err;
        poisonOutsidePayload(s);
        finishRun(s, comm, digest, bad);
    });
    std::remove(path.c_str());
    EXPECT_EQ(digest.load(), want);
    EXPECT_EQ(bad.load(), 0u);
}

TEST_P(BlockStateSentinel, BuddyRestoreRestoresOnlyThePayload) {
    const auto [tier, ranks] = GetParam();
    const Scenario sc(ranks);
    const std::uint64_t want = referenceDigest(sc, tier, kSteps);
    std::atomic<std::uint64_t> digest{0}, bad{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, sc.setup, sc.flags, tier);
        sc.configure(s);
        s.run(4, kOp);
        recover::BuddyCheckpoint buddy;
        buddy.refresh(s, comm, s.currentStep());
        s.run(3, kOp);
        std::string err;
        ASSERT_TRUE(buddy.restoreOwnBlocks(s, &err)) << err;
        ASSERT_EQ(s.currentStep(), 4u);
        poisonOutsidePayload(s);
        finishRun(s, comm, digest, bad);
    });
    EXPECT_EQ(digest.load(), want);
    EXPECT_EQ(bad.load(), 0u);
}

TEST_P(BlockStateSentinel, MigrationRestoresOnlyThePayload) {
    const auto [tier, ranks] = GetParam();
    const Scenario sc(ranks);
    const std::uint64_t want = referenceDigest(sc, tier, kSteps);
    std::atomic<std::uint64_t> digest{0}, bad{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, sc.setup, sc.flags, tier);
        sc.configure(s);
        s.run(3, kOp);
        std::vector<std::uint32_t> rotated;
        for (const auto& b : s.setup().blocks()) rotated.push_back((b.process + 1) % ranks);
        rebalance::migrate(s, rotated);
        poisonOutsidePayload(s);
        finishRun(s, comm, digest, bad);
    });
    EXPECT_EQ(digest.load(), want);
    EXPECT_EQ(bad.load(), 0u);
}

std::string sentinelCaseName(const testing::TestParamInfo<SentinelCase>& c) {
    return std::string(c.param.tier == KernelTier::Simd ? "Simd" : "AaSimd") +
           std::to_string(c.param.ranks) + "Ranks";
}

INSTANTIATE_TEST_SUITE_P(
    TiersAndRanks, BlockStateSentinel,
    testing::Values(SentinelCase{KernelTier::Simd, 1}, SentinelCase{KernelTier::Simd, 2},
                    SentinelCase{KernelTier::Simd, 4}, SentinelCase{KernelTier::AaSimd, 1},
                    SentinelCase{KernelTier::AaSimd, 2}, SentinelCase{KernelTier::AaSimd, 4}),
    sentinelCaseName);

// ---- cross-tier --------------------------------------------------------------

TEST(BlockStateCrossTier, TwoGridAndAaDigestsAreEqualAtBothParities) {
    const Scenario sc(2);
    for (std::uint64_t steps : {4u, 5u}) {
        SCOPED_TRACE("steps " + std::to_string(steps));
        const std::uint64_t twoGrid = referenceDigest(sc, KernelTier::Simd, steps);
        EXPECT_NE(twoGrid, 0u);
        EXPECT_EQ(referenceDigest(sc, KernelTier::AaSimd, steps), twoGrid);
    }
}

TEST(BlockStateCrossTier, CheckpointRestartsTheOtherTier) {
    const Scenario sc(2);
    const std::uint64_t want = referenceDigest(sc, KernelTier::Simd, kSteps);
    const std::string path = testing::TempDir() + "/walb_block_state_cross.wckp";
    const std::pair<KernelTier, KernelTier> directions[] = {
        {KernelTier::Simd, KernelTier::AaSimd}, {KernelTier::AaSimd, KernelTier::Simd}};
    for (const auto& [saver, loader] : directions)
        for (std::uint64_t saveStep : {4u, 5u}) {
            SCOPED_TRACE(std::string(saver == KernelTier::Simd ? "Simd -> AaSimd"
                                                               : "AaSimd -> Simd") +
                         ", saved at step " + std::to_string(saveStep));
            vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
                sim::DistributedSimulation s(comm, sc.setup, sc.flags, saver);
                sc.configure(s);
                s.run(saveStep, kOp);
                ASSERT_TRUE(s.saveCheckpoint(path));
            });
            std::atomic<std::uint64_t> digest{0}, bad{0};
            vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
                sim::DistributedSimulation s(comm, sc.setup, sc.flags, loader);
                sc.configure(s);
                std::string err;
                ASSERT_TRUE(s.loadCheckpoint(path, &err)) << err;
                finishRun(s, comm, digest, bad);
            });
            EXPECT_EQ(digest.load(), want);
            EXPECT_EQ(bad.load(), 0u);
        }
    std::remove(path.c_str());
}

// ---- file format -------------------------------------------------------------

TEST(BlockStateFormat, CheckpointHoldsOnlyHeadersAndFluidPdfs) {
    // File header: magic, version, worldSize, 3 x cellsPerBlock, u64 step,
    // numRankContributions. Per contribution: u64 length, rank, numBlocks.
    // Per record: BlockID (u32 + u8 + u64), u64 payload bytes, two u32 CRCs.
    constexpr std::size_t kFileHeader = 4 + 4 + 4 + 3 * 4 + 8 + 4;
    constexpr std::size_t kContributionHeader = 8 + 4 + 4;
    constexpr std::size_t kRecordHeader = 4 + 1 + 8 + 8 + 4 + 4;
    const std::string path = testing::TempDir() + "/walb_block_state_size.wckp";
    for (KernelTier tier : {KernelTier::Simd, KernelTier::AaSimd}) {
        const Scenario sc(2);
        std::atomic<std::uint64_t> fluidCells{0}, blocks{0}, written{0};
        vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
            sim::DistributedSimulation s(comm, sc.setup, sc.flags, tier);
            sc.configure(s);
            s.run(3, kOp);
            for (std::size_t b = 0; b < s.forest().numLocalBlocks(); ++b) {
                const auto& flags = s.flagField(b);
                flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                    if (flags.get(x, y, z) & s.masks().fluid) ++fluidCells;
                });
                ++blocks;
            }
            std::size_t bytes = 0;
            ASSERT_TRUE(sim::checkpointSave(s, path, s.currentStep(), &bytes));
            if (comm.rank() == 0) written = bytes;
        });
        const std::size_t expected = kFileHeader + 2 * kContributionHeader +
                                     blocks.load() * kRecordHeader +
                                     fluidCells.load() * lbm::D3Q19::Q * sizeof(real_t);
        EXPECT_EQ(written.load(), expected);
        std::vector<std::uint8_t> file;
        ASSERT_TRUE(readFile(path, file));
        EXPECT_EQ(file.size(), expected);
    }
    std::remove(path.c_str());
}

TEST(BlockStateFormat, VersionTwoFileIsRejectedByName) {
    const std::string path = testing::TempDir() + "/walb_block_state_v2.wckp";
    SendBuffer v2;
    v2 << sim::kCheckpointMagic << std::uint32_t(2) << std::uint32_t(1) << std::uint32_t(8)
       << std::uint32_t(8) << std::uint32_t(8) << std::uint64_t(4) << std::uint32_t(0);
    ASSERT_TRUE(writeFile(path, v2));

    sim::CheckpointHeader h;
    std::string err;
    EXPECT_FALSE(sim::checkpointPeek(path, h, &err));
    EXPECT_NE(err.find("version 2"), std::string::npos) << err;

    const Scenario sc(1);
    vmpi::SerialComm comm;
    sim::DistributedSimulation s(comm, sc.setup, sc.flags);
    sc.configure(s);
    s.run(3, kOp);
    const std::uint64_t before = s.stateDigest();
    err.clear();
    EXPECT_FALSE(s.loadCheckpoint(path, &err));
    EXPECT_NE(err.find("version 2"), std::string::npos) << err;
    EXPECT_EQ(s.currentStep(), 3u);
    EXPECT_EQ(s.stateDigest(), before);
    std::remove(path.c_str());
}

TEST(BlockStateFormat, DifferentGeometryIsRejectedNamingTheBlock) {
    const std::string path = testing::TempDir() + "/walb_block_state_geometry.wckp";
    const Scenario saved(2, /*seed=*/42), other(2, /*seed=*/43);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, saved.setup, saved.flags, KernelTier::AaSimd);
        saved.configure(s);
        s.run(4, kOp);
        ASSERT_TRUE(s.saveCheckpoint(path));
    });
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, other.setup, other.flags, KernelTier::AaSimd);
        other.configure(s);
        s.run(3, kOp); // parity Odd; the file's step 4 is Even
        const std::uint64_t before = s.stateDigest();
        std::string err;
        EXPECT_FALSE(s.loadCheckpoint(path, &err));
        EXPECT_NE(err.find("geometry mismatch on block "), std::string::npos) << err;
        EXPECT_EQ(s.currentStep(), 3u);
        EXPECT_EQ(s.stateDigest(), before);
    });
    std::remove(path.c_str());
}

// ---- migration faults --------------------------------------------------------

TEST(BlockStateMigration, TruncatedMessageIsATypedCorruptError) {
    const Scenario sc(2);
    vmpi::FaultPlan plan;
    vmpi::FaultPlan::MessageFault f;
    f.action = vmpi::FaultPlan::Action::Truncate;
    f.srcRank = 0;
    f.tag = rebalance::kMigrationTag;
    f.truncateToBytes = 100; // mid-record: past the block count and header
    plan.messageFaults.push_back(f);
    std::atomic<bool> corruptSeen{false};
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        vmpi::FaultyComm faulty(comm, plan);
        faulty.setRecvDeadline(2000ms);
        sim::DistributedSimulation s(faulty, sc.setup, sc.flags);
        sc.configure(s);
        s.run(2, kOp);
        std::vector<std::uint32_t> swapped;
        for (const auto& b : s.setup().blocks()) swapped.push_back(1 - b.process);
        try {
            rebalance::migrate(s, swapped);
            EXPECT_EQ(comm.rank(), 0) << "the receiver of the truncated message returned";
        } catch (const vmpi::CommError& e) {
            if (comm.rank() == 1) {
                EXPECT_EQ(e.kind, vmpi::CommError::Kind::Corrupt) << e.what();
                EXPECT_EQ(e.peer, 0);
                EXPECT_EQ(e.tag, rebalance::kMigrationTag);
                corruptSeen = true;
            } else {
                // The sender's ghost refill waits for a peer that gave up.
                EXPECT_EQ(e.kind, vmpi::CommError::Kind::DeadlineExceeded) << e.what();
            }
        }
    });
    EXPECT_TRUE(corruptSeen.load());
}

} // namespace
} // namespace walb
