#include "rebalance/Migrator.h"

#include <map>
#include <string>

#include "core/Buffer.h"
#include "core/Debug.h"
#include "core/Random.h"
#include "core/Timer.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/Comm.h"

namespace walb::rebalance {

namespace {

/// The typed error for a malformed migration message from `srcRank`,
/// reported to the comm's error observer like every other CommError.
vmpi::CommError corruptMessage(vmpi::Comm& comm, std::uint32_t srcRank,
                               const std::string& detail) {
    vmpi::CommError err(vmpi::CommError::Kind::Corrupt, int(srcRank), kMigrationTag, 0.0,
                        detail);
    comm.reportError(err);
    return err;
}

/// Order-sensitive hash of the assignment, for the cross-rank agreement
/// check — a rank acting on a divergent assignment would silently corrupt
/// the block structure, so divergence must abort loudly instead.
// walb-lint: begin(deterministic)
std::uint64_t assignmentHash(const std::vector<std::uint32_t>& owner) {
    std::uint64_t h = 0x243f6a8885a308d3ull;
    for (std::uint32_t o : owner) {
        std::uint64_t s = h ^ o;
        h = splitmix64(s);
    }
    return h;
}
// walb-lint: end(deterministic)

} // namespace

MigrationStats migrate(sim::DistributedSimulation& sim,
                       const std::vector<std::uint32_t>& newOwner) {
    Timer wall;
    wall.start();

    vmpi::Comm& comm = sim.comm();
    const bf::SetupBlockForest& setup = sim.setup();
    const auto myRank = std::uint32_t(comm.rank());
    WALB_ASSERT(newOwner.size() == setup.numBlocks(), "assignment size mismatch");

    // All ranks must act on the identical assignment.
    std::uint64_t hashes[2] = {assignmentHash(newOwner), assignmentHash(newOwner)};
    // walb-lint: allow(blocking): assignment-agreement collective guarding the migration itself (two reduces on the next lines)
    comm.allreduce(std::span<std::uint64_t>(hashes, 1), vmpi::ReduceOp::Min);
    comm.allreduce(std::span<std::uint64_t>(hashes + 1, 1), vmpi::ReduceOp::Max); // walb-lint: allow(blocking): second leg of the agreement check above
    WALB_ASSERT(hashes[0] == hashes[1],
               "migration assignment differs across ranks (collective broken)");

    std::vector<std::uint32_t> oldOwner(setup.numBlocks());
    for (std::size_t i = 0; i < setup.numBlocks(); ++i)
        oldOwner[i] = setup.blocks()[i].process;

    MigrationStats stats;
    for (std::size_t i = 0; i < setup.numBlocks(); ++i)
        if (oldOwner[i] != newOwner[i]) ++stats.blocksMoved;

    // Local block b <-> setup index: the BlockForest constructor extracts
    // this rank's blocks in setup storage order.
    const bf::BlockForest& forest = sim.forest();
    std::vector<std::size_t> setupIdxOfLocal;
    for (std::size_t i = 0; i < setup.numBlocks(); ++i)
        if (oldOwner[i] == myRank) setupIdxOfLocal.push_back(i);
    WALB_ASSERT(setupIdxOfLocal.size() == forest.numLocalBlocks(),
                "setup assignment and local forest disagree");

    // 1. Pack every block as a checkpoint record (sim/Checkpoint.h), one
    // buffer per new owner — this rank's own buffer holds the staying ones.
    std::map<std::uint32_t, SendBuffer> records;
    std::map<std::uint32_t, std::uint32_t> numRecords;
    for (std::size_t b = 0; b < forest.numLocalBlocks(); ++b) {
        const std::uint32_t dest = newOwner[setupIdxOfLocal[b]];
        sim::appendBlockRecord(sim, b, records[dest]);
        ++numRecords[dest];
    }

    // 2. Buffered non-blocking sends — safe to post before any recv, and
    // therefore safe to rebuild the local structure while in flight.
    for (auto& [dest, buf] : records) {
        if (dest == myRank) continue;
        SendBuffer framed;
        framed << numRecords[dest];
        framed.putBytes(buf.data(), buf.size());
        stats.bytesSent += framed.size();
        comm.send(int(dest), kMigrationTag, framed.release());
    }

    sim.applyBlockAssignment(newOwner);

    // 3. Restore the staying blocks. Their records were written by this
    // rank a moment ago, so a failure is a local bug, not a bad message.
    RecvBuffer stayed(records[myRank].release());
    for (std::uint32_t k = 0; k < numRecords[myRank]; ++k) {
        std::string err;
        const int applied = sim::applyBlockRecord(sim, stayed, &err);
        WALB_ASSERT(applied == 1, "stayed block failed to restore after the rebuild: " << err);
    }

    // 4. Receive incoming blocks, in ascending source-rank order (the set of
    // senders is derived from the same owner vectors on both sides). Every
    // record is CRC- and geometry-checked before it touches live fields; a
    // malformed message surfaces as CommError{Corrupt} naming the sender.
    std::map<std::uint32_t, std::uint32_t> expected; // src rank -> #blocks
    for (std::size_t i = 0; i < setup.numBlocks(); ++i)
        if (newOwner[i] == myRank && oldOwner[i] != myRank) ++expected[oldOwner[i]];
    for (const auto& [srcRank, numBlocks] : expected) {
        // walb-lint: allow(blocking): sender set derived from the agreed owner vectors on both sides, so the matching send exists; comm deadline bounds a lost peer
        RecvBuffer msg(comm.recv(int(srcRank), kMigrationTag));
        stats.bytesReceived += msg.size();
        try {
            std::uint32_t count = 0;
            msg >> count;
            if (count != numBlocks)
                throw corruptMessage(comm, srcRank,
                                     "migration message carries " + std::to_string(count) +
                                         " blocks, expected " + std::to_string(numBlocks));
            for (std::uint32_t k = 0; k < count; ++k) {
                std::string err;
                const int applied = sim::applyBlockRecord(sim, msg, &err);
                if (applied != 1)
                    throw corruptMessage(comm, srcRank,
                                         applied == 0
                                             ? "migration message carries a block not "
                                               "assigned here"
                                             : err);
            }
            if (!msg.atEnd())
                throw corruptMessage(comm, srcRank,
                                     std::to_string(msg.remaining()) +
                                         " trailing bytes in migration message");
        } catch (const BufferError& e) {
            throw corruptMessage(comm, srcRank,
                                 std::string("truncated migration message: ") + e.what());
        }
    }

    // 5. Ghost layers under the new neighborhood plan.
    sim.refillGhostLayers();

    wall.stop();
    stats.seconds = wall.total();
    return stats;
}

} // namespace walb::rebalance
