#pragma once
/// \file Migrator.h
/// Migration layer of `walb::rebalance`: applies a new block -> rank
/// assignment to a *running* DistributedSimulation, moving live field
/// state over the virtual-MPI layer.
///
/// Protocol (collective; every rank derives the identical move list from
/// the old/new owner vectors, so no negotiation messages are needed):
///   1. pack every local block as a checkpoint block record
///      (sim/Checkpoint.h: BlockID, flag-field and payload CRCs, the
///      canonical PDFs of the interior fluid cells) — departing blocks into
///      one tagged message per destination rank, staying blocks into a
///      local buffer;
///   2. sends are buffered and non-blocking (vmpi contract), so the
///      structure can be rebuilt immediately: applyBlockAssignment()
///      replaces the BlockForest, its per-block data (flags re-derived —
///      they are a pure function of global position) and the BufferSystem
///      exchange plan;
///   3. apply the staying records, then receive + verify + apply incoming
///      ones. A malformed message (wrong block count, CRC or geometry
///      mismatch, truncation, trailing bytes) throws
///      vmpi::CommError{Corrupt} naming the sender;
///   4. one ghost-layer exchange re-fills the ghost layers under the new
///      neighborhood plan.
///
/// checkpointDigest() hashes exactly the record payloads, so it is invariant
/// across migrate().

#include <cstdint>
#include <vector>

#include "vmpi/Tags.h"

namespace walb::sim {
class DistributedSimulation;
}

namespace walb::rebalance {

/// The message tag of block-migration traffic (vmpi::tags::kMigration;
/// ghost exchange runs on vmpi::tags::kGhostExchange).
inline constexpr int kMigrationTag = vmpi::tags::kMigration;

struct MigrationStats {
    std::size_t blocksMoved = 0;   ///< global: blocks that changed rank
    std::size_t bytesSent = 0;     ///< this rank's outgoing payload bytes
    std::size_t bytesReceived = 0; ///< this rank's incoming payload bytes
    double seconds = 0.0;          ///< wall time of the whole epoch, this rank
};

/// Collective live migration to `newOwner` (indexed like
/// sim.setup().blocks(); identical on every rank — asserted via an
/// allreduced assignment hash). No-op moves (newOwner == current owner
/// everywhere) still rebuild and re-fill, keeping the path exercised.
MigrationStats migrate(sim::DistributedSimulation& sim,
                       const std::vector<std::uint32_t>& newOwner);

} // namespace walb::rebalance
