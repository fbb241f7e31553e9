#pragma once
/// \file Checkpoint.h
/// Checkpoint/restart of a DistributedSimulation — the fault-tolerance leg
/// the production frameworks treat as table stakes (waLBerla's
/// checkpoint-based resilience, OpenLB's save/load of the lattice state).
///
/// Format (version 3, file extension .wckp by convention), written through
/// core/BinaryIO's endian-independent buffers:
///
///   u32 magic 'WCKP'   u32 version   u32 worldSize
///   u32 cellsPerBlock{X,Y,Z}         u64 step      u32 numRankContributions
///   repeat numRankContributions times:  byte-vector (length-prefixed)
///
/// Each rank contribution holds the writing rank, its block assignment and
/// per block one record — the single block-state format that the disk
/// checkpoint, the in-memory buddy copy (walb::recover) and live migration
/// (walb::rebalance) all carry:
///
///   u32 rank   u32 numBlocks
///   per block: BlockID{u32 root, u8 level, u64 path}
///              u64 payloadBytes   u32 crc32(flag field)   u32 crc32(payload)
///              payload: DistributedSimulation::packBlockState — the
///              canonical post-collision PDFs of the block's interior
///              fluid cells (fluid cells x 19 x 8 bytes)
///
/// The payload is the same for every kernel tier and AA parity, so a
/// restart may use a different tier than the save. Flags are not stored:
/// they are a pure function of position, re-derived by the receiver's flag
/// initializer. Their CRC (whole field, ghost layers included) is a
/// geometry fingerprint — a record is rejected, naming the block, when the
/// receiver was built with a different geometry.
///
/// Why the fluid-cell payload restores a run bit-exactly: every PDF slot a
/// kernel or boundary sweep reads either belongs to an interior fluid cell
/// (restored), is a ghost slot refilled by the next exchange, or is a
/// boundary-cell slot the boundary sweep overwrites before it is read. The
/// rest of the allocation keeps whatever the receiver held.
///
/// Both CRCs are verified *before* a payload is applied, so a corrupted or
/// foreign file never clobbers a live simulation state; checkpointLoad
/// checks every record on every rank before any rank writes.
///
/// Writing follows the paper's one-writer file strategy (§2.2): rank 0
/// gathers all contributions and performs a single write; loading reads the
/// file once on rank 0 and broadcasts. Blocks are matched by BlockID, not by
/// rank, so a restart may use a different load balancing than the save.

#include <cstdint>
#include <string>

#include "core/Buffer.h"

namespace walb::sim {

class DistributedSimulation;

inline constexpr std::uint32_t kCheckpointMagic = 0x57434b50; // "WCKP"
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Parsed fixed-size prefix of a checkpoint file.
struct CheckpointHeader {
    std::uint32_t version = 0;
    std::uint32_t worldSize = 0;
    std::uint32_t cellsX = 0, cellsY = 0, cellsZ = 0;
    std::uint64_t step = 0;
    std::uint32_t numRankContributions = 0;
};

/// Collective: every rank contributes its blocks; rank 0 writes the file.
/// All ranks return the same success flag (the write outcome is broadcast).
/// `bytesWritten` (if non-null) receives the file size on every rank.
bool checkpointSave(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t step, std::size_t* bytesWritten = nullptr,
                    std::string* error = nullptr);

/// Collective: rank 0 reads the file with one read operation and broadcasts;
/// every rank checks its own blocks' records (geometry, size, CRC), the
/// ranks agree, and only then restore their blocks and the simulation's step
/// counter. Returns false on every rank — with a diagnosis in `error` and
/// the live state untouched — on a missing file, bad magic/version, geometry
/// mismatch, CRC failure, or truncation.
bool checkpointLoad(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t* stepOut = nullptr, std::string* error = nullptr);

/// Local (no communicator): reads just the header for inspection.
bool checkpointPeek(const std::string& path, CheckpointHeader& out,
                    std::string* error = nullptr);

/// Identity of the block a record names (the BlockID fields as written).
struct BlockRecordId {
    std::uint32_t root = 0;
    std::uint8_t level = 0;
    std::uint64_t path = 0;
};

/// Appends one local block's record (format above) to `buf`.
void appendBlockRecord(DistributedSimulation& sim, std::size_t block,
                       SendBuffer& buf);

/// Advances `rb` past one block record without applying it and returns the
/// block it names — for callers that route records (buddy shipping). Throws
/// BufferError on a truncated record.
BlockRecordId skipBlockRecord(RecvBuffer& rb);

/// Consumes one block record from `rb`. When the named block is local, the
/// geometry fingerprint, payload size and CRC are verified *before* the
/// payload touches the live fields and the block is restored under the
/// simulation's current step parity; a record for a block owned elsewhere
/// is skipped. Returns +1 applied, 0 skipped, -1 failure — on failure
/// `error` names the offending BlockID. May throw BufferError on a
/// truncated record (callers wrap the whole stream parse).
int applyBlockRecord(DistributedSimulation& sim, RecvBuffer& rb,
                     std::string* error = nullptr);

/// Collective: order-independent fingerprint of the physical PDF state —
/// the allreduced sum of every block's payload CRC32 (the record payload
/// above). It hashes the canonical PDFs of interior fluid cells only, so it
/// is invariant under the AA storage parity, under a migration (which moves
/// payloads and refills ghosts) and across kernel tiers: a two-grid and an
/// AA run of the same trajectory digest equal. Ghost and non-fluid slots
/// are not state (see the format note), so equal digests mean bit-exact
/// equal fields everywhere a sweep reads before writing.
std::uint64_t checkpointDigest(DistributedSimulation& sim);

// ---- driver wiring ---------------------------------------------------------

/// Command-line surface shared by the fig6/fig7 drivers (and the ctest
/// kill-and-restart smoke):
///   --checkpoint-every N    save every N steps (and at the end of the run)
///   --checkpoint-path P     checkpoint file (default walb_checkpoint.wckp)
///   --restart-from P        load P before stepping, resume at its step
///   --stop-after N          stop after step N (simulates a killed process)
///   --steps N               override the driver's default step count
struct CheckpointOptions {
    std::uint64_t every = 0;
    std::string path = "walb_checkpoint.wckp";
    std::string restartFrom;
    std::uint64_t stopAfter = 0;
    std::uint64_t steps = 0;

    /// True when any checkpoint/restart flag was given.
    bool any() const {
        return every > 0 || !restartFrom.empty() || stopAfter > 0 || steps > 0;
    }

    /// Throws ArgError (core/ParseNumber.h) naming the flag on a malformed
    /// or out-of-range number.
    static CheckpointOptions fromArgs(int argc, char** argv);
};

} // namespace walb::sim
