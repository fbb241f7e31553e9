#include "sim/Checkpoint.h"

#include <cstdio>

#include "core/BinaryIO.h"
#include "core/Crc32.h"
#include "core/ParseNumber.h"
#include "sim/DistributedSimulation.h"

namespace walb::sim {

namespace {

void setError(std::string* error, const std::string& msg) {
    if (error) *error = msg;
}

void serializeBlockId(SendBuffer& buf, const bf::BlockID& id) {
    buf << id.rootIndex() << std::uint8_t(id.level()) << id.path();
}

/// Index of the local block with this identity, or -1.
std::int32_t findLocalBlock(const bf::BlockForest& forest, const BlockRecordId& id) {
    const auto& blocks = forest.blocks();
    for (std::size_t i = 0; i < blocks.size(); ++i)
        if (blocks[i].id.rootIndex() == id.root && blocks[i].id.level() == id.level &&
            blocks[i].id.path() == id.path)
            return std::int32_t(i);
    return -1;
}

/// Human-readable block identity for diagnostics: "root:level:path".
std::string describeBlockId(const BlockRecordId& id) {
    return std::to_string(id.root) + ":" + std::to_string(unsigned(id.level)) +
           ":" + std::to_string(id.path);
}

std::string hexCrc(std::uint32_t crc) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", crc);
    return buf;
}

bool parseHeader(RecvBuffer& file, CheckpointHeader& h, std::string* error) {
    std::uint32_t magic = 0;
    file >> magic;
    if (magic != kCheckpointMagic) {
        setError(error, "not a walb checkpoint (bad magic)");
        return false;
    }
    file >> h.version;
    if (h.version != kCheckpointVersion) {
        setError(error, "unsupported checkpoint version " + std::to_string(h.version) +
                            " (expected " + std::to_string(kCheckpointVersion) + ")");
        return false;
    }
    file >> h.worldSize >> h.cellsX >> h.cellsY >> h.cellsZ >> h.step >>
        h.numRankContributions;
    return true;
}

/// The fixed-size head of one block record.
struct RecordHeader {
    BlockRecordId id;
    std::uint64_t payloadBytes = 0;
    std::uint32_t flagCrc = 0;
    std::uint32_t payloadCrc = 0;
};

RecordHeader readRecordHeader(RecvBuffer& rb) {
    RecordHeader h;
    rb >> h.id.root >> h.id.level >> h.id.path >> h.payloadBytes >> h.flagCrc >> h.payloadCrc;
    return h;
}

/// CRC32 of a block's whole flag field (ghost layers included): the
/// geometry fingerprint of a record. Flags are a pure function of position,
/// so a receiver built with the same flag initializer derives the same value.
std::uint32_t flagFieldCrc(DistributedSimulation& sim, std::size_t block) {
    const field::FlagField& flags = sim.flagField(block);
    return crc32(flags.data(), flags.allocCells() * sizeof(field::flag_t));
}

/// Checks record `h`, whose payload starts at rb.cursor(), against local
/// block `local` without consuming or applying anything.
bool verifyRecord(DistributedSimulation& sim, std::size_t local, const RecordHeader& h,
                  const RecvBuffer& rb, std::string* error) {
    const std::uint32_t flagCrc = flagFieldCrc(sim, local);
    if (h.flagCrc != flagCrc) {
        setError(error, "checkpoint geometry mismatch on block " + describeBlockId(h.id) +
                            ": flag field CRC " + hexCrc(h.flagCrc) + " (record), " +
                            hexCrc(flagCrc) +
                            " (this simulation) — it was built with a different "
                            "flag initializer");
        return false;
    }
    const std::size_t expected = sim.blockStateBytes(local);
    if (h.payloadBytes != expected) {
        setError(error, "block record size mismatch on block " + describeBlockId(h.id) +
                            ": " + std::to_string(h.payloadBytes) + "/" +
                            std::to_string(expected) + " payload bytes (record/local)");
        return false;
    }
    if (rb.remaining() < h.payloadBytes)
        throw BufferError(std::size_t(h.payloadBytes), rb.remaining());
    const std::uint32_t crc = crc32(rb.cursor(), std::size_t(h.payloadBytes));
    if (crc != h.payloadCrc) {
        setError(error, "checkpoint CRC mismatch on block " + describeBlockId(h.id) +
                            ": expected " + hexCrc(h.payloadCrc) + " (stored), actual " +
                            hexCrc(crc) + " (computed) — payload corrupted");
        return false;
    }
    return true;
}

/// Walks the rank contributions of a checkpoint body (positioned after the
/// file header) and calls visit(header, rb) once per block record, with rb
/// at the record's payload; visit must consume exactly the payload.
template <typename Visit>
void forEachRecord(RecvBuffer& file, std::uint32_t numContributions, const Visit& visit) {
    for (std::uint32_t c = 0; c < numContributions; ++c) {
        std::uint64_t length = 0;
        file >> length;
        const std::size_t before = file.remaining();
        std::uint32_t srcRank = 0, numBlocks = 0;
        file >> srcRank >> numBlocks;
        (void)srcRank; // blocks are matched by ID, not by writing rank, so
                       // restarts tolerate a different assignment
        for (std::uint32_t b = 0; b < numBlocks; ++b) visit(readRecordHeader(file), file);
        const std::size_t consumed = before - file.remaining();
        if (consumed != length) throw BufferError(std::size_t(length), consumed);
    }
}

/// First pass of checkpointLoad: parses the header and checks every record
/// of a local block, writing nothing. Covers all local blocks or fails.
bool verifyCheckpoint(DistributedSimulation& sim, RecvBuffer& file,
                      CheckpointHeader& header, std::string* error) {
    const bf::BlockForest& forest = sim.forest();
    try {
        if (!parseHeader(file, header, error)) return false;
        if (header.cellsX != std::uint32_t(forest.cellsX()) ||
            header.cellsY != std::uint32_t(forest.cellsY()) ||
            header.cellsZ != std::uint32_t(forest.cellsZ())) {
            setError(error, "checkpoint geometry mismatch: file has " +
                                std::to_string(header.cellsX) + "x" +
                                std::to_string(header.cellsY) + "x" +
                                std::to_string(header.cellsZ) + " cells per block");
            return false;
        }
        bool ok = true;
        std::size_t covered = 0;
        forEachRecord(file, header.numRankContributions,
                      [&](const RecordHeader& h, RecvBuffer& rb) {
                          const std::int32_t local = findLocalBlock(forest, h.id);
                          if (ok && local >= 0) {
                              ok = verifyRecord(sim, std::size_t(local), h, rb, error);
                              ++covered;
                          }
                          rb.skip(std::size_t(h.payloadBytes));
                      });
        if (!ok) return false;
        if (covered != forest.numLocalBlocks()) {
            setError(error, "checkpoint covers only " + std::to_string(covered) + " of " +
                                std::to_string(forest.numLocalBlocks()) + " local blocks");
            return false;
        }
        return true;
    } catch (const BufferError& e) {
        setError(error, std::string("truncated/corrupt checkpoint: ") + e.what());
        return false;
    }
}

} // namespace

void appendBlockRecord(DistributedSimulation& sim, std::size_t block,
                       SendBuffer& buf) {
    serializeBlockId(buf, sim.forest().blocks()[block].id);
    buf << std::uint64_t(sim.blockStateBytes(block)) << flagFieldCrc(sim, block);
    const std::size_t crcAt = buf.size();
    buf << std::uint32_t(0); // payload CRC, back-filled once the payload is in
    const std::size_t payloadAt = buf.size();
    sim.packBlockState(block, buf);
    buf.patchCompact(crcAt, crc32(buf.data() + payloadAt, buf.size() - payloadAt), 4);
}

BlockRecordId skipBlockRecord(RecvBuffer& rb) {
    const RecordHeader h = readRecordHeader(rb);
    rb.skip(std::size_t(h.payloadBytes));
    return h.id;
}

int applyBlockRecord(DistributedSimulation& sim, RecvBuffer& rb,
                     std::string* error) {
    const RecordHeader h = readRecordHeader(rb);
    const std::int32_t local = findLocalBlock(sim.forest(), h.id);
    if (local < 0) {
        rb.skip(std::size_t(h.payloadBytes));
        return 0;
    }
    // Verify before touching the live fields — a corrupted or foreign
    // record must not clobber a running simulation.
    if (!verifyRecord(sim, std::size_t(local), h, rb, error)) return -1;
    sim.unpackBlockState(std::size_t(local), rb);
    return 1;
}

bool checkpointSave(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t step, std::size_t* bytesWritten, std::string* error) {
    vmpi::Comm& comm = sim.comm();
    const bf::BlockForest& forest = sim.forest();

    // Per-rank contribution: block assignment plus CRC-protected payloads.
    SendBuffer mine;
    mine << std::uint32_t(comm.rank());
    mine << std::uint32_t(forest.numLocalBlocks());
    for (std::size_t b = 0; b < forest.numLocalBlocks(); ++b)
        appendBlockRecord(sim, b, mine);

    // One-writer strategy: gather everything on rank 0, single write.
    const auto all =
        // walb-lint: allow(blocking): checkpoint collective — every rank reaches it unconditionally; the run comm's recv deadline applies
        comm.gatherv(std::span<const std::uint8_t>(mine.data(), mine.size()), 0);
    bool ok = true;
    std::uint64_t fileBytes = 0;
    if (comm.rank() == 0) {
        SendBuffer file;
        file << kCheckpointMagic << kCheckpointVersion << std::uint32_t(comm.size());
        file << std::uint32_t(forest.cellsX()) << std::uint32_t(forest.cellsY())
             << std::uint32_t(forest.cellsZ());
        file << step << std::uint32_t(all.size());
        for (const auto& contribution : all) {
            // Same wire format as SendBuffer's vector<u8> operator<< (u64
            // length + bytes) but as one bulk append instead of per-element.
            file << std::uint64_t(contribution.size());
            file.putBytes(contribution.data(), contribution.size());
        }
        fileBytes = file.size();
        ok = writeFile(path, file);
    }

    // Broadcast the outcome so every rank reports the same result.
    std::vector<std::uint8_t> status;
    if (comm.rank() == 0) {
        SendBuffer sb;
        sb << ok << fileBytes;
        status = sb.release();
    }
    // walb-lint: allow(blocking): checkpoint collective — every rank reaches it unconditionally; the run comm's recv deadline applies
    comm.broadcast(status, 0);
    RecvBuffer rb(std::move(status));
    bool fileOk = false;
    std::uint64_t totalBytes = 0;
    rb >> fileOk >> totalBytes;
    if (bytesWritten) *bytesWritten = std::size_t(totalBytes);
    if (!fileOk) setError(error, "failed to write checkpoint file '" + path + "'");
    return fileOk;
}

bool checkpointLoad(DistributedSimulation& sim, const std::string& path,
                    std::uint64_t* stepOut, std::string* error) {
    vmpi::Comm& comm = sim.comm();

    // Single read on rank 0, broadcast to the world (paper's one-reader
    // strategy). An unreadable file yields an empty broadcast on all ranks.
    std::vector<std::uint8_t> bytes;
    if (comm.rank() == 0) {
        if (!readFile(path, bytes)) bytes.clear();
    }
    // walb-lint: allow(blocking): checkpoint collective — every rank reaches it unconditionally; the run comm's recv deadline applies
    comm.broadcast(bytes, 0);

    // Pass 1 checks every local record; the ranks then agree, so either all
    // of them restore or none writes a single slot.
    std::string why = "cannot read checkpoint file '" + path + "'";
    CheckpointHeader header;
    RecvBuffer file(std::move(bytes));
    const bool ok = file.size() > 0 && verifyCheckpoint(sim, file, header, &why);
    const std::uint64_t failedRanks =
        // walb-lint: allow(blocking): checkpoint collective — every rank reaches it unconditionally; the run comm's recv deadline applies
        vmpi::allreduceSum(comm, std::uint64_t(ok ? 0 : 1));
    if (failedRanks > 0) {
        setError(error, ok ? "checkpoint rejected by " + std::to_string(failedRanks) +
                                 " other rank(s)"
                           : why);
        return false;
    }

    // Pass 2 restores. The step counter goes first: the AA tiers lay the
    // payload out by the parity of the step being resumed.
    sim.setCurrentStep(header.step);
    RecvBuffer body(file.release());
    parseHeader(body, header, nullptr); // verified in pass 1
    forEachRecord(body, header.numRankContributions,
                  [&](const RecordHeader& h, RecvBuffer& rb) {
                      const std::int32_t local = findLocalBlock(sim.forest(), h.id);
                      if (local >= 0) sim.unpackBlockState(std::size_t(local), rb);
                      else rb.skip(std::size_t(h.payloadBytes));
                  });
    if (stepOut) *stepOut = header.step;
    return true;
}

bool checkpointPeek(const std::string& path, CheckpointHeader& out, std::string* error) {
    std::vector<std::uint8_t> bytes;
    if (!readFile(path, bytes)) {
        setError(error, "cannot read checkpoint file '" + path + "'");
        return false;
    }
    try {
        RecvBuffer file(std::move(bytes));
        return parseHeader(file, out, error);
    } catch (const BufferError& e) {
        setError(error, std::string("truncated checkpoint header: ") + e.what());
        return false;
    }
}

// walb-lint: begin(deterministic)
std::uint64_t checkpointDigest(DistributedSimulation& sim) {
    std::uint64_t local = 0;
    SendBuffer payload;
    for (std::size_t b = 0; b < sim.forest().numLocalBlocks(); ++b) {
        payload.clear();
        sim.packBlockState(b, payload);
        local += crc32(payload.data(), payload.size());
    }
    // walb-lint: allow(blocking): digest reduction, reached by all ranks
    return vmpi::allreduceSum(sim.comm(), local);
}
// walb-lint: end(deterministic)

CheckpointOptions CheckpointOptions::fromArgs(int argc, char** argv) {
    auto valueOf = [&](const std::string& flag, int i) -> std::string {
        const std::string arg = argv[i];
        if (arg == flag && i + 1 < argc) return argv[i + 1];
        const std::string prefix = flag + "=";
        if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
        return "";
    };
    CheckpointOptions opt;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (!(v = valueOf("--checkpoint-every", i)).empty())
            opt.every = parseNumber<std::uint64_t>("--checkpoint-every", v);
        else if (!(v = valueOf("--checkpoint-path", i)).empty())
            opt.path = v;
        else if (!(v = valueOf("--restart-from", i)).empty())
            opt.restartFrom = v;
        else if (!(v = valueOf("--stop-after", i)).empty())
            opt.stopAfter = parseNumber<std::uint64_t>("--stop-after", v);
        else if (!(v = valueOf("--steps", i)).empty())
            opt.steps = parseNumber<std::uint64_t>("--steps", v);
    }
    return opt;
}

} // namespace walb::sim
