#include "sim/Checkpoint.h"

#include <cstdio>
#include <cstring>

#include "core/BinaryIO.h"
#include "core/Crc32.h"
#include "core/Logging.h"
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

struct RawBlockId {
    std::uint32_t root = 0;
    std::uint8_t level = 0;
    std::uint64_t path = 0;
};

RawBlockId deserializeBlockId(RecvBuffer& buf) {
    RawBlockId id;
    buf >> id.root >> id.level >> id.path;
    return id;
}

/// Index of the local block with this identity, or -1.
std::int32_t findLocalBlock(const bf::BlockForest& forest, const RawBlockId& id) {
    const auto& blocks = forest.blocks();
    for (std::size_t i = 0; i < blocks.size(); ++i)
        if (blocks[i].id.rootIndex() == id.root && blocks[i].id.level() == id.level &&
            blocks[i].id.path() == id.path)
            return std::int32_t(i);
    return -1;
}

/// Human-readable block identity for diagnostics: "root:level:path".
std::string describeBlockId(const RawBlockId& id) {
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

} // namespace

void appendBlockRecord(DistributedSimulation& sim, std::size_t block,
                       SendBuffer& buf) {
    const bf::BlockForest& forest = sim.forest();
    // Canonical view: the live src field for the two-grid tiers, the
    // parity-normalized scratch for the AA tiers. Either way the record is
    // one full-size allocation, so the wire format does not depend on the
    // kernel tier and a restart may use a different tier than the save.
    const lbm::PdfField& pdf = sim.canonicalPdfField(block);
    const field::FlagField& flags = sim.flagField(block);
    const std::size_t pdfBytes = pdf.allocCells() * sizeof(real_t);
    const std::size_t flagBytes = flags.allocCells() * sizeof(field::flag_t);
    std::uint32_t crc = crc32(pdf.data(), pdfBytes);
    crc = crc32(flags.data(), flagBytes, crc);
    serializeBlockId(buf, forest.blocks()[block].id);
    buf << std::uint64_t(pdfBytes) << std::uint64_t(flagBytes) << crc;
    buf.putBytes(pdf.data(), pdfBytes);
    buf.putBytes(flags.data(), flagBytes);
}

int applyBlockRecord(DistributedSimulation& sim, RecvBuffer& rb,
                     std::string* error) {
    const RawBlockId id = deserializeBlockId(rb);
    std::uint64_t pdfBytes = 0, flagBytes = 0;
    std::uint32_t storedCrc = 0;
    rb >> pdfBytes >> flagBytes >> storedCrc;
    const std::int32_t local = findLocalBlock(sim.forest(), id);
    if (local < 0) {
        rb.skip(std::size_t(pdfBytes) + std::size_t(flagBytes));
        return 0;
    }
    // AA tiers deserialize the canonical record into the staging field and
    // scatter it into parity slots below; two-grid tiers restore in place.
    lbm::PdfField& pdf = sim.usesAaPattern() ? sim.canonicalScratch()
                                             : sim.pdfField(std::size_t(local));
    field::FlagField& flags = sim.flagField(std::size_t(local));
    if (pdfBytes != pdf.allocCells() * sizeof(real_t) ||
        flagBytes != flags.allocCells() * sizeof(field::flag_t)) {
        setError(error, "block record size mismatch on block " + describeBlockId(id) +
                            ": pdf=" + std::to_string(pdfBytes) + "/" +
                            std::to_string(pdf.allocCells() * sizeof(real_t)) +
                            " flags=" + std::to_string(flagBytes) + "/" +
                            std::to_string(flags.allocCells() * sizeof(field::flag_t)) +
                            " bytes (record/local)");
        return -1;
    }
    // Verify the CRC against the raw record bytes *before* touching the
    // live fields — a corrupted payload must not clobber a running
    // simulation.
    if (rb.remaining() < pdfBytes + flagBytes)
        throw BufferError(std::size_t(pdfBytes + flagBytes), rb.remaining());
    std::uint32_t crc = crc32(rb.cursor(), std::size_t(pdfBytes));
    crc = crc32(rb.cursor() + pdfBytes, std::size_t(flagBytes), crc);
    if (crc != storedCrc) {
        setError(error, "checkpoint CRC mismatch on block " + describeBlockId(id) +
                            ": expected " + hexCrc(storedCrc) + " (stored), actual " +
                            hexCrc(crc) + " (computed) — payload corrupted");
        return -1;
    }
    rb.getBytes(pdf.data(), std::size_t(pdfBytes));
    rb.getBytes(flags.data(), std::size_t(flagBytes));
    // Flags first, then the canonical scatter: the scatter walks the
    // block's fluid cells, so it must see the restored flag field. The
    // caller has already restored the step counter, so the parity of the
    // scatter matches the checkpoint.
    if (sim.usesAaPattern()) sim.applyCanonicalPdf(std::size_t(local), pdf);
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
    const bf::BlockForest& forest = sim.forest();

    // Single read on rank 0, broadcast to the world (paper's one-reader
    // strategy). An unreadable file yields an empty broadcast on all ranks.
    std::vector<std::uint8_t> bytes;
    if (comm.rank() == 0) {
        if (!readFile(path, bytes)) bytes.clear();
    }
    // walb-lint: allow(blocking): checkpoint collective — every rank reaches it unconditionally; the run comm's recv deadline applies
    comm.broadcast(bytes, 0);
    if (bytes.empty()) {
        setError(error, "cannot read checkpoint file '" + path + "'");
        return false;
    }

    try {
        RecvBuffer file(std::move(bytes));
        CheckpointHeader header;
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

        // Restore the step counter *before* applying any block record: the
        // AA-tier scatter in applyBlockRecord lays PDFs out by the parity
        // of the step being resumed.
        sim.setCurrentStep(header.step);

        std::size_t restored = 0;
        for (std::uint32_t c = 0; c < header.numRankContributions; ++c) {
            std::vector<std::uint8_t> contribution;
            file >> contribution;
            RecvBuffer rb(std::move(contribution));
            std::uint32_t srcRank = 0, numBlocks = 0;
            rb >> srcRank >> numBlocks;
            (void)srcRank; // blocks are matched by ID, not by writing rank,
                           // so restarts tolerate a different assignment
            for (std::uint32_t b = 0; b < numBlocks; ++b) {
                const int applied = applyBlockRecord(sim, rb, error);
                if (applied < 0) return false;
                if (applied > 0) ++restored;
            }
        }
        if (restored != forest.numLocalBlocks()) {
            setError(error, "checkpoint covers only " + std::to_string(restored) + " of " +
                                std::to_string(forest.numLocalBlocks()) +
                                " local blocks");
            return false;
        }
        if (stepOut) *stepOut = header.step;
        return true;
    } catch (const BufferError& e) {
        setError(error, std::string("truncated/corrupt checkpoint: ") + e.what());
        return false;
    }
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
    for (std::size_t b = 0; b < sim.forest().numLocalBlocks(); ++b) {
        const lbm::PdfField& pdf = sim.canonicalPdfField(b);
        // Interior cells only: ghost slots are transient exchange scratch
        // (refilled from neighbor interiors where a sweep reads them; the
        // rest may keep stale values), so hashing them would make the
        // digest depend on exchange history rather than on the physical
        // state. Interior-only hashing is what lets a block
        // migration — which moves interiors and re-fills ghosts — be
        // digest-invariant. The AA tiers hash the parity-normalized
        // canonical view for the same reason: raw AA storage depends on the
        // parity and on which neighbor backs each edge slot, the canonical
        // view does not. fzyx layout: each interior x-row is contiguous.
        std::uint32_t crc = 0;
        for (cell_idx_t f = 0; f < cell_idx_t(pdf.fSize()); ++f)
            for (cell_idx_t z = 0; z < pdf.zSize(); ++z)
                for (cell_idx_t y = 0; y < pdf.ySize(); ++y)
                    crc = crc32(pdf.dataAt(0, y, z, f),
                                std::size_t(pdf.xSize()) * sizeof(real_t), crc);
        local += crc;
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
