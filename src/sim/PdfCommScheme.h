#pragma once
/// \file PdfCommScheme.h
/// Ghost-layer PDF exchange between the blocks of a forest: block-to-block
/// copies for same-rank neighbors (lbm/GhostCopyPlan.h) and packed
/// BufferSystem messages for remote ones, in the two-grid or the AA
/// parity-specific wire modes (lbm/Communication.h).

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "blockforest/BlockForest.h"
#include "field/FlagField.h"
#include "lbm/Communication.h"
#include "lbm/GhostCopyPlan.h"
#include "vmpi/BufferSystem.h"
#include "vmpi/Tags.h"

namespace walb::sim {

/// Exchanges ghost-layer PDFs between all blocks of a forest.
class PdfCommScheme {
public:
    using M = lbm::D3Q19;

    /// What the exchange ships. TwoGrid is the classic post-collision ghost
    /// fill; the AA modes are the parity-specific exchanges of the in-place
    /// tiers (see lbm/Communication.h): AaForward before an odd step (ghost
    /// fill, opposing slots), AaReverse before an even step (the sender's
    /// ghost pushes travel back to the interior cells that own them). The
    /// driver re-selects the mode before every exchange from its step
    /// parity.
    using ExchangeMode = lbm::GhostExchangeMode;

    /// Where the scheme finds each block's fluid cells: the flag field's
    /// block-data id and the fluid mask. With it, local copies move only
    /// the slots a receiving fluid cell reads (lbm/GhostCopyPlan.h);
    /// without it, the full direction-sliced slices.
    struct FluidFlags {
        bf::BlockForest::BlockDataID flagId;
        field::flag_t fluid;
    };

    PdfCommScheme(bf::BlockForest& forest, vmpi::Comm& comm,
                  bf::BlockForest::BlockDataID srcId,
                  std::optional<FluidFlags> fluidFlags = std::nullopt)
        : forest_(forest), comm_(comm), srcId_(srcId), fluidFlags_(fluidFlags),
          bufferSystem_(comm, vmpi::tags::kGhostExchange) {
        bufferSystem_.setReceiverInfo(std::vector<int>(forest.neighborProcesses().begin(),
                                                       forest.neighborProcesses().end()));
        // Map (sender block id, sender direction) -> local receiving block.
        for (std::size_t b = 0; b < forest_.blocks().size(); ++b)
            for (const auto& n : forest_.blocks()[b].neighbors)
                if (n.localIndex < 0)
                    remoteSources_[{n.id, inverseDirIndex(n.dir)}] = b;
    }

    void setExchangeMode(ExchangeMode mode) { mode_ = mode; }
    ExchangeMode exchangeMode() const { return mode_; }

    /// Direct ghost copies between same-rank neighbor blocks, run from the
    /// current mode's copy plan. Pure local memory traffic — no message
    /// leaves the rank — so the drivers account it separately from the
    /// exposed communication time. Must complete before any cell whose
    /// stencil reads a locally-backed ghost slice is swept (such cells are
    /// *core* in the overlap split, so this runs before the core sweep).
    void copyLocalGhosts() {
        copyPlan().execute([&](std::uint32_t b) -> lbm::PdfField& {
            return forest_.getData<lbm::PdfField>(b, srcId_);
        });
    }

    /// The current mode's local copy plan, built on first use — once per
    /// mode for the lifetime of this scheme (a migration or recovery
    /// rebuilds the scheme, and with it the plans).
    const lbm::GhostCopyPlan& copyPlan() {
        std::optional<lbm::GhostCopyPlan>& plan = plans_[std::size_t(mode_)];
        if (!plan) plan = buildCopyPlan(mode_);
        return *plan;
    }

    /// Bytes the local copies move per exchange in the current mode.
    std::size_t localCopyBytes() { return copyPlan().bytes(); }

    /// Packs one message per remote neighbor rank, ships them all and
    /// starts expecting the incoming ones — the network half of phase 1.
    void packAndPost() {
        bytesLastExchange_ = 0;
        const auto& blocks = forest_.blocks();
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            lbm::PdfField& src = forest_.getData<lbm::PdfField>(b, srcId_);
            for (const auto& n : blocks[b].neighbors) {
                if (n.localIndex >= 0) continue;
                SendBuffer& buf = bufferSystem_.sendBuffer(int(n.process));
                serializeBlockId(buf, blocks[b].id);
                buf << std::uint8_t(lbm::dirIndex26(n.dir));
                switch (mode_) {
                    case ExchangeMode::TwoGrid:
                        lbm::packPdfs<M>(src, n.dir, buf);
                        break;
                    case ExchangeMode::AaForward:
                        lbm::packPdfsAaForward<M>(src, n.dir, buf);
                        break;
                    case ExchangeMode::AaReverse:
                        lbm::packPdfsAaReverse<M>(src, n.dir, buf);
                        break;
                }
            }
        }
        bytesLastExchange_ = bufferSystem_.totalSendBytes();
        bufferSystem_.beginExchange();
    }

    /// Phase 1 of the split exchange: local ghost copies, then pack + ship
    /// one message per remote neighbor rank and start expecting the
    /// incoming ones. After this call the *core* cells (stencil never
    /// reaches a remote-backed ghost slice) are ready to sweep; shell cells
    /// must wait for finishExchange().
    void beginExchange() {
        copyLocalGhosts();
        packAndPost();
    }

    /// Non-blocking: unpacks whatever ghost messages have already arrived
    /// (each message writes only its own remote-backed ghost slices, which
    /// core cells never read — safe to call between core sweeps). Returns
    /// the number of messages drained.
    std::size_t progress() {
        return bufferSystem_.progress(
            [&](int rank, RecvBuffer& buf) { unpackMessage(rank, buf); });
    }

    /// Blocks until every outstanding ghost message has arrived and is
    /// unpacked (arrival order; BufferError and deadline misses surface as
    /// structured CommErrors, see BufferSystem::finishExchange).
    void finishExchange() {
        bufferSystem_.finishExchange(
            [&](int rank, RecvBuffer& buf) { unpackMessage(rank, buf); });
    }

    std::size_t pendingReceives() const { return bufferSystem_.pendingReceives(); }
    bool exchangeInProgress() const { return bufferSystem_.exchangeInProgress(); }
    void abortExchange() { bufferSystem_.abortExchange(); }

    /// Performs one full (synchronous) ghost-layer synchronization of the
    /// src fields. Message unpacks are disjoint per sender, so draining in
    /// arrival order is bit-identical to any fixed order.
    void communicate() {
        beginExchange();
        finishExchange();
    }

    std::size_t bytesLastExchange() const { return bytesLastExchange_; }

    /// Traffic accounting of the underlying neighbor exchange (bytes and
    /// message counts, per-exchange and cumulative) — the feed for the
    /// simulation's metrics counters.
    const vmpi::BufferSystem& bufferSystem() const { return bufferSystem_; }

    static std::uint8_t inverseDirIndex(const std::array<int, 3>& d) {
        return std::uint8_t(lbm::neighborhood26Inv[lbm::dirIndex26(d)]);
    }

private:
    /// One plan for `mode` over every same-rank neighbor pair. The loop
    /// order (sender block, then its neighbor list) is the order of the
    /// former slice-by-slice copies; the written slots of different links
    /// are disjoint, so the order does not affect the result.
    lbm::GhostCopyPlan buildCopyPlan(ExchangeMode mode) {
        lbm::GhostCopyPlan plan;
        const auto& blocks = forest_.blocks();
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            const lbm::PdfField& from = forest_.getData<lbm::PdfField>(b, srcId_);
            for (const auto& n : blocks[b].neighbors) {
                if (n.localIndex < 0) continue;
                const auto to = std::size_t(n.localIndex);
                const field::FlagField* toFlags =
                    fluidFlags_ ? &forest_.getData<field::FlagField>(to, fluidFlags_->flagId)
                                : nullptr;
                plan.addLink<M>(mode, std::uint32_t(b), from, std::uint32_t(to),
                                forest_.getData<lbm::PdfField>(to, srcId_), n.dir, toFlags,
                                fluidFlags_ ? fluidFlags_->fluid : field::flag_t(0));
            }
        }
        return plan;
    }

    /// Unpacks one rank's ghost message into the ghost slices of the
    /// receiving blocks. A truncated or corrupted payload (BufferError)
    /// surfaces as CommError{Corrupt} naming the peer, exactly like a
    /// deadline miss — no silent garbage (conversion done by the
    /// BufferSystem's guarded delivery; the structural checks here throw
    /// CommError directly).
    void unpackMessage(int rank, RecvBuffer& buf) {
        while (!buf.atEnd()) {
            const bf::BlockID senderId = deserializeBlockId(buf);
            std::uint8_t senderDir = 0;
            buf >> senderDir;
            if (senderDir >= 26)
                throw makeCorruptError(rank, "ghost message names invalid direction " +
                                                 std::to_string(int(senderDir)));
            const auto it = remoteSources_.find({senderId, senderDir});
            if (it == remoteSources_.end())
                throw makeCorruptError(rank, "ghost message for a block this rank "
                                             "does not border (corrupt block id?)");
            lbm::PdfField& dst = forest_.getData<lbm::PdfField>(it->second, srcId_);
            // Receiver-side direction: toward the sender block.
            const auto& sd = lbm::neighborhood26[senderDir];
            const std::array<int, 3> d = {-sd[0], -sd[1], -sd[2]};
            switch (mode_) {
                case ExchangeMode::TwoGrid:
                    lbm::unpackPdfs<M>(dst, d, buf);
                    break;
                case ExchangeMode::AaForward:
                    lbm::unpackPdfsAaForward<M>(dst, d, buf);
                    break;
                case ExchangeMode::AaReverse:
                    lbm::unpackPdfsAaReverse<M>(dst, d, buf);
                    break;
            }
        }
    }

    vmpi::CommError makeCorruptError(int rank, const std::string& detail) const {
        return vmpi::CommError(vmpi::CommError::Kind::Corrupt, rank,
                               vmpi::tags::kGhostExchange, 0.0,
                               detail);
    }

    static void serializeBlockId(SendBuffer& buf, const bf::BlockID& id) {
        buf << id.rootIndex() << std::uint8_t(id.level()) << id.path();
    }
    static bf::BlockID deserializeBlockId(RecvBuffer& buf) {
        std::uint32_t root = 0;
        std::uint8_t level = 0;
        std::uint64_t path = 0;
        buf >> root >> level >> path;
        bf::BlockID id = bf::BlockID::root(root);
        for (unsigned l = level; l > 0; --l) id = id.child((path >> (3 * (l - 1))) & 7u);
        return id;
    }

    bf::BlockForest& forest_;
    vmpi::Comm& comm_;
    bf::BlockForest::BlockDataID srcId_;
    std::optional<FluidFlags> fluidFlags_;
    ExchangeMode mode_ = ExchangeMode::TwoGrid;
    std::array<std::optional<lbm::GhostCopyPlan>, 3> plans_; ///< by ExchangeMode
    vmpi::BufferSystem bufferSystem_;
    std::map<std::pair<bf::BlockID, std::uint8_t>, std::size_t> remoteSources_;
    std::size_t bytesLastExchange_ = 0;
};

} // namespace walb::sim
