#pragma once
/// \file GhostCopyPlan.h
/// Flag-aware plan of the same-process ghost copies ("fast local
/// communication", paper §2.3).
///
/// The direction-sliced local exchange moves every population that crosses
/// a block interface, for every cell of the slice — also where the cells
/// that would read those slots are walls or outside the domain. In a sparse
/// geometry most of that traffic is dead. A GhostCopyPlan lists only the
/// (cell, population) slots the receiving block actually reads, as
/// contiguous x-runs, built once per block forest:
///
///   * TwoGrid   — ghost slot (g, a) is read by the pull sweep of receiver
///                 cell g + c_a; it is planned iff that cell is an interior
///                 fluid cell.
///   * AaForward — ghost slot (g, abar) carries P(g, a) for the odd step's
///                 pull of cell g + c_a: the same predicate, on slot abar.
///   * AaReverse — the per-population trimmed interior slices of the
///                 reverse exchange, restricted to receiver cells g that
///                 are fluid (the even step reads only its own cell's
///                 slots).
///
/// Without a flag field the plan holds the full direction-sliced slices,
/// row for row — exactly the copies of copyPdfsLocal and the
/// aaCopyPdfsLocal* helpers.
///
/// Spans store field *offsets*, not pointers: the two-grid tiers swap the
/// src/dst storage every step, and both buffers share one layout, so one
/// plan serves whichever buffer is src at execution time.

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/Debug.h"
#include "field/FlagField.h"
#include "lbm/Communication.h"

namespace walb::lbm {

/// What a ghost exchange ships. TwoGrid is the classic post-collision ghost
/// fill; the AA modes are the parity-specific exchanges of the in-place
/// tiers (see lbm/Communication.h).
enum class GhostExchangeMode : std::uint8_t { TwoGrid = 0, AaForward = 1, AaReverse = 2 };

class GhostCopyPlan {
public:
    /// One contiguous x-run: `len` values from offset `from` of the sending
    /// block's field to offset `to` of the receiving block's field.
    struct Span {
        std::uint32_t from, to, len;
    };
    /// All spans between one ordered pair of local blocks.
    struct Link {
        std::uint32_t fromBlock, toBlock;
        std::uint32_t spanBegin, spanEnd;
    };

    /// Appends the spans that block `fromBlock` (field `from`) contributes
    /// to block `toBlock` (field `to`) in `mode`; `d` is the direction from
    /// the sender to the receiver. `toFlags` (the receiver's flag field)
    /// and `fluid` select the read set; a null `toFlags` plans the full
    /// slices.
    template <LatticeModel M>
    void addLink(GhostExchangeMode mode, std::uint32_t fromBlock, const PdfField& from,
                 std::uint32_t toBlock, const PdfField& to, const std::array<int, 3>& d,
                 const field::FlagField* toFlags, field::flag_t fluid) {
        WALB_ASSERT(from.allocCells() <= std::numeric_limits<std::uint32_t>::max() &&
                        to.allocCells() <= std::numeric_limits<std::uint32_t>::max(),
                    "ghost copy plan offsets are 32-bit");
        const std::size_t first = spans_.size();
        const std::array<int, 3> back = {-d[0], -d[1], -d[2]};
        const CellInterval interior = to.interior();
        // Runs may only grow along x where x-neighbors are adjacent in memory.
        const bool contiguous = from.xStride() == 1 && to.xStride() == 1;
        for (uint_t a : commDirs<M>(d)) {
            CellInterval srcCi, dstCi;
            cell_idx_t slot = cell_idx_c(a);
            std::array<int, 3> reach = {0, 0, 0}; // reader = receiver cell + reach
            if (mode == GhostExchangeMode::AaReverse) {
                srcCi = aaReverseTrim<M>(recvInterval(from, d), d, a);
                dstCi = aaReverseTrim<M>(sendInterval(to, back), d, a);
            } else {
                srcCi = sendInterval(from, d);
                dstCi = recvInterval(to, back);
                if (mode == GhostExchangeMode::AaForward) slot = cell_idx_c(M::inv[a]);
                reach = {M::c[a][0], M::c[a][1], M::c[a][2]};
            }
            if (dstCi.min().x > dstCi.max().x || dstCi.min().y > dstCi.max().y ||
                dstCi.min().z > dstCi.max().z)
                continue;
            const Cell offset = srcCi.min() - dstCi.min();
            auto read = [&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                if (!toFlags) return true;
                const Cell r{x + reach[0], y + reach[1], z + reach[2]};
                return interior.contains(r) && (toFlags->get(r) & fluid) != 0;
            };
            for (cell_idx_t z = dstCi.min().z; z <= dstCi.max().z; ++z)
                for (cell_idx_t y = dstCi.min().y; y <= dstCi.max().y; ++y)
                    for (cell_idx_t x = dstCi.min().x; x <= dstCi.max().x;) {
                        if (!read(x, y, z)) {
                            ++x;
                            continue;
                        }
                        cell_idx_t end = x + 1;
                        if (contiguous)
                            while (end <= dstCi.max().x && read(end, y, z)) ++end;
                        bytes_ += std::size_t(end - x) * sizeof(real_t);
                        spans_.push_back(
                            {std::uint32_t(from.index(x + offset.x, y + offset.y,
                                                      z + offset.z, slot)),
                             std::uint32_t(to.index(x, y, z, slot)),
                             std::uint32_t(end - x)});
                        x = end;
                    }
        }
        if (spans_.size() > first)
            links_.push_back({fromBlock, toBlock, std::uint32_t(first),
                              std::uint32_t(spans_.size())});
    }

    /// Runs every span. `fieldOf(block)` returns the block's current src
    /// field (looked up per execution: the two-grid swap moves storage).
    template <typename FieldOf>
    void execute(FieldOf&& fieldOf) const {
        for (const Link& l : links_) {
            const real_t* from = fieldOf(l.fromBlock).data();
            real_t* to = fieldOf(l.toBlock).data();
            for (std::uint32_t i = l.spanBegin; i < l.spanEnd; ++i) {
                const Span& s = spans_[i];
                if (s.len == 1) to[s.to] = from[s.from];
                else std::memcpy(to + s.to, from + s.from, s.len * sizeof(real_t));
            }
        }
    }

    /// Bytes one execution copies.
    std::size_t bytes() const { return bytes_; }

    const std::vector<Link>& links() const { return links_; }
    const std::vector<Span>& spans() const { return spans_; }

private:
    std::vector<Link> links_;
    std::vector<Span> spans_;
    std::size_t bytes_ = 0;
};

} // namespace walb::lbm
