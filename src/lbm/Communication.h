#pragma once
/// \file Communication.h
/// Ghost-layer PDF exchange between neighboring blocks.
///
/// A block sends, for each of its (up to) 26 neighbors, the post-collision
/// PDFs of the interior cell slice adjacent to that neighbor; the receiver
/// stores them in its ghost layer, where the next stream-pull sweep picks
/// them up. Two packing modes:
///  * direction-sliced (default): only the PDFs that actually stream across
///    the interface are sent — 5 of 19 per face cell, 1 per edge cell, and
///    nothing at all for corner neighbors (D3Q19 has no corner links).
///  * full: all Q PDFs per cell — simpler, 2.7x the volume; kept as the
///    baseline for the communication-volume ablation benchmark.

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/Buffer.h"
#include "lbm/PdfField.h"

namespace walb::lbm {

/// The 26 neighbor offsets of a block (all nonzero vectors in {-1,0,1}^3).
inline constexpr std::array<std::array<int, 3>, 26> neighborhood26 = [] {
    std::array<std::array<int, 3>, 26> r{};
    std::size_t i = 0;
    for (int z = -1; z <= 1; ++z)
        for (int y = -1; y <= 1; ++y)
            for (int x = -1; x <= 1; ++x)
                if (x != 0 || y != 0 || z != 0) r[i++] = {x, y, z};
    return r;
}();

/// Index of the opposite neighbor direction.
inline constexpr std::array<std::size_t, 26> neighborhood26Inv = [] {
    std::array<std::size_t, 26> r{};
    for (std::size_t a = 0; a < 26; ++a)
        for (std::size_t b = 0; b < 26; ++b)
            if (neighborhood26[b][0] == -neighborhood26[a][0] &&
                neighborhood26[b][1] == -neighborhood26[a][1] &&
                neighborhood26[b][2] == -neighborhood26[a][2])
                r[a] = b;
    return r;
}();

/// O(1) index of direction d in neighborhood26. The table enumerates x
/// fastest, skipping the center, so the index is a base-3 digit expansion
/// with the center's slot (13) removed.
inline constexpr std::size_t dirIndex26(const std::array<int, 3>& d) {
    const int linear = (d[0] + 1) + 3 * (d[1] + 1) + 9 * (d[2] + 1);
    // linear == 13 is the center — not a neighbor direction; callers only
    // pass unit block offsets.
    return std::size_t(linear > 13 ? linear - 1 : linear);
}

/// Which cells of a fluid run at fixed (y, z) read a *marked* ghost region
/// under a stream-pull sweep of model M — the geometric core/shell
/// predicate of the communication-hiding schedule.
///
/// A pull update of cell (x, y, z) reads f_a from (x, y, z) - c_a. That
/// source lands in the ghost region toward block direction g exactly when,
/// on every axis, the cell sits at the matching boundary and c_a points
/// *into* the block (c_a[axis] == -g[axis]) — on g's zero axes the source
/// stays interior. Given the run's y/z boundary situation this classifies
/// every cell of the run with three bits:
///
///   * row — the region reached by the y/z components alone is marked:
///           every cell of the run reads it (any x);
///   * xLo / xHi — additionally, the run's x == 0 (resp. x == xSize-1)
///           endpoint cell reads a marked region through a velocity with
///           c_x == +1 (resp. -1).
///
/// So a run splits into at most three segments: the two endpoint cells and
/// the middle. `marked` is indexed by dirIndex26 (typically: ghost regions
/// backed by a remote neighbor).
struct RunGhostReach {
    bool row = false;
    bool xLo = false;
    bool xHi = false;
};

template <LatticeModel M>
RunGhostReach runGhostReach(bool yLo, bool yHi, bool zLo, bool zHi,
                            const std::array<bool, 26>& marked) {
    RunGhostReach r;
    for (uint_t a = 0; a < M::Q; ++a) {
        const int cx = M::c[a][0], cy = M::c[a][1], cz = M::c[a][2];
        const int gy = (cy == 1 && yLo) ? -1 : (cy == -1 && yHi) ? 1 : 0;
        const int gz = (cz == 1 && zLo) ? -1 : (cz == -1 && zHi) ? 1 : 0;
        if ((gy != 0 || gz != 0) && marked[dirIndex26({0, gy, gz})]) r.row = true;
        if (cx == 1 && marked[dirIndex26({-1, gy, gz})]) r.xLo = true;
        if (cx == -1 && marked[dirIndex26({1, gy, gz})]) r.xHi = true;
    }
    return r;
}

/// The populations of model M that stream across one block interface, as a
/// fixed-capacity list (no allocation; iterable with range-for).
template <LatticeModel M>
struct CommDirSet {
    std::array<std::uint8_t, M::Q> dirs{};
    std::uint8_t count = 0;
    constexpr const std::uint8_t* begin() const { return dirs.data(); }
    constexpr const std::uint8_t* end() const { return dirs.data() + count; }
    constexpr std::size_t size() const { return count; }
    constexpr bool empty() const { return count == 0; }
};

/// Per-direction population sets, indexed by dirIndex26: a population
/// crosses the interface with normal d iff every axis on which d is nonzero
/// matches its velocity component (the rest population never crosses).
template <LatticeModel M>
inline constexpr std::array<CommDirSet<M>, 26> commDirTable = [] {
    std::array<CommDirSet<M>, 26> table{};
    for (std::size_t i = 0; i < 26; ++i) {
        const auto& d = neighborhood26[i];
        for (uint_t a = 0; a < M::Q; ++a) {
            bool ok = !(M::c[a][0] == 0 && M::c[a][1] == 0 && M::c[a][2] == 0);
            for (std::size_t j = 0; j < 3; ++j)
                if (d[j] != 0 && M::c[a][j] != d[j]) ok = false;
            if (ok) table[i].dirs[table[i].count++] = std::uint8_t(a);
        }
    }
    return table;
}();

/// PDFs of model M that stream across an interface with normal direction d.
template <LatticeModel M>
constexpr const CommDirSet<M>& commDirs(const std::array<int, 3>& d) {
    return commDirTable<M>[dirIndex26(d)];
}

/// commDirs as a vector — for callers that want to own the list.
template <LatticeModel M>
std::vector<uint_t> commDirections(const std::array<int, 3>& d) {
    const auto& set = commDirs<M>(d);
    return std::vector<uint_t>(set.begin(), set.end());
}

/// Interior slice a block sends toward neighbor direction d.
template <typename T>
CellInterval sendInterval(const field::Field<T>& f, const std::array<int, 3>& d) {
    const cell_idx_t sx = f.xSize(), sy = f.ySize(), sz = f.zSize();
    auto range = [](int dir, cell_idx_t size, cell_idx_t& lo, cell_idx_t& hi) {
        lo = (dir == 1) ? size - 1 : 0;
        hi = (dir == -1) ? 0 : size - 1;
    };
    CellInterval ci;
    range(d[0], sx, ci.min().x, ci.max().x);
    range(d[1], sy, ci.min().y, ci.max().y);
    range(d[2], sz, ci.min().z, ci.max().z);
    return ci;
}

/// Ghost slice of this block facing the neighbor in direction d.
template <typename T>
CellInterval recvInterval(const field::Field<T>& f, const std::array<int, 3>& d) {
    const cell_idx_t sx = f.xSize(), sy = f.ySize(), sz = f.zSize();
    auto range = [](int dir, cell_idx_t size, cell_idx_t& lo, cell_idx_t& hi) {
        if (dir == 1) { lo = size; hi = size; }
        else if (dir == -1) { lo = -1; hi = -1; }
        else { lo = 0; hi = size - 1; }
    };
    CellInterval ci;
    range(d[0], sx, ci.min().x, ci.max().x);
    range(d[1], sy, ci.min().y, ci.max().y);
    range(d[2], sz, ci.min().z, ci.max().z);
    return ci;
}

/// All populations of model M — the full-set ablation's "direction set".
template <LatticeModel M>
inline constexpr CommDirSet<M> allDirs = [] {
    CommDirSet<M> all{};
    for (uint_t a = 0; a < M::Q; ++a) all.dirs[all.count++] = std::uint8_t(a);
    return all;
}();

/// Serializes the PDFs streaming toward neighbor direction d into buf.
///
/// Wire order: PDF direction outermost, then z, y, x — for a fixed PDF
/// index the x-row of an fzyx field is contiguous in memory, so each row is
/// one bulk byte copy instead of per-cell accessor calls. unpackPdfs must
/// mirror this order exactly.
template <LatticeModel M>
void packPdfs(const PdfField& f, const std::array<int, 3>& d, SendBuffer& buf,
              bool fullPdfSet = false) {
    const CellInterval ci = sendInterval(f, d);
    const CommDirSet<M>& dirs = fullPdfSet ? allDirs<M> : commDirs<M>(d);
    if (dirs.empty()) return;
    const std::size_t rowBytes =
        std::size_t(ci.max().x - ci.min().x + 1) * sizeof(real_t);
    if (f.xStride() == 1) {
        // One resize for the whole payload, then row-wise bulk copies.
        const std::size_t rows =
            std::size_t(ci.max().y - ci.min().y + 1) * std::size_t(ci.max().z - ci.min().z + 1);
        std::uint8_t* out = buf.grow(dirs.size() * rows * rowBytes);
        for (uint_t a : dirs)
            for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
                for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y) {
                    std::memcpy(out, f.dataAt(ci.min().x, y, z, cell_idx_c(a)), rowBytes);
                    out += rowBytes;
                }
        return;
    }
    for (uint_t a : dirs)
        for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
            for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y)
                for (cell_idx_t x = ci.min().x; x <= ci.max().x; ++x)
                    buf << f.get(x, y, z, cell_idx_c(a));
}

/// Deserializes PDFs received from the neighbor in direction d into the
/// ghost slice facing that neighbor. Must mirror packPdfs' PDF/cell order.
template <LatticeModel M>
void unpackPdfs(PdfField& f, const std::array<int, 3>& d, RecvBuffer& buf,
                bool fullPdfSet = false) {
    const CellInterval ci = recvInterval(f, d);
    // The sender packed toward direction -d from its perspective; the PDF
    // subset is determined by the *sender's* direction.
    const std::array<int, 3> senderDir = {-d[0], -d[1], -d[2]};
    const CommDirSet<M>& dirs = fullPdfSet ? allDirs<M> : commDirs<M>(senderDir);
    if (dirs.empty()) return;
    const std::size_t rowBytes =
        std::size_t(ci.max().x - ci.min().x + 1) * sizeof(real_t);
    if (f.xStride() == 1) {
        const std::size_t rows =
            std::size_t(ci.max().y - ci.min().y + 1) * std::size_t(ci.max().z - ci.min().z + 1);
        const std::size_t total = dirs.size() * rows * rowBytes;
        const std::uint8_t* in = buf.cursor();
        buf.skip(total); // bounds-checked; throws BufferError on short payload
        for (uint_t a : dirs)
            for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
                for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y) {
                    std::memcpy(f.dataAt(ci.min().x, y, z, cell_idx_c(a)), in, rowBytes);
                    in += rowBytes;
                }
        return;
    }
    for (uint_t a : dirs)
        for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
            for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y)
                for (cell_idx_t x = ci.min().x; x <= ci.max().x; ++x)
                    buf >> f.get(x, y, z, cell_idx_c(a));
}

/// Direct block-to-block copy for neighbors living on the same process
/// ("fast local communication", paper §2.3): the ghost slice of `to` facing
/// direction d is filled from the interior slice of `from` facing -d.
/// Contiguous x-rows are bulk-copied like in packPdfs.
template <LatticeModel M>
void copyPdfsLocal(const PdfField& from, PdfField& to, const std::array<int, 3>& d) {
    const std::array<int, 3> senderDir = {-d[0], -d[1], -d[2]};
    const CellInterval srcCi = sendInterval(from, senderDir);
    const CellInterval dstCi = recvInterval(to, d);
    const CommDirSet<M>& dirs = commDirs<M>(senderDir);
    if (dirs.empty()) return;

    WALB_DASSERT(srcCi.numCells() == dstCi.numCells());
    const Cell offset = srcCi.min() - dstCi.min();
    const bool contiguous = from.xStride() == 1 && to.xStride() == 1;
    const std::size_t rowBytes =
        std::size_t(dstCi.max().x - dstCi.min().x + 1) * sizeof(real_t);
    for (uint_t a : dirs)
        for (cell_idx_t z = dstCi.min().z; z <= dstCi.max().z; ++z)
            for (cell_idx_t y = dstCi.min().y; y <= dstCi.max().y; ++y) {
                if (contiguous) {
                    std::memcpy(to.dataAt(dstCi.min().x, y, z, cell_idx_c(a)),
                                from.dataAt(dstCi.min().x + offset.x, y + offset.y,
                                            z + offset.z, cell_idx_c(a)),
                                rowBytes);
                } else {
                    for (cell_idx_t x = dstCi.min().x; x <= dstCi.max().x; ++x)
                        to.get(x, y, z, cell_idx_c(a)) =
                            from.get(x + offset.x, y + offset.y, z + offset.z,
                                     cell_idx_c(a));
                }
            }
}

/// Generic whole-slot slice copy for any field type: the ghost slice of
/// `to` facing direction d is filled from the interior slice of `from`
/// facing -d. Used for wrapping flag fields periodically and for
/// full-PDF-set local exchange.
template <typename T>
void copySliceLocal(const field::Field<T>& from, field::Field<T>& to,
                    const std::array<int, 3>& d) {
    const std::array<int, 3> senderDir = {-d[0], -d[1], -d[2]};
    const CellInterval srcCi = sendInterval(from, senderDir);
    const CellInterval dstCi = recvInterval(to, d);
    WALB_DASSERT(srcCi.numCells() == dstCi.numCells());
    const Cell offset = srcCi.min() - dstCi.min();
    dstCi.forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        for (cell_idx_t ff = 0; ff < cell_idx_c(from.fSize()); ++ff)
            to.get(x, y, z, ff) = from.get(x + offset.x, y + offset.y, z + offset.z, ff);
    });
}

/// Applies full periodicity to a single block by wrapping every ghost slice
/// onto the opposite interior slice — the communication pattern of a
/// one-block periodic domain. Used by single-block physics tests.
template <LatticeModel M>
void applyPeriodicAll(PdfField& f) {
    for (const auto& d : neighborhood26) copyPdfsLocal<M>(f, f, d);
}

// ---- AA-pattern (in-place) exchange --------------------------------------
//
// The AA kernels (KernelAa.h) keep one grid whose slot layout alternates
// with step parity, so the ghost exchange needs two parity-specific modes.
// Both ship exactly the physical post-collision populations P that cross
// the block interface — the wire format stays layout-independent and, for
// the forward mode, byte-identical to the two-grid exchange.
//
//  * FORWARD (before an odd step; storage pdf(x, abar) = P(x, a)): same
//    intervals and population sets as the two-grid exchange, but both the
//    sender's reads and the receiver's ghost writes use the opposing slot.
//    The next odd sweep pulls f_a from (x - e_a, abar), so a ghost cell g
//    must carry P(g, a) at slot abar.
//  * REVERSE (before an even step; storage pdf(x, a) = P(x - e_a, a)): the
//    preceding odd step *pushed* boundary-crossing populations into the
//    sender's own ghost layer — the reverse exchange ships those ghost
//    slots back to the interior cells of the block that owns them. Natural
//    slots on both sides. Per population a the shipped slice is *trimmed*
//    on every zero axis of the exchange direction: the slot (g, a) is
//    valid only if its producer g - e_a is sender-interior, and the trim
//    makes each (cell, slot) arrive from exactly one neighbor — so the
//    unpack is deterministic under any message arrival order. Slots whose
//    producer is a wall cell carry garbage either way; the even-step
//    boundary prep overwrites them before any kernel read.

/// Trims `base` (a one-cell-thick slice toward direction d) to the cells
/// whose producing cell g - e_a stays inside the slice's span on every
/// zero axis of d. May produce an empty interval (min > max).
template <LatticeModel M>
CellInterval aaReverseTrim(CellInterval base, const std::array<int, 3>& d, uint_t a) {
    auto adjust = [](int dj, int cj, cell_idx_t& lo, cell_idx_t& hi) {
        if (dj != 0) return;
        if (cj == 1) ++lo;
        if (cj == -1) --hi;
    };
    adjust(d[0], M::c[a][0], base.min().x, base.max().x);
    adjust(d[1], M::c[a][1], base.min().y, base.max().y);
    adjust(d[2], M::c[a][2], base.min().z, base.max().z);
    return base;
}

namespace detail {

/// Row-wise copy of slice `ci`, slot `slot`, into the buffer.
inline void packSlice(const PdfField& f, const CellInterval& ci, cell_idx_t slot,
                      SendBuffer& buf) {
    if (ci.min().x > ci.max().x || ci.min().y > ci.max().y || ci.min().z > ci.max().z)
        return;
    const std::size_t rowBytes =
        std::size_t(ci.max().x - ci.min().x + 1) * sizeof(real_t);
    if (f.xStride() == 1) {
        const std::size_t rows =
            std::size_t(ci.max().y - ci.min().y + 1) * std::size_t(ci.max().z - ci.min().z + 1);
        std::uint8_t* out = buf.grow(rows * rowBytes);
        for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
            for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y) {
                std::memcpy(out, f.dataAt(ci.min().x, y, z, slot), rowBytes);
                out += rowBytes;
            }
        return;
    }
    for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
        for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y)
            for (cell_idx_t x = ci.min().x; x <= ci.max().x; ++x)
                buf << f.get(x, y, z, slot);
}

inline void unpackSlice(PdfField& f, const CellInterval& ci, cell_idx_t slot,
                        RecvBuffer& buf) {
    if (ci.min().x > ci.max().x || ci.min().y > ci.max().y || ci.min().z > ci.max().z)
        return;
    const std::size_t rowBytes =
        std::size_t(ci.max().x - ci.min().x + 1) * sizeof(real_t);
    if (f.xStride() == 1) {
        const std::size_t rows =
            std::size_t(ci.max().y - ci.min().y + 1) * std::size_t(ci.max().z - ci.min().z + 1);
        const std::size_t total = rows * rowBytes;
        const std::uint8_t* in = buf.cursor();
        buf.skip(total); // bounds-checked; throws BufferError on short payload
        for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
            for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y) {
                std::memcpy(f.dataAt(ci.min().x, y, z, slot), in, rowBytes);
                in += rowBytes;
            }
        return;
    }
    for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
        for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y)
            for (cell_idx_t x = ci.min().x; x <= ci.max().x; ++x)
                buf >> f.get(x, y, z, slot);
}

/// Slot-to-slot slice copy with per-slice offset (from-frame = to-frame +
/// offset), bulk row copies when both fields are fzyx.
inline void copySlice(const PdfField& from, cell_idx_t fromSlot, const CellInterval& srcCi,
                      PdfField& to, cell_idx_t toSlot, const CellInterval& dstCi) {
    if (dstCi.min().x > dstCi.max().x || dstCi.min().y > dstCi.max().y ||
        dstCi.min().z > dstCi.max().z)
        return;
    WALB_DASSERT(srcCi.numCells() == dstCi.numCells());
    const Cell offset = srcCi.min() - dstCi.min();
    const bool contiguous = from.xStride() == 1 && to.xStride() == 1;
    const std::size_t rowBytes =
        std::size_t(dstCi.max().x - dstCi.min().x + 1) * sizeof(real_t);
    for (cell_idx_t z = dstCi.min().z; z <= dstCi.max().z; ++z)
        for (cell_idx_t y = dstCi.min().y; y <= dstCi.max().y; ++y) {
            if (contiguous) {
                std::memcpy(to.dataAt(dstCi.min().x, y, z, toSlot),
                            from.dataAt(dstCi.min().x + offset.x, y + offset.y,
                                        z + offset.z, fromSlot),
                            rowBytes);
            } else {
                for (cell_idx_t x = dstCi.min().x; x <= dstCi.max().x; ++x)
                    to.get(x, y, z, toSlot) =
                        from.get(x + offset.x, y + offset.y, z + offset.z, fromSlot);
            }
        }
}

} // namespace detail

/// AA forward pack: interior slice toward d, population set of d, sender
/// reads slot abar (where the even step parked P(cell, a)). Wire bytes are
/// identical to packPdfs of a two-grid field holding the same P values.
template <LatticeModel M>
void packPdfsAaForward(const PdfField& f, const std::array<int, 3>& d, SendBuffer& buf) {
    const CellInterval ci = sendInterval(f, d);
    for (uint_t a : commDirs<M>(d))
        detail::packSlice(f, ci, cell_idx_c(M::inv[a]), buf);
}

/// AA forward unpack: ghost slice facing d, writes slot abar.
template <LatticeModel M>
void unpackPdfsAaForward(PdfField& f, const std::array<int, 3>& d, RecvBuffer& buf) {
    const CellInterval ci = recvInterval(f, d);
    const std::array<int, 3> senderDir = {-d[0], -d[1], -d[2]};
    for (uint_t a : commDirs<M>(senderDir))
        detail::unpackSlice(f, ci, cell_idx_c(M::inv[a]), buf);
}

/// AA reverse pack: the sender's *ghost* slice toward the receiver (d =
/// direction from sender to receiver), natural slots, per-population trim.
template <LatticeModel M>
void packPdfsAaReverse(const PdfField& f, const std::array<int, 3>& d, SendBuffer& buf) {
    const CellInterval base = recvInterval(f, d);
    for (uint_t a : commDirs<M>(d))
        detail::packSlice(f, aaReverseTrim<M>(base, d, a), cell_idx_c(a), buf);
}

/// AA reverse unpack: writes the receiver's *interior* slice facing the
/// sender (d = direction from receiver toward sender), natural slots, the
/// same per-population trim as the matching pack.
template <LatticeModel M>
void unpackPdfsAaReverse(PdfField& f, const std::array<int, 3>& d, RecvBuffer& buf) {
    const CellInterval base = sendInterval(f, d);
    const std::array<int, 3> senderDir = {-d[0], -d[1], -d[2]};
    for (uint_t a : commDirs<M>(senderDir))
        detail::unpackSlice(f, aaReverseTrim<M>(base, d, a), cell_idx_c(a), buf);
}

/// AA forward local copy — copyPdfsLocal with the opposing slot on both
/// sides: the ghost slice of `to` facing d is filled from the interior
/// slice of `from` facing -d.
template <LatticeModel M>
void aaCopyPdfsLocalForward(const PdfField& from, PdfField& to, const std::array<int, 3>& d) {
    const std::array<int, 3> senderDir = {-d[0], -d[1], -d[2]};
    const CellInterval srcCi = sendInterval(from, senderDir);
    const CellInterval dstCi = recvInterval(to, d);
    for (uint_t a : commDirs<M>(senderDir))
        detail::copySlice(from, cell_idx_c(M::inv[a]), srcCi, to, cell_idx_c(M::inv[a]),
                          dstCi);
}

/// AA reverse local copy: d is the direction from `from` toward `to`; the
/// trimmed ghost slice of `from` facing d lands on the trimmed interior
/// slice of `to` facing -d, natural slots.
template <LatticeModel M>
void aaCopyPdfsLocalReverse(const PdfField& from, PdfField& to, const std::array<int, 3>& d) {
    const CellInterval srcBase = recvInterval(from, d);
    const std::array<int, 3> back = {-d[0], -d[1], -d[2]};
    const CellInterval dstBase = sendInterval(to, back);
    for (uint_t a : commDirs<M>(d))
        detail::copySlice(from, cell_idx_c(a), aaReverseTrim<M>(srcBase, d, a), to,
                          cell_idx_c(a), aaReverseTrim<M>(dstBase, d, a));
}

/// Single-block periodic wrap under AA parity — the AA counterparts of
/// applyPeriodicAll, one per exchange mode.
template <LatticeModel M>
void applyPeriodicAllAaForward(PdfField& f) {
    for (const auto& d : neighborhood26) aaCopyPdfsLocalForward<M>(f, f, d);
}
template <LatticeModel M>
void applyPeriodicAllAaReverse(PdfField& f) {
    for (const auto& d : neighborhood26) aaCopyPdfsLocalReverse<M>(f, f, d);
}

/// Bytes a block sends toward direction d (for communication-graph edge
/// weights and the network model).
template <LatticeModel M>
std::size_t packedBytes(const PdfField& f, const std::array<int, 3>& d,
                        bool fullPdfSet = false) {
    const CellInterval ci = sendInterval(f, d);
    const std::size_t nd = fullPdfSet ? M::Q : commDirs<M>(d).size();
    return ci.numCells() * nd * sizeof(real_t);
}

} // namespace walb::lbm
