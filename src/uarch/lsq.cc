#include "uarch/lsq.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.h"

namespace mtperf::uarch {

namespace {

constexpr std::uint64_t kEmptySeq = ~std::uint64_t{0};

} // namespace

LoadStoreQueue::LoadStoreQueue(const LsqConfig &config) : config_(config)
{
    if (config_.storeBufferEntries == 0)
        mtperf_fatal("LSQ: store buffer must have at least one entry");
    const std::size_t entries = config_.storeBufferEntries;
    begins_.assign(entries, 0);
    ends_.assign(entries, 0);
    seqs_.assign(entries, kEmptySeq);
    staUntil_.assign(entries, 0);
    interacting_.assign((entries + 63) / 64, 0);
}

void
LoadStoreQueue::recordStore(Addr addr, std::uint8_t size, bool addr_slow,
                            std::uint64_t seq)
{
    begins_[head_] = addr;
    ends_[head_] = addr + size;
    seqs_[head_] = seq;
    const std::uint64_t until = seq + config_.staWindowOps;
    staUntil_[head_] =
        addr_slow ? (until < seq ? std::numeric_limits<std::uint64_t>::max()
                                 : until)
                  : 0;
    if (++head_ == seqs_.size())
        head_ = 0;
}

std::size_t
LoadStoreQueue::youngestBelow(std::size_t limit) const
{
    std::size_t word = limit / 64;
    const unsigned bit = limit % 64;
    if (bit != 0) {
        const std::uint64_t below =
            interacting_[word] & ((std::uint64_t{1} << bit) - 1);
        if (below != 0)
            return word * 64 + 63 - std::countl_zero(below);
    }
    while (word-- > 0) {
        if (interacting_[word] != 0)
            return word * 64 + 63 - std::countl_zero(interacting_[word]);
    }
    return kNoSlot;
}

LoadBlockResult
LoadStoreQueue::checkLoad(Addr addr, std::uint8_t size, std::uint64_t seq)
{
    const Addr load_begin = addr;
    const Addr load_end = addr + size;

    // Mark, 64 slots to a word, every store that interacts with the
    // load: one older than it that either has an unresolved address
    // (slow and within the STA window) or overlaps the load's bytes.
    // Bitwise & and | only — a short-circuit test per entry is a
    // branch that mispredicts on about half of them.
    const std::size_t entries = seqs_.size();
    for (std::size_t word = 0; word < interacting_.size(); ++word) {
        // Bit i of the word is slot 64 * word + i; filled from the top
        // slot down so each step is a shift by one, not by i.
        std::size_t s = std::min(entries, 64 * word + 64);
        std::uint64_t bits = 0;
        while (s-- > 64 * word) {
            const bool older = seqs_[s] < seq;
            const bool unresolved = seq <= staUntil_[s];
            const bool overlaps =
                (load_end > begins_[s]) & (ends_[s] > load_begin);
            bits = 2 * bits + (older & (unresolved | overlaps));
        }
        interacting_[word] = bits;
    }

    // The youngest interacting store determines the outcome, matching
    // how the hardware resolves the youngest-older-store dependence.
    // In ring order the youngest slot is head_ - 1, down to 0, then
    // wrapping from the top down to head_.
    std::size_t slot = youngestBelow(head_);
    if (slot == kNoSlot)
        slot = youngestBelow(entries);
    LoadBlockResult result;
    if (slot == kNoSlot)
        return result;

    const std::uint64_t age = seq - seqs_[slot];
    if (seq <= staUntil_[slot]) {
        // An unresolved store address blocks every younger load: the
        // load cannot prove independence until the address computes.
        result.sta = true;
        result.penalty += config_.staBlockCycles;
        ++staBlocks_;
    } else if (begins_[slot] > load_begin || ends_[slot] < load_end) {
        // Partial overlap can never forward; the load waits for the
        // store to drain to the cache.
        result.overlap = true;
        result.penalty += config_.overlapBlockCycles;
        ++overlapBlocks_;
    } else if (age <= config_.stdWindowOps) {
        // Full cover but the store data is not produced yet.
        result.std = true;
        result.penalty += config_.stdBlockCycles;
        ++stdBlocks_;
    }
    // Full cover with ready data forwards for free.
    return result;
}

void
LoadStoreQueue::reset()
{
    std::fill(begins_.begin(), begins_.end(), 0);
    std::fill(ends_.begin(), ends_.end(), 0);
    std::fill(seqs_.begin(), seqs_.end(), kEmptySeq);
    std::fill(staUntil_.begin(), staUntil_.end(), 0);
    head_ = 0;
    staBlocks_ = 0;
    stdBlocks_ = 0;
    overlapBlocks_ = 0;
}

} // namespace mtperf::uarch
