#include "uarch/core.h"

#include <algorithm>

#include "common/logging.h"

// execute() fuses the two halves: they and their load/store helpers
// are forced inline, so the solo path keeps the front record and the
// op's penalties in registers.
#define MTPERF_FUSED inline __attribute__((always_inline))

namespace mtperf::uarch {

CpiStack
CpiStack::delta(const CpiStack &earlier) const
{
    CpiStack d;
    d.base = base - earlier.base;
    d.frontend = frontend - earlier.frontend;
    d.resteer = resteer - earlier.resteer;
    d.memL2 = memL2 - earlier.memL2;
    d.memL1d = memL1d - earlier.memL1d;
    d.dtlb = dtlb - earlier.dtlb;
    d.storeForward = storeForward - earlier.storeForward;
    d.memOther = memOther - earlier.memOther;
    d.longLatency = longLatency - earlier.longLatency;
    d.window = window - earlier.window;
    return d;
}

Core::Core(const CoreConfig &config, L2Port *shared_l2,
           std::uint32_t core_id)
    : config_(config),
      sharedL2_(shared_l2),
      coreId_(core_id),
      l1i_(config.l1i),
      l1d_(config.l1d),
      dtlb_(config.dtlbL0, config.dtlbMain),
      itlb_(config.itlb),
      bp_(config.branchPredictor),
      decoder_(config.decoder),
      lsq_(config.lsq)
{
    if (config_.width == 0)
        mtperf_fatal("core width must be at least 1");
    if (config_.robSize == 0)
        mtperf_fatal("ROB must have at least one entry");
    if (sharedL2_ == nullptr)
        l2_.emplace(config_.l2);
    robCommit_.assign(config_.robSize, 0);
    if (config_.modelPortContention) {
        if (config_.aluPorts == 0 || config_.loadPorts == 0 ||
            config_.storePorts == 0 || config_.fpAddPorts == 0 ||
            config_.fpMulPorts == 0) {
            mtperf_fatal("port contention model needs at least one "
                         "port per class");
        }
        // Flat layout: [alu | load | store | fpAdd | fpMul].
        std::uint32_t offset = 0;
        auto group = [&offset](std::uint32_t count, Cycle occupancy) {
            const PortGroup g{offset, count, occupancy};
            offset += count;
            return g;
        };
        const PortGroup alu = group(config_.aluPorts, 1);
        const PortGroup load = group(config_.loadPorts, 1);
        const PortGroup store = group(config_.storePorts, 1);
        const PortGroup fp_add = group(config_.fpAddPorts, 1);
        const PortGroup fp_mul = group(config_.fpMulPorts, 1);
        // The divider shares the FP multiply port and is unpipelined.
        PortGroup fp_div = fp_mul;
        fp_div.occupancy = config_.fpDivLatency;

        portGroups_[static_cast<std::size_t>(OpClass::IntAlu)] = alu;
        portGroups_[static_cast<std::size_t>(OpClass::IntMul)] = alu;
        portGroups_[static_cast<std::size_t>(OpClass::Branch)] = alu;
        portGroups_[static_cast<std::size_t>(OpClass::Load)] = load;
        portGroups_[static_cast<std::size_t>(OpClass::Store)] = store;
        portGroups_[static_cast<std::size_t>(OpClass::FpAdd)] = fp_add;
        portGroups_[static_cast<std::size_t>(OpClass::FpMul)] = fp_mul;
        portGroups_[static_cast<std::size_t>(OpClass::FpDiv)] = fp_div;
        portFree_.assign(offset, 0);
    }
}

Cycle
Core::acquirePort(OpClass cls, Cycle dispatch, Cycle ready)
{
    if (!config_.modelPortContention)
        return ready;

    const PortGroup &group = portGroups_[static_cast<std::size_t>(cls)];
    Cycle *ports = portFree_.data() + group.offset;

    // Pick the earliest-free port (ties to the lowest index). The slot
    // is reserved from dispatch onward (an out-of-order scheduler
    // gives ready ops priority, so a data-stalled op must not push the
    // port into the future for the independent ops behind it); the op
    // then issues when both its slot and its inputs are ready.
    std::size_t best = 0;
    for (std::size_t i = 1; i < group.count; ++i) {
        if (ports[i] < ports[best])
            best = i;
    }
    const Cycle slot = std::max(dispatch, ports[best]);
    ports[best] = slot + group.occupancy;
    return std::max(ready, slot);
}

L2AccessResult
Core::l2Access(Addr addr, L2AccessKind kind, Cycle cycle)
{
    if (sharedL2_ != nullptr)
        return sharedL2_->access(coreId_, addr, kind, cycle);
    return {l2_->access(addr), 0};
}

MTPERF_FUSED FrontRecord
Core::frontStep(const MicroOp &op)
{
    using E = FrontRecord;
    unsigned events = 0;

    // The fetch unit touches the I-cache once per line, and the ITLB
    // once per page; redirects (taken branches, mispredict recoveries)
    // show up as line/page changes in the PC stream itself.
    const Addr line = op.pc / kLineBytes;
    if (line != lastFetchLine_) {
        lastFetchLine_ = line;
        const Addr page = op.pc / kPageBytes;
        if (page != lastFetchPage_) {
            lastFetchPage_ = page;
            events |= unsigned{!itlb_.access(op.pc)} * E::kItlbMiss;
        }
        events |= unsigned{!l1i_.access(op.pc)} * E::kL1iMiss;
    }
    events |= unsigned{decoder_.decode(op) > 0} * E::kLcp;

    if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
        const bool split = (op.addr / kLineBytes) !=
                           ((op.addr + op.size - 1) / kLineBytes);
        events |= unsigned{op.addr % op.size != 0} * E::kMisaligned |
                  unsigned{split} * E::kSplit;
        if (op.cls == OpClass::Load) {
            const DtlbLoadResult tr = dtlb_.translateLoad(op.addr);
            events |= unsigned{!tr.l0Hit} * E::kDtlbL0Miss |
                      unsigned{!tr.l0Hit && !tr.mainHit} * E::kDtlbWalk;
            const LoadBlockResult block =
                lsq_.checkLoad(op.addr, op.size, frontSeq_);
            events |= unsigned{block.sta} * E::kBlockSta |
                      unsigned{block.std} * E::kBlockStd |
                      unsigned{block.overlap} * E::kBlockOverlap;
            events |= unsigned{!l1d_.access(op.addr)} * E::kL1dMiss;
            if (split) {
                events |= unsigned{!l1d_.access(op.addr + op.size - 1)} *
                          E::kL1dMissSecond;
            }
        } else {
            events |= unsigned{!dtlb_.translateStore(op.addr)} *
                          E::kDtlbWalk |
                      unsigned{!l1d_.access(op.addr)} * E::kL1dMiss;
            lsq_.recordStore(op.addr, op.size, op.storeAddrSlow,
                             frontSeq_);
        }
    } else if (op.cls == OpClass::Branch &&
               !bp_.predictAndUpdate(op.pc, op.taken)) {
        events |= E::kMispredict;
        // The next correct-path fetch re-touches I-cache and ITLB.
        lastFetchLine_ = ~0ULL;
    }
    ++frontSeq_;
    return {op.pc, op.addr, op.depDist,
            static_cast<std::uint16_t>(events), op.cls, op.size};
}

MTPERF_FUSED Cycle
Core::timeLoad(const FrontRecord &rec, Cycle issue, OpPenalties &pen)
{
    const unsigned ev = rec.events;
    Cycle extra = 0;

    if (ev & FrontRecord::kDtlbL0Miss) {
        ++counters_.dtlbL0LdMiss;
        if (!(ev & FrontRecord::kDtlbWalk)) {
            extra += config_.dtlbL0MissLatency;
            pen.dtlb += config_.dtlbL0MissLatency;
        } else {
            ++counters_.dtlbLdMiss;
            ++counters_.dtlbLdRetiredMiss;
            ++counters_.dtlbAnyMiss;
            extra += config_.pageWalkLatency;
            pen.dtlb += config_.pageWalkLatency;
        }
    }

    // The store buffer reports at most one interaction per load.
    Cycle block = 0;
    if (ev & FrontRecord::kBlockSta) {
        ++counters_.ldBlockSta;
        block = config_.lsq.staBlockCycles;
    } else if (ev & FrontRecord::kBlockStd) {
        ++counters_.ldBlockStd;
        block = config_.lsq.stdBlockCycles;
    } else if (ev & FrontRecord::kBlockOverlap) {
        ++counters_.ldBlockOverlapStore;
        block = config_.lsq.overlapBlockCycles;
    }
    extra += block;
    pen.storeForward += block;

    if (ev & FrontRecord::kMisaligned) {
        ++counters_.misalignedMemRef;
        extra += config_.misalignPenalty;
        pen.memOther += config_.misalignPenalty;
    }

    const bool split = (ev & FrontRecord::kSplit) != 0;
    if (split) {
        ++counters_.l1dSplitLoads;
        extra += config_.splitPenalty;
        pen.memOther += config_.splitPenalty;
    }

    auto line_latency = [this, issue, &pen](Addr addr, bool l1d_miss,
                                            bool count_load_miss) {
        if (!l1d_miss)
            return config_.l1dHitLatency;
        if (count_load_miss)
            ++counters_.l1dLineMiss;
        const L2AccessResult l2r =
            l2Access(addr, L2AccessKind::Load, issue);
        if (l2r.hit) {
            pen.memL1d += config_.l2HitLatency - config_.l1dHitLatency +
                          l2r.queueDelay;
            return config_.l2HitLatency + l2r.queueDelay;
        }
        if (count_load_miss)
            ++counters_.l2LineMiss;
        pen.memL2 += config_.memLatency - config_.l1dHitLatency +
                     l2r.queueDelay;
        return config_.memLatency + l2r.queueDelay;
    };

    Cycle latency =
        line_latency(rec.addr, (ev & FrontRecord::kL1dMiss) != 0, true);
    if (split) {
        // The second half accesses the next line; the load completes
        // when the slower half returns.
        latency = std::max(
            latency,
            line_latency(rec.addr + rec.size - 1,
                         (ev & FrontRecord::kL1dMissSecond) != 0, false));
    }
    return issue + latency + extra;
}

MTPERF_FUSED Cycle
Core::timeStore(const FrontRecord &rec, Cycle issue, OpPenalties &pen)
{
    const unsigned ev = rec.events;
    Cycle extra = 0;

    if (ev & FrontRecord::kDtlbWalk) {
        ++counters_.dtlbAnyMiss;
        extra += config_.pageWalkLatency;
        pen.dtlb += config_.pageWalkLatency;
    }

    if (ev & FrontRecord::kMisaligned) {
        ++counters_.misalignedMemRef;
        extra += config_.misalignPenalty;
        pen.memOther += config_.misalignPenalty;
    }
    if (ev & FrontRecord::kSplit) {
        ++counters_.l1dSplitStores;
        extra += config_.splitPenalty;
        pen.memOther += config_.splitPenalty;
    }

    // Stores retire into the store buffer: the write itself drains in
    // the background, so cache state updates but store misses do not
    // add commit latency (and the PMU's load-miss events stay load
    // only). Write-allocate keeps the tags warm for later loads.
    if (ev & FrontRecord::kL1dMiss)
        l2Access(rec.addr, L2AccessKind::Store, issue);
    return issue + 1 + extra;
}

MTPERF_FUSED void
Core::timeStep(const FrontRecord &rec)
{
    const unsigned ev = rec.events;
    OpPenalties pen;
    // A mispredict's re-steer delays the *following* fetch; charge it
    // to the first correct-path instruction, whose commit gap shows it.
    pen.resteer = pendingResteer_;
    pendingResteer_ = 0;

    // --- Front end: the bubbles front() found ---------------------
    Cycle fetch_ready = fetchReadyCycle_;
    if (ev & FrontRecord::kItlbMiss) {
        ++counters_.itlbMiss;
        fetch_ready += config_.pageWalkLatency;
        pen.frontend += config_.pageWalkLatency;
    }
    if (ev & FrontRecord::kL1iMiss) {
        ++counters_.l1iMiss;
        // Code refills from the unified L2; the PMU's L2M metric
        // (MEM_LOAD_RETIRED.L2_LINE_MISS) counts loads only, so a
        // code L2 miss costs time without bumping that counter.
        const L2AccessResult l2r =
            l2Access(rec.pc, L2AccessKind::Code, fetch_ready);
        const Cycle refill = (l2r.hit ? config_.l1iMissToL2Latency
                                      : config_.memLatency) +
                             l2r.queueDelay;
        fetch_ready += refill;
        pen.frontend += refill;
    }
    if (ev & FrontRecord::kLcp) {
        ++counters_.lcpStalls;
        fetch_ready += config_.decoder.lcpStallCycles;
        pen.frontend += config_.decoder.lcpStallCycles;
    }
    fetchReadyCycle_ = fetch_ready;

    // --- Dispatch: width per cycle, bounded by the reorder window --
    // robHead_ is seq_ % robSize maintained incrementally: the slot
    // still holds the commit cycle of op seq_ - robSize (the entry
    // this op waits on) and is overwritten with this op's commit below.
    Cycle dispatch = std::max(fetch_ready, lastDispatchCycle_);
    dispatch = std::max(dispatch, robCommit_[robHead_]);
    if (dispatch == lastDispatchCycle_ &&
        dispatchedThisCycle_ >= config_.width) {
        dispatch += 1;
    }
    if (dispatch > lastDispatchCycle_) {
        lastDispatchCycle_ = dispatch;
        dispatchedThisCycle_ = 1;
    } else {
        ++dispatchedThisCycle_;
    }

    // --- Issue: wait for the producer and an issue port ------------
    Cycle issue = dispatch;
    if (rec.depDist > 0 && rec.depDist <= seq_ &&
        static_cast<std::size_t>(rec.depDist) < kResultRing) {
        issue = std::max(
            issue, resultReady_[(seq_ - rec.depDist) & (kResultRing - 1)]);
    }
    issue = acquirePort(rec.cls, dispatch, issue);

    // --- Execute ---------------------------------------------------
    Cycle complete = issue;
    bool mispredicted = false;
    switch (rec.cls) {
      case OpClass::IntAlu:
        complete = issue + config_.intAluLatency;
        break;
      case OpClass::IntMul:
        complete = issue + config_.intMulLatency;
        break;
      case OpClass::FpAdd:
        complete = issue + config_.fpAddLatency;
        break;
      case OpClass::FpMul:
        complete = issue + config_.fpMulLatency;
        break;
      case OpClass::FpDiv:
        complete = issue + config_.fpDivLatency;
        pen.longLatency += config_.fpDivLatency - 1;
        break;
      case OpClass::Load:
        complete = timeLoad(rec, issue, pen);
        ++counters_.instLoads;
        break;
      case OpClass::Store:
        complete = timeStore(rec, issue, pen);
        ++counters_.instStores;
        break;
      case OpClass::Branch:
        complete = issue + config_.intAluLatency;
        ++counters_.brRetired;
        if (ev & FrontRecord::kMispredict) {
            ++counters_.brMispredicted;
            pendingResteer_ += config_.mispredictPenalty;
            mispredicted = true;
        }
        break;
    }

    // --- Commit: in order, width per cycle -------------------------
    const Cycle commit_before = lastCommitCycle_;
    Cycle commit = std::max(complete, lastCommitCycle_);
    if (commit == lastCommitCycle_ &&
        committedThisCycle_ >= config_.width) {
        commit += 1;
    }
    if (commit > lastCommitCycle_) {
        lastCommitCycle_ = commit;
        committedThisCycle_ = 1;
    } else {
        ++committedThisCycle_;
    }

    // --- Cycle attribution -----------------------------------------
    // Charge this instruction's commit gap to its own penalties,
    // largest first; one cycle of any remaining gap is the issue
    // base, the rest is dependency/window stall.
    Cycle gap = commit - commit_before;
    if (gap > 0) {
        auto charge = [&gap](std::uint64_t &bucket, Cycle amount) {
            const Cycle take = std::min(gap, amount);
            bucket += take;
            gap -= take;
        };
        charge(stack_.resteer, pen.resteer);
        charge(stack_.memL2, pen.memL2);
        charge(stack_.dtlb, pen.dtlb);
        charge(stack_.memL1d, pen.memL1d);
        charge(stack_.frontend, pen.frontend);
        charge(stack_.storeForward, pen.storeForward);
        charge(stack_.memOther, pen.memOther);
        charge(stack_.longLatency, pen.longLatency);
        if (gap > 0) {
            stack_.base += 1;
            stack_.window += gap - 1;
        }
    }

    robCommit_[robHead_] = commit;
    if (++robHead_ == config_.robSize)
        robHead_ = 0;
    resultReady_[seq_ & (kResultRing - 1)] = complete;

    if (mispredicted) {
        // Wrong-path fetch is not simulated; the re-steer appears as
        // the front end going quiet until the branch resolves plus the
        // pipeline refill penalty.
        fetchReadyCycle_ = std::max(
            fetchReadyCycle_, complete + config_.mispredictPenalty);
    }

    ++seq_;
    ++counters_.instRetired;
    counters_.cycles = lastCommitCycle_;
}

void
Core::execute(const MicroOp &op)
{
    timeStep(frontStep(op));
}

FrontRecord
Core::front(const MicroOp &op)
{
    return frontStep(op);
}

void
Core::time(const FrontRecord &rec)
{
    timeStep(rec);
}

void
Core::reset()
{
    l1i_.reset();
    l1d_.reset();
    if (l2_)
        l2_->reset();
    dtlb_.reset();
    itlb_.reset();
    bp_.reset();
    decoder_.reset();
    lsq_.reset();
    counters_.reset();
    stack_ = CpiStack{};
    pendingResteer_ = 0;
    seq_ = 0;
    frontSeq_ = 0;
    fetchReadyCycle_ = 0;
    lastDispatchCycle_ = 0;
    dispatchedThisCycle_ = 0;
    lastCommitCycle_ = 0;
    committedThisCycle_ = 0;
    lastFetchLine_ = ~0ULL;
    lastFetchPage_ = ~0ULL;
    std::fill(robCommit_.begin(), robCommit_.end(), 0);
    robHead_ = 0;
    resultReady_.fill(0);
    std::fill(portFree_.begin(), portFree_.end(), 0);
}

} // namespace mtperf::uarch
