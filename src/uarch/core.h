/**
 * @file
 * A Core-2-Duo-like out-of-order timing model.
 *
 * The core executes a stream of MicroOps in one pass, computing for
 * each a dispatch, issue, completion and in-order commit cycle. The
 * model is mechanistic rather than cycle-accurate: structural state
 * (caches, TLBs, branch predictor, store buffer, decoder) is fully
 * simulated, and the *exposure* of each event's latency emerges from
 *
 *  - dependency chains: an op issues when its producer (depDist ops
 *    earlier) has completed, so pointer-chasing loads serialize their
 *    full memory latency while independent misses overlap (MLP);
 *  - the reorder window: dispatch of op i waits for the commit of op
 *    i - robSize, so a long-latency op eventually fills the window
 *    and stalls the machine, but short latencies hide entirely;
 *  - in-order commit at the machine width, which converts completion
 *    jitter back into a serial cycle count;
 *  - the front end: I-cache/ITLB misses, LCP pre-decode bubbles and
 *    branch-mispredict re-steers delay when later ops can dispatch.
 *
 * This is the same modeling altitude as interval simulation (Genbrugge
 * et al.) and is what makes the generated counter/CPI dataset exhibit
 * the interaction effects the paper's model tree must discover —
 * a uniform per-event penalty model cannot reproduce it.
 */

#ifndef MTPERF_UARCH_CORE_H_
#define MTPERF_UARCH_CORE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/decoder.h"
#include "uarch/event_counters.h"
#include "uarch/l2_port.h"
#include "uarch/lsq.h"
#include "uarch/tlb.h"
#include "uarch/types.h"

namespace mtperf::uarch {

/** Full machine configuration. */
struct CoreConfig
{
    std::uint32_t width = 4;    //!< dispatch/commit width
    std::uint32_t robSize = 96; //!< reorder-window entries

    /** @name Execution latencies (cycles) */
    ///@{
    Cycle intAluLatency = 1;
    Cycle intMulLatency = 3;
    Cycle fpAddLatency = 3;
    Cycle fpMulLatency = 5;
    Cycle fpDivLatency = 32;
    ///@}

    /** @name Memory hierarchy latencies (cycles) */
    ///@{
    Cycle l1dHitLatency = 3;
    Cycle l2HitLatency = 14;
    Cycle memLatency = 165;
    Cycle l1iMissToL2Latency = 12; //!< front-end refill from L2
    Cycle dtlbL0MissLatency = 2;   //!< L0 miss that hits the main DTLB
    Cycle pageWalkLatency = 26;
    Cycle misalignPenalty = 3;
    Cycle splitPenalty = 3;
    ///@}

    /** Re-steer cost after a mispredicted branch resolves. */
    Cycle mispredictPenalty = 15;

    /**
     * Model issue-port contention (off by default). When on, each
     * operation class competes for a finite set of pipelined issue
     * ports patterned after Core 2's: one load port, one store port,
     * three ALU ports shared by integer ops and branches, and one FP
     * port per FP class (the divider is unpipelined).
     */
    bool modelPortContention = false;
    std::uint32_t aluPorts = 3;
    std::uint32_t loadPorts = 1;
    std::uint32_t storePorts = 1;
    std::uint32_t fpAddPorts = 1;
    std::uint32_t fpMulPorts = 1;

    CacheConfig l1i{"L1I", 32 * 1024, 8, kLineBytes, false};
    CacheConfig l1d{"L1D", 32 * 1024, 8, kLineBytes, false};
    CacheConfig l2{"L2", 4 * 1024 * 1024, 16, kLineBytes, true, 6};
    TlbConfig dtlbL0{16, 16, kPageBytes};   //!< fully associative L0
    TlbConfig dtlbMain{256, 4, kPageBytes};
    TlbConfig itlb{128, 4, kPageBytes};
    BranchPredictorConfig branchPredictor{};
    DecoderConfig decoder{};
    LsqConfig lsq{};

    /** The default Core-2-Duo-like configuration. */
    static CoreConfig core2Like() { return CoreConfig{}; }
};

/**
 * Approximate attribution of the cycle count to stall causes.
 *
 * Each instruction's commit-time gap over its predecessor is charged
 * to the penalties that instruction demonstrably incurred (miss
 * latencies, walks, blocks, front-end bubbles, re-steers), in
 * longest-first order; whatever remains is charged to the issue base
 * (one cycle) and to dependency/window stalls. The fields always sum
 * to the total cycle count, making this the simulator-side "CPI
 * stack" that the model tree's per-event attributions can be checked
 * against.
 */
struct CpiStack
{
    std::uint64_t base = 0;        //!< steady-state issue/commit
    std::uint64_t frontend = 0;    //!< L1I / ITLB / LCP fetch bubbles
    std::uint64_t resteer = 0;     //!< branch mispredict recovery
    std::uint64_t memL2 = 0;       //!< load misses going to memory
    std::uint64_t memL1d = 0;      //!< load misses satisfied by L2
    std::uint64_t dtlb = 0;        //!< page walks (loads and stores)
    std::uint64_t storeForward = 0; //!< STA/STD/overlap blocks
    std::uint64_t memOther = 0;    //!< misalignment and line splits
    std::uint64_t longLatency = 0; //!< exposed FP-divide latency
    std::uint64_t window = 0;      //!< dependency / window stalls

    /** Sum of every component (== total cycles). */
    std::uint64_t total() const
    {
        return base + frontend + resteer + memL2 + memL1d + dtlb +
               storeForward + memOther + longLatency + window;
    }

    /** Elementwise difference (this - earlier snapshot). */
    CpiStack delta(const CpiStack &earlier) const;
};

/**
 * What the front half learned about one instruction: the op fields
 * the timing half still needs, and one FrontRecord::Event bit per
 * private-structure outcome. Penalties are not stored; the timing
 * half reads them from the configuration.
 */
struct FrontRecord
{
    enum Event : std::uint16_t {
        kItlbMiss = 1U << 0,
        kL1iMiss = 1U << 1,
        kLcp = 1U << 2,         //!< nonzero pre-decode bubble
        kDtlbL0Miss = 1U << 3,  //!< load missed the L0 DTLB
        kDtlbWalk = 1U << 4,    //!< page walk (load or store)
        kBlockSta = 1U << 5,
        kBlockStd = 1U << 6,
        kBlockOverlap = 1U << 7,
        kMisaligned = 1U << 8,
        kSplit = 1U << 9,       //!< access spans two lines
        kL1dMiss = 1U << 10,    //!< first (or only) line missed L1D
        kL1dMissSecond = 1U << 11, //!< a split's second line missed
        kMispredict = 1U << 12,
    };

    Addr pc = 0;
    Addr addr = 0;
    std::uint16_t depDist = 0;
    std::uint16_t events = 0;
    OpClass cls = OpClass::IntAlu;
    std::uint8_t size = 0;
};
static_assert(sizeof(FrontRecord) == 24,
              "front records are buffered per op; keep them compact");

/**
 * One-pass out-of-order timing core.
 *
 * The per-instruction model has two halves. front() runs the op
 * through the core's private structures (ITLB, L1I, decoder, DTLB,
 * LSQ, L1D, branch predictor) and touches no timing state and no L2;
 * time() does dispatch, issue and commit, the L2 access, the counters
 * and the CPI stack, and touches no private structure. An op's
 * private outcomes depend only on the ops before it in the same
 * stream, so front() may run any distance ahead of time(), on
 * another thread, as long as records are timed in the order they
 * were produced. execute() is time(front(op)).
 */
class Core
{
  public:
    /**
     * Build a core. With the default null @p shared_l2 the core owns
     * a private L2 and behaves exactly as the single-core model; with
     * a port, every L2-level access goes through it as @p core_id and
     * no private L2 is built.
     */
    explicit Core(const CoreConfig &config = CoreConfig::core2Like(),
                  L2Port *shared_l2 = nullptr,
                  std::uint32_t core_id = 0);

    /** Execute (time) one instruction: time(front(op)). */
    void execute(const MicroOp &op);

    /** The front half: private-structure outcomes of @p op. */
    FrontRecord front(const MicroOp &op);

    /** The timing half: time the op front() described as @p rec. */
    void time(const FrontRecord &rec);

    /** Counter file; cycles reflects the last committed instruction. */
    const EventCounters &counters() const { return counters_; }

    /** Cycle attribution by stall cause (sums to counters().cycles). */
    const CpiStack &cpiStack() const { return stack_; }

    /** Commit cycle of the most recently executed instruction. */
    Cycle currentCycle() const { return lastCommitCycle_; }

    /** Instructions retired so far. */
    std::uint64_t instructionsRetired() const
    {
        return counters_.instRetired;
    }

    /** Full reset: structures, timing state and counters. */
    void reset();

    const CoreConfig &config() const { return config_; }

    /** This core's id within a multicore system (0 when standalone). */
    std::uint32_t coreId() const { return coreId_; }

    /** @name Component access (read-only, for tests and reports) */
    ///@{
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const BranchPredictor &branchPredictor() const { return bp_; }
    const LoadStoreQueue &lsq() const { return lsq_; }
    ///@}

  private:
    /** Penalties incurred by the instruction being timed, consumed
     *  by the commit-gap attribution. */
    struct OpPenalties
    {
        Cycle frontend = 0;
        Cycle resteer = 0;
        Cycle memL2 = 0;
        Cycle memL1d = 0;
        Cycle dtlb = 0;
        Cycle storeForward = 0;
        Cycle memOther = 0;
        Cycle longLatency = 0;
    };

    /** @name The halves, force-inlined into execute(), front() and
     *  time() so the fused path keeps the record in registers */
    ///@{
    FrontRecord frontStep(const MicroOp &op);
    void timeStep(const FrontRecord &rec);
    Cycle timeLoad(const FrontRecord &rec, Cycle issue,
                   OpPenalties &pen);
    Cycle timeStore(const FrontRecord &rec, Cycle issue,
                    OpPenalties &pen);
    ///@}
    Cycle acquirePort(OpClass cls, Cycle dispatch, Cycle ready);
    L2AccessResult l2Access(Addr addr, L2AccessKind kind, Cycle cycle);

    // Read-only after construction.
    CoreConfig config_;
    L2Port *sharedL2_ = nullptr; //!< null = private hierarchy
    std::uint32_t coreId_ = 0;

    // Front half: written only by front(). The group starts and ends
    // on its own cache lines so a front() running on another thread
    // never shares a line with the timing state.
    alignas(64) Cache l1i_;
    Cache l1d_;
    TwoLevelDtlb dtlb_;
    Tlb itlb_;
    BranchPredictor bp_;
    Decoder decoder_;
    LoadStoreQueue lsq_;
    std::uint64_t frontSeq_ = 0; //!< dynamic number of the next front op
    Addr lastFetchLine_ = ~0ULL;
    Addr lastFetchPage_ = ~0ULL;

    // Timing half: written only by time().
    alignas(64) std::optional<Cache> l2_; //!< private hierarchy only
    EventCounters counters_;
    CpiStack stack_;
    Cycle pendingResteer_ = 0; //!< re-steer to charge to the next op

    std::uint64_t seq_ = 0;          //!< dynamic instruction number
    Cycle fetchReadyCycle_ = 0;      //!< front-end availability
    Cycle lastDispatchCycle_ = 0;
    std::uint32_t dispatchedThisCycle_ = 0;
    Cycle lastCommitCycle_ = 0;
    std::uint32_t committedThisCycle_ = 0;

    std::vector<Cycle> robCommit_; //!< commit cycle ring, robSize deep
    /**
     * Ring slot of the current instruction: the same slot is read at
     * dispatch (the commit cycle of op seq - robSize) and overwritten
     * at commit, then the head advances with an incremental wrap —
     * the hot path never divides by the runtime-variable robSize.
     */
    std::size_t robHead_ = 0;

    static constexpr std::size_t kResultRing = 512; //!< power of two
    std::array<Cycle, kResultRing> resultReady_{}; //!< completion ring

    /**
     * Issue-port bookkeeping, flattened: one next-free-cycle array for
     * all ports plus a per-OpClass {offset, count, occupancy} view
     * into it. FpDiv maps onto the FpMul span with the divider's
     * unpipelined occupancy; every other class is pipelined.
     */
    struct PortGroup
    {
        std::uint32_t offset = 0;
        std::uint32_t count = 0;
        Cycle occupancy = 1;
    };
    static constexpr std::size_t kNumOpClasses = 8;
    std::vector<Cycle> portFree_;
    std::array<PortGroup, kNumOpClasses> portGroups_{};
};

} // namespace mtperf::uarch

#endif // MTPERF_UARCH_CORE_H_
