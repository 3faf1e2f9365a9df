#include "multicore/corun_runner.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "common/fault.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "multicore/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/stream_gen.h"

namespace mtperf::multicore {

namespace {

/** FNV-1a of a workload name (same derivation as the solo runner). */
std::uint64_t
nameHash(const std::string &name)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (char c : name)
        hash = (hash ^ static_cast<unsigned char>(c)) *
               1099511628211ULL;
    return hash;
}

/**
 * Where a lane stands in its section schedule. The lane's front and
 * the stepper each walk their own copy over the same op stream.
 */
struct Schedule
{
    const workload::WorkloadSpec *spec = nullptr;
    std::size_t phaseIndex = 0;
    std::size_t sectionsInPhase = 0;
    std::size_t sectionInPhase = 0;
    std::size_t sectionIndex = 0; //!< lane-local running section index
    std::uint64_t instrInSection = 0;
    bool done = false;

    const workload::PhaseSpec &phase() const
    {
        return spec->phases[phaseIndex];
    }

    /** Enter the next phase with a nonzero section budget, if any. */
    void
    enterPhase(double scale)
    {
        for (; phaseIndex < spec->phases.size(); ++phaseIndex) {
            sectionsInPhase = static_cast<std::size_t>(std::llround(
                static_cast<double>(spec->phases[phaseIndex].sections) *
                scale));
            if (sectionsInPhase > 0) {
                sectionInPhase = 0;
                return;
            }
        }
        done = true;
    }

    /** Count one instruction; true when it closed the section. */
    bool
    step(std::uint64_t per_section)
    {
        if (++instrInSection < per_section)
            return false;
        instrInSection = 0;
        return true;
    }

    /** Move past a closed section; true when a new phase began. */
    bool
    nextSection(double scale)
    {
        ++sectionIndex;
        if (++sectionInPhase < sectionsInPhase)
            return false;
        ++phaseIndex;
        enterPhase(scale);
        return !done;
    }
};

/**
 * A lane's front: its generator, section jitter and the core's
 * private structures, run ahead of the stepper. The seeding mirrors
 * the solo runner exactly — options.seed ^ FNV(name) with the same
 * per-phase generator derivation — plus a golden-ratio core salt, so
 * identical workloads on different cores run distinct deterministic
 * streams.
 */
struct alignas(64) LaneFront
{
    Schedule at;
    std::uint64_t laneSeed = 0;
    Rng jitterRng{0};
    std::optional<workload::StreamGenerator> gen;

    void
    startPhase()
    {
        gen.emplace(at.phase().params,
                    laneSeed ^ (at.sectionIndex * 0x9e3779b9ULL + 1));
    }

    /** Prepare up to @p count records into @p out; returns how many. */
    std::size_t
    fill(uarch::Core &core, uarch::FrontRecord *out, std::size_t count,
         const workload::RunnerOptions &options)
    {
        std::size_t n = 0;
        while (n < count && !at.done) {
            if (at.instrInSection == 0) {
                gen->setParams(workload::jitterPhase(
                    at.phase().params, options.paramJitter, jitterRng));
            }
            out[n++] = core.front(gen->next());
            if (at.step(options.instructionsPerSection) &&
                at.nextSection(options.sectionScale))
                startPhase();
        }
        return n;
    }
};

/** Front records per chunk. */
constexpr std::size_t kChunkOps = 2048;
/** Chunks in a lane's ring: how far its front may run ahead. */
constexpr std::size_t kChunkSlots = 4;

/**
 * A lane's prepared records: a ring of chunk slots its front fills
 * and the stepper drains. A slot is published by `produced` and
 * handed back by `consumed`; each counter has one writer and sits on
 * its own cache line.
 */
struct alignas(64) LaneRing
{
    std::array<std::vector<uarch::FrontRecord>, kChunkSlots> slots;
    std::array<std::size_t, kChunkSlots> filled{};
    alignas(64) std::atomic<std::uint64_t> produced{0};
    std::atomic<bool> frontActive{false}; //!< the front task is running
    alignas(64) std::atomic<std::uint64_t> consumed{0};
};

/**
 * One step of a wait on another running task: spin briefly, then
 * give the CPU away. Waits are only ever on a task that is running
 * and will make progress without waiting back.
 */
void
backoff(unsigned spins)
{
    if (spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    } else if (spins < 256) {
        std::this_thread::yield();
    } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
}

/** The stepper's side of a lane. */
struct alignas(64) LaneTimer
{
    Schedule at;
    std::uint64_t consumed = 0; //!< chunks finished (stepper's copy)
    const uarch::FrontRecord *next = nullptr;
    const uarch::FrontRecord *end = nullptr;
    uarch::EventCounters before;
    std::vector<workload::SectionRecord> records;

    /**
     * Point next/end at the lane's oldest unread chunk, waiting while
     * the ring is empty and the lane's front is running (a front with
     * room never waits, so it publishes); false when the ring is
     * empty and the front is not running.
     */
    bool
    take(const LaneRing &ring)
    {
        for (unsigned spins = 0;; ++spins) {
            // Read the flag first: once it reads false, `produced`
            // holds everything the front published.
            const bool active =
                ring.frontActive.load(std::memory_order_acquire);
            if (consumed < ring.produced.load(std::memory_order_acquire))
                break;
            if (!active)
                return false;
            backoff(spins);
        }
        const std::size_t slot = consumed % kChunkSlots;
        next = ring.slots[slot].data();
        end = next + ring.filled[slot];
        return true;
    }
};

} // namespace

std::string
corunSetName(const CorunScenario &scenario)
{
    std::string name;
    for (std::size_t i = 0; i < scenario.lanes.size(); ++i) {
        if (i > 0)
            name += '+';
        name += scenario.lanes[i].name;
    }
    return name;
}

std::vector<workload::SectionRecord>
runCorunScenario(const CorunScenario &scenario,
                 const workload::RunnerOptions &options)
{
    if (scenario.lanes.empty())
        mtperf_fatal("co-run scenario has no lanes");
    if (options.instructionsPerSection == 0)
        mtperf_fatal("instructionsPerSection must be positive");
    for (const auto &spec : scenario.lanes) {
        if (spec.phases.empty())
            mtperf_fatal("workload '", spec.name, "' has no phases");
    }
    MTPERF_FAULT_POINT("sim.workload.fail");

    const std::string set_name = corunSetName(scenario);
    obs::ScopedSpan span("sim", "sim.corun " + set_name);
    static obs::Counter &sectionsSimulated =
        obs::counter("sim.sections_simulated");
    static obs::Counter &instructionsExecuted =
        obs::counter("sim.instructions_executed");
    static obs::Counter &corunScenarios =
        obs::counter("sim.corun.scenarios");
    static obs::Counter &corunSharedMisses =
        obs::counter("sim.corun.l2_shared_misses");
    static obs::Counter &corunEvictedByOther =
        obs::counter("sim.corun.l2_evicted_by_other");
    static obs::Counter &corunPrefetchCancels =
        obs::counter("sim.corun.prefetch_cancellations");

    const auto num_cores =
        static_cast<std::uint32_t>(scenario.lanes.size());
    MulticoreSystem system(options.coreConfig, num_cores);

    std::vector<LaneFront> fronts(num_cores);
    std::vector<LaneRing> rings(num_cores);
    std::vector<LaneTimer> timers(num_cores);
    std::vector<std::uint8_t> runnable(num_cores, 0);
    std::uint32_t live = 0;
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        LaneFront &front = fronts[c];
        front.at.spec = &scenario.lanes[c];
        front.laneSeed = options.seed ^ nameHash(front.at.spec->name) ^
                         (c * 0x9e3779b97f4a7c15ULL);
        front.jitterRng = Rng(front.laneSeed);
        front.at.enterPhase(options.sectionScale);
        if (!front.at.done)
            front.startPhase();
        for (auto &slot : rings[c].slots)
            slot.resize(kChunkOps);
        timers[c].at = front.at;
        runnable[c] = !front.at.done;
        live += runnable[c];
    }

    // Whether the stepper task of the current round has not started,
    // is running, or has returned.
    enum : int { kPending, kRunning, kFinished };
    std::atomic<int> stepper{kPending};

    // The stepper: times prepared records under the stepping contract
    // until every lane is done, or until the lane the contract picks
    // has nothing prepared and its front is not running. It never
    // skips a lane, so the instruction interleaving — and every
    // output byte — is the same at any thread count.
    auto step = [&] {
        stepper.store(kRunning, std::memory_order_relaxed);
        struct Finish
        {
            std::atomic<int> &state;
            ~Finish() { state.store(kFinished, std::memory_order_release); }
        } finish{stepper};
        while (live > 0) {
            const std::uint32_t c = system.nextCore(runnable);
            LaneTimer &lane = timers[c];
            if (lane.next == lane.end && !lane.take(rings[c]))
                return;
            if (lane.at.instrInSection == 0)
                lane.before = system.counters(c);

            system.core(c).time(*lane.next);
            if (++lane.next == lane.end) {
                rings[c].consumed.store(++lane.consumed,
                                        std::memory_order_release);
            }

            if (!lane.at.step(options.instructionsPerSection))
                continue;
            workload::SectionRecord record;
            record.workload = lane.at.spec->name;
            record.phase = lane.at.phase().params.name;
            record.sectionIndex = lane.at.sectionIndex;
            record.counters = system.counters(c).delta(lane.before);
            record.core = c;
            record.corunSet = set_name;
            lane.records.push_back(std::move(record));

            lane.at.nextSection(options.sectionScale);
            if (lane.at.done) {
                runnable[c] = 0;
                --live;
            }
        }
    };

    // A front fills free slots until its lane is done. With its ring
    // full it waits only while the stepper is running (the stepper
    // drains or returns); once the stepper has returned it makes at
    // most one more chunk, so the round ends promptly.
    auto prepare = [&](std::uint32_t c) {
        LaneFront &front = fronts[c];
        LaneRing &ring = rings[c];
        struct Active
        {
            std::atomic<bool> &flag;
            explicit Active(std::atomic<bool> &f) : flag(f)
            {
                flag.store(true, std::memory_order_relaxed);
            }
            ~Active() { flag.store(false, std::memory_order_release); }
        } active(ring.frontActive);
        std::uint64_t produced =
            ring.produced.load(std::memory_order_relaxed);
        bool filled_one = false;
        unsigned spins = 0;
        while (!front.at.done) {
            const int state = stepper.load(std::memory_order_acquire);
            if (state == kFinished && filled_one)
                return;
            if (produced - ring.consumed.load(std::memory_order_acquire) ==
                kChunkSlots) {
                if (state != kRunning)
                    return;
                backoff(spins++);
                continue;
            }
            spins = 0;
            const std::size_t slot = produced % kChunkSlots;
            ring.filled[slot] =
                front.fill(system.core(c), ring.slots[slot].data(),
                           kChunkOps, options);
            ring.produced.store(++produced, std::memory_order_release);
            filled_one = true;
        }
    };

    // Rounds: one pool loop over {unfinished fronts, stepper}. Every
    // wait is on a task that is already running and cannot be waiting
    // back (the stepper waits on a front whose ring is empty, a front
    // on the stepper while its ring is full), so a round always ends.
    // With one thread, or nested in a pool task, a round runs inline:
    // the fronts fill their rings, then the stepper drains them.
    std::vector<std::uint32_t> preparing;
    while (live > 0) {
        preparing.clear();
        for (std::uint32_t c = 0; c < num_cores; ++c) {
            if (!fronts[c].at.done)
                preparing.push_back(c);
        }
        stepper.store(kPending, std::memory_order_relaxed);
        globalPool().parallelFor(
            preparing.size() + 1, [&](std::size_t task) {
                if (task < preparing.size())
                    prepare(preparing[task]);
                else
                    step();
            });
    }

    std::vector<workload::SectionRecord> records;
    std::size_t total = 0;
    for (const auto &lane : timers)
        total += lane.records.size();
    records.reserve(total);
    for (auto &lane : timers) {
        records.insert(records.end(),
                       std::make_move_iterator(lane.records.begin()),
                       std::make_move_iterator(lane.records.end()));
    }

    sectionsSimulated.add(records.size());
    instructionsExecuted.add(records.size() *
                             options.instructionsPerSection);
    corunScenarios.add(1);
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        const SharedL2Stats &stats = system.sharedL2().stats(c);
        corunSharedMisses.add(stats.l2SharedMisses);
        corunEvictedByOther.add(stats.l2OccupancyEvictedByOther);
        corunPrefetchCancels.add(stats.prefetchCancellations);
    }
    return records;
}

std::vector<workload::SectionRecord>
runCorunSuite(const std::vector<CorunScenario> &scenarios,
              const workload::RunnerOptions &options)
{
    // Scenarios are independent simulations; each is serial inside
    // (the arbitration contract fixes the instruction interleaving),
    // so mapping over the pool and merging in scenario order keeps
    // the record stream byte-identical at any --threads.
    auto per_scenario =
        parallelMap(globalPool(), scenarios.size(), [&](std::size_t i) {
            return runCorunScenario(scenarios[i], options);
        });

    std::vector<workload::SectionRecord> all;
    std::size_t total = 0;
    for (const auto &records : per_scenario)
        total += records.size();
    all.reserve(total);
    for (auto &records : per_scenario) {
        all.insert(all.end(), std::make_move_iterator(records.begin()),
                   std::make_move_iterator(records.end()));
    }
    return all;
}

} // namespace mtperf::multicore
