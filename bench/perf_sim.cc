/**
 * @file
 * P2 — google-benchmark microbenchmarks of the timing simulator.
 *
 * Measures instruction throughput (items/s = simulated instructions
 * per second) of the core model under contrasting workload profiles,
 * plus the raw component models.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "multicore/corun_runner.h"
#include "multicore/system.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "uarch/core.h"
#include "uarch/event_counters.h"
#include "workload/runner.h"
#include "workload/spec_suite.h"
#include "workload/stream_gen.h"

namespace {

using namespace mtperf;
using namespace mtperf::workload;

void
runCoreBenchmark(benchmark::State &state, const PhaseParams &phase)
{
    uarch::Core core;
    StreamGenerator gen(phase, 99);
    for (auto _ : state)
        core.execute(gen.next());
    state.SetItemsProcessed(state.iterations());
}

void
BM_CoreComputeBound(benchmark::State &state)
{
    runCoreBenchmark(state,
                     suiteWorkload("hmmer_like").phases[0].params);
}
BENCHMARK(BM_CoreComputeBound);

void
BM_CoreMemoryBound(benchmark::State &state)
{
    runCoreBenchmark(state, suiteWorkload("mcf_like").phases[0].params);
}
BENCHMARK(BM_CoreMemoryBound);

void
BM_CoreStreaming(benchmark::State &state)
{
    runCoreBenchmark(
        state, suiteWorkload("libquantum_like").phases[0].params);
}
BENCHMARK(BM_CoreStreaming);

void
BM_CoreDuoCorun(benchmark::State &state)
{
    // Two cores in lockstep over the shared L2: items/s is co-run
    // instructions per second, directly comparable to the solo core
    // benchmarks above (the gap is the subsystem's stepping +
    // contention overhead).
    multicore::MulticoreSystem system(uarch::CoreConfig::core2Like(),
                                      2);
    StreamGenerator a(suiteWorkload("mcf_like").phases[0].params, 99);
    StreamGenerator b(suiteWorkload("gcc_like").phases[0].params,
                      99 ^ 0x9e3779b97f4a7c15ULL);
    const std::vector<std::uint8_t> runnable(2, 1);
    for (auto _ : state) {
        const std::uint32_t c = system.nextCore(runnable);
        system.core(c).execute(c == 0 ? a.next() : b.next());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreDuoCorun);

void
BM_CoreDuoSoloLane(benchmark::State &state)
{
    // One core through the shared port: the delta against
    // BM_CoreMemoryBound is the pure cost of the port indirection.
    multicore::MulticoreSystem system(uarch::CoreConfig::core2Like(),
                                      1);
    StreamGenerator gen(suiteWorkload("mcf_like").phases[0].params, 99);
    for (auto _ : state)
        system.core(0).execute(gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreDuoSoloLane);

void
BM_StreamGeneratorOnly(benchmark::State &state)
{
    StreamGenerator gen(suiteWorkload("mcf_like").phases[0].params, 99);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamGeneratorOnly);

void
BM_CacheAccess(benchmark::State &state)
{
    uarch::Cache cache(uarch::CacheConfig{"bench", 32 * 1024, 8, 64,
                                          false, 1});
    uarch::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/** One memory op of the LSQ/DTLB replay. */
struct MemOp
{
    uarch::Addr addr = 0;
    std::uint64_t seq = 0; //!< dynamic op number, as Core::front counts
    std::uint8_t size = 0;
    bool store = false;
    bool addrSlow = false;
};

constexpr std::uint64_t kReplayOpsPerWorkload = 20000;

/**
 * The loads and stores of the first kReplayOpsPerWorkload generated
 * ops of every suite workload's first phase, back to back with one
 * running op number: the stream Core::front feeds the store buffer
 * and the DTLB, without the rest of the core.
 */
const std::vector<MemOp> &
memReplay()
{
    static const std::vector<MemOp> replay = [] {
        std::vector<MemOp> ops;
        std::uint64_t seq = 0;
        for (const WorkloadSpec &spec : specLikeSuite()) {
            StreamGenerator gen(spec.phases[0].params, 99);
            for (std::uint64_t i = 0; i < kReplayOpsPerWorkload; ++i, ++seq) {
                const uarch::MicroOp op = gen.next();
                if (op.cls == uarch::OpClass::Load ||
                    op.cls == uarch::OpClass::Store) {
                    ops.push_back({op.addr, seq, op.size,
                                   op.cls == uarch::OpClass::Store,
                                   op.storeAddrSlow});
                }
            }
        }
        return ops;
    }();
    return replay;
}

void
BM_LoadStoreQueue(benchmark::State &state)
{
    const std::vector<MemOp> &replay = memReplay();
    uarch::LoadStoreQueue lsq;
    std::size_t i = 0;
    for (auto _ : state) {
        const MemOp &op = replay[i];
        if (op.store)
            lsq.recordStore(op.addr, op.size, op.addrSlow, op.seq);
        else
            benchmark::DoNotOptimize(lsq.checkLoad(op.addr, op.size, op.seq));
        if (++i == replay.size()) {
            i = 0;
            lsq.reset();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoadStoreQueue);

void
BM_TlbAccess(benchmark::State &state)
{
    // The replay's addresses through the Core 2 DTLB pair: loads via
    // the L0, stores straight to the main DTLB.
    const std::vector<MemOp> &replay = memReplay();
    const uarch::CoreConfig config;
    uarch::TwoLevelDtlb dtlb(config.dtlbL0, config.dtlbMain);
    std::size_t i = 0;
    for (auto _ : state) {
        const MemOp &op = replay[i];
        if (op.store)
            benchmark::DoNotOptimize(dtlb.translateStore(op.addr));
        else
            benchmark::DoNotOptimize(dtlb.translateLoad(op.addr));
        if (++i == replay.size())
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbAccess);

void
BM_BranchPredictor(benchmark::State &state)
{
    uarch::BranchPredictor bp;
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bp.predictAndUpdate(0x400000 + (i % 64) * 4, (i & 3) != 0));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredictor);

/**
 * Headline measurement + correctness self-check, emitted as
 * BENCH_sim.json (same flat shape as BENCH_serve.json).
 *
 * Runs the full 17-workload suite through the sectioned runner and
 * reports sections/sec and simulated instructions/sec, plus the
 * decode-cache hit rate from the obs counters. The self-checks gate
 * on *counters*, never wall time, so they are safe to assert in CI:
 *  - the suite run must be deterministic (two runs of the same
 *    workload produce identical counter deltas);
 *  - decode-cache accounting must balance (hits + misses == lookups,
 *    also enforced by the registered obs invariant);
 *  - every registered obs invariant must hold;
 *  - the LSQ replay's block counts must equal their pinned recount.
 */
int
runHeadline(double scale, const std::string &json_path)
{
    using namespace mtperf;

    RunnerOptions options;
    options.sectionScale = scale;

    // Self-check 1: determinism. Same spec + options => identical
    // per-section counters.
    {
        const WorkloadSpec spec = suiteWorkload("mcf_like");
        const auto a = runWorkload(spec, options);
        const auto b = runWorkload(spec, options);
        if (a.size() != b.size()) {
            std::cerr << "perf_sim: non-deterministic section count\n";
            return 1;
        }
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i].counters.cycles != b[i].counters.cycles ||
                a[i].counters.instRetired !=
                    b[i].counters.instRetired ||
                a[i].counters.lcpStalls != b[i].counters.lcpStalls) {
                std::cerr << "perf_sim: non-deterministic counters at "
                             "section "
                          << i << "\n";
                return 1;
            }
        }
    }

    const std::uint64_t lookups_before =
        obs::counter("decode.cache_lookups").value();
    const std::uint64_t hits_before =
        obs::counter("decode.cache_hits").value();
    const std::uint64_t misses_before =
        obs::counter("decode.cache_misses").value();

    const auto started = std::chrono::steady_clock::now();
    const std::vector<SectionRecord> records =
        runSuite(specLikeSuite(), options);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();

    if (records.empty()) {
        std::cerr << "perf_sim: suite run produced no sections\n";
        return 1;
    }

    std::uint64_t instructions = 0;
    for (const SectionRecord &rec : records)
        instructions += rec.counters.instRetired;

    const std::uint64_t lookups =
        obs::counter("decode.cache_lookups").value() - lookups_before;
    const std::uint64_t hits =
        obs::counter("decode.cache_hits").value() - hits_before;
    const std::uint64_t misses =
        obs::counter("decode.cache_misses").value() - misses_before;

    // Self-check 2: decode-cache accounting balances over the run.
    if (hits + misses != lookups) {
        std::cerr << "perf_sim: decode cache accounting off: " << hits
                  << " + " << misses << " != " << lookups << "\n";
        return 1;
    }
    // Self-check 3: global invariants (counter accounting).
    for (const auto &violation : obs::validateInvariants()) {
        std::cerr << "perf_sim: invariant " << violation.name
                  << " violated: " << violation.message << "\n";
        return 1;
    }
    // Self-check 4: the single-core suite must not know the shared
    // L2 exists — every contention counter stays zero.
    for (const SectionRecord &rec : records) {
        if (rec.counters.l2SharedMisses != 0 ||
            rec.counters.l2OccupancyEvictedByOther != 0 ||
            rec.counters.prefetchCancellations != 0) {
            std::cerr << "perf_sim: contention counters nonzero in a "
                         "single-core run ("
                      << rec.workload << " section "
                      << rec.sectionIndex << ")\n";
            return 1;
        }
    }

    // Self-check 5: the LSQ replay's block counts equal a fixed
    // recount (taken with the pre-bitmask scan), and the queue's own
    // counters equal the flags it returned. Any change to the
    // store-buffer scan that moves one of them moves the Table-I
    // LOAD_BLOCK counters.
    {
        uarch::LoadStoreQueue lsq;
        std::uint64_t loads = 0;
        std::uint64_t flagged[3] = {0, 0, 0};
        for (const MemOp &op : memReplay()) {
            if (op.store) {
                lsq.recordStore(op.addr, op.size, op.addrSlow, op.seq);
                continue;
            }
            const uarch::LoadBlockResult r =
                lsq.checkLoad(op.addr, op.size, op.seq);
            ++loads;
            flagged[0] += r.sta;
            flagged[1] += r.std;
            flagged[2] += r.overlap;
        }
        const std::uint64_t got[4] = {loads, lsq.staBlocks(),
                                      lsq.stdBlocks(), lsq.overlapBlocks()};
        const std::uint64_t pinned[4] = {103484, 775, 89, 1919};
        if (!std::equal(got, got + 4, pinned) ||
            !std::equal(flagged, flagged + 3, got + 1)) {
            std::cerr << "perf_sim: LSQ replay counts moved: loads/sta/"
                         "std/overlap "
                      << got[0] << "/" << got[1] << "/" << got[2] << "/"
                      << got[3] << ", pinned " << pinned[0] << "/"
                      << pinned[1] << "/" << pinned[2] << "/" << pinned[3]
                      << ", flagged " << flagged[0] << "/" << flagged[1]
                      << "/" << flagged[2] << "\n";
            return 1;
        }
    }

    // BM_CoreDuo headline: one two-core co-run scenario, gated on
    // counters (determinism and attributed contention), never on wall
    // time.
    multicore::CorunScenario scenario;
    scenario.lanes.push_back(suiteWorkload("mcf_like"));
    scenario.lanes.push_back(suiteWorkload("gcc_like"));
    const auto corun_started = std::chrono::steady_clock::now();
    const std::vector<SectionRecord> corun =
        multicore::runCorunScenario(scenario, options);
    const double corun_elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      corun_started)
            .count();

    // Self-check 6: co-run determinism, counter for counter.
    {
        const std::vector<SectionRecord> again =
            multicore::runCorunScenario(scenario, options);
        if (again.size() != corun.size()) {
            std::cerr << "perf_sim: non-deterministic co-run section "
                         "count\n";
            return 1;
        }
        for (std::size_t i = 0; i < corun.size(); ++i) {
            for (const auto &field : uarch::counterFields()) {
                if (corun[i].counters.*(field.member) !=
                    again[i].counters.*(field.member)) {
                    std::cerr << "perf_sim: non-deterministic co-run "
                                 "counter "
                              << field.name << " at section " << i
                              << "\n";
                    return 1;
                }
            }
        }
    }
    // Self-check 7: the shared L2 attributes interference to both
    // cores; a co-run whose contention counters are zero is a broken
    // shared hierarchy.
    std::uint64_t corun_instructions = 0;
    std::uint64_t contention_events = 0;
    std::uint64_t per_core_contention[2] = {0, 0};
    for (const SectionRecord &rec : corun) {
        corun_instructions += rec.counters.instRetired;
        const std::uint64_t events =
            rec.counters.l2SharedMisses +
            rec.counters.l2OccupancyEvictedByOther +
            rec.counters.prefetchCancellations;
        contention_events += events;
        per_core_contention[rec.core % 2] += events;
    }
    if (per_core_contention[0] == 0 || per_core_contention[1] == 0) {
        std::cerr << "perf_sim: co-run contention not attributed to "
                     "both cores (core 0: "
                  << per_core_contention[0] << ", core 1: "
                  << per_core_contention[1] << ")\n";
        return 1;
    }

    const double sections_per_sec =
        elapsed > 0.0 ? static_cast<double>(records.size()) / elapsed
                      : 0.0;
    const double inst_per_sec =
        elapsed > 0.0 ? static_cast<double>(instructions) / elapsed
                      : 0.0;
    const double hit_rate =
        lookups > 0 ? static_cast<double>(hits) /
                          static_cast<double>(lookups)
                    : 0.0;

    const double corun_inst_per_sec =
        corun_elapsed > 0.0
            ? static_cast<double>(corun_instructions) / corun_elapsed
            : 0.0;

    std::cout << "perf_sim headline: suite of " << records.size()
              << " sections (" << instructions
              << " simulated instructions) in " << elapsed << " s\n"
              << "  throughput "
              << static_cast<std::uint64_t>(sections_per_sec)
              << " sections/sec, "
              << static_cast<std::uint64_t>(inst_per_sec)
              << " instructions/sec\n"
              << "  decode cache: " << lookups << " lookups, hit rate "
              << hit_rate << "\n"
              << "  core duo: " << corun.size() << " co-run sections, "
              << static_cast<std::uint64_t>(corun_inst_per_sec)
              << " instructions/sec, " << contention_events
              << " contention events\n";

    std::ofstream json(json_path);
    json << "{\"sections_per_sec\":" << sections_per_sec
         << ",\"instructions_per_sec\":" << inst_per_sec
         << ",\"sections\":" << records.size()
         << ",\"instructions\":" << instructions
         << ",\"wall_seconds\":" << elapsed
         << ",\"decode_cache_hit_rate\":" << hit_rate
         << ",\"coreduo_sections\":" << corun.size()
         << ",\"coreduo_instructions\":" << corun_instructions
         << ",\"coreduo_instructions_per_sec\":" << corun_inst_per_sec
         << ",\"coreduo_contention_events\":" << contention_events
         << ",\"coreduo_wall_seconds\":" << corun_elapsed
         << ",\"section_scale\":" << scale << ",\"git_sha\":\""
         << obs::buildGitSha() << "\"}\n";
    std::cout << "wrote " << json_path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off our own flags; everything else (--benchmark_*) goes to
    // google-benchmark untouched.
    std::string json_path = "BENCH_sim.json";
    double scale = 0.25;
    bool micro = true;
    std::vector<char *> bench_argv{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--json")
            json_path = next();
        else if (arg == "--scale")
            scale = std::stod(next());
        else if (arg == "--headline-only")
            micro = false;
        else
            bench_argv.push_back(argv[i]);
    }

    if (micro) {
        int bench_argc = static_cast<int>(bench_argv.size());
        benchmark::Initialize(&bench_argc, bench_argv.data());
        benchmark::RunSpecifiedBenchmarks();
    }
    return runHeadline(scale, json_path);
}
