/**
 * @file
 * perfbench: one benchmark for the whole mtperf system.
 *
 *     perfbench --workload pipeline|train --seed N --seconds S
 *               --trace 0|1 --workdir DIR
 *
 * One process sets up the pipeline and train workloads (timing the
 * named one's set-up as setup_s), then makes --seconds / kRoundSeconds
 * rounds, each running both workloads with the named one's block the
 * longest, so that every end-to-end metric is present on every
 * workload. run.py makes a run out of several such processes.
 * --trace 1 instead sets up the serve workload too and runs the
 * per-layer pass (layers.h). The last stdout line is the result JSON;
 * a failed correctness gate exits 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common/logging.h"
#include "common/parallel.h"
#include "layers.h"
#include "obs/build_info.h"
#include "serve_load.h"
#include "stages.h"
#include "workload/spec_suite.h"

using namespace perfbench;

namespace {

/** Pool threads: nproc, but no more than this. */
constexpr std::size_t kMaxThreads = 4;

/**
 * Measured seconds per round. A process makes --seconds / kRoundSeconds
 * rounds (at least one); each round runs both workloads, so every
 * metric gets one sample per round.
 */
constexpr double kRoundSeconds = 8.0;

/** Seconds of train rounds per round; longer when train is named. */
constexpr double kTrainBlockSeconds = 0.5;
constexpr double kTrainFocusSeconds = 2.0;

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "perfbench: " << message
              << "\nusage: perfbench --workload pipeline|train "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--inject KEY=SHARE]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool trace_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = value;
            else if (arg == "--seed")
                o.seed = std::stoull(value);
            else if (arg == "--seconds")
                o.seconds = std::stod(value);
            else if (arg == "--trace") {
                trace_given = value == "0" || value == "1";
                o.trace = value == "1";
            } else if (arg == "--workdir")
                o.workDir = value;
            else if (arg == "--inject") {
                const auto eq = value.find('=');
                if (eq == std::string::npos)
                    usage("--inject takes KEY=SHARE");
                o.injectMetric = value.substr(0, eq);
                o.injectShare = std::stod(value.substr(eq + 1));
            } else
                usage("unknown argument " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (o.workload != "pipeline" && o.workload != "train")
        usage("--workload must be pipeline or train");
    if (!trace_given)
        usage("--trace must be 0 or 1");
    if (o.workDir.empty())
        usage("--workdir is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    o.threads = std::min<std::size_t>(kMaxThreads,
                                      mtperf::hardwareThreadCount());
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void
recordFingerprint(const Options &o, Report &report)
{
    const char *sha = std::getenv("PERFBENCH_SOURCE_SHA");
    report.info("host.cpu", cpuModel());
    report.info("host.nproc", std::to_string(mtperf::hardwareThreadCount()));
    report.info("host.threads", std::to_string(o.threads));
    report.info("host.compiler", mtperf::obs::buildCompiler());
    report.info("host.build_type", mtperf::obs::buildType());
    // run.py reads the sha at every run; the build's sha is fixed when
    // it is configured.
    report.info("code.git_sha",
                sha != nullptr ? sha : mtperf::obs::buildGitSha());
    report.info("run.workload", o.workload);
    report.info("run.seed", std::to_string(o.seed));
    report.info("run.trace", o.trace ? "1" : "0");
    report.info("run.spec_source",
                mtperf::workload::suiteSourceDescription());
    report.info("note.simulator_accuracy",
                "the simulator is checked only against closed-form oracle "
                "bounds (mtperf validate); the repository holds no "
                "real-hardware reference, so no simulator-error figure "
                "is given");
}

/** The end-to-end measurement of one untraced run. */
void
measureEndToEnd(const Options &o, Report &report, PipelineWorkload &pipeline,
                TrainWorkload &train)
{
    std::vector<PipelineSample> passes;
    std::vector<TrainSample> rounds;
    const double trainBlock =
        o.workload == "train" ? kTrainFocusSeconds : kTrainBlockSeconds;
    const long count =
        std::max(1L, std::lround(o.seconds / kRoundSeconds));
    const auto start = Clock::now();
    for (long round = 0; round < count; ++round) {
        PipelineSample s = pipeline.iterate();
        if (!passes.empty()) {
            report.check(s.csvDigest == passes.front().csvDigest,
                         "pipeline: sections CSV digest changed");
            report.check(s.modelDigest == passes.front().modelDigest,
                         "pipeline: model digest changed");
        }
        s.sections = {};
        s.corunRows = {};
        passes.push_back(std::move(s));

        const auto block = Clock::now();
        do
            rounds.push_back(train.round());
        while (secondsSince(block) < trainBlock);
    }

    auto med = [](const auto &items, auto field) {
        std::vector<double> v;
        for (const auto &item : items)
            v.push_back(field(item));
        return median(v);
    };
    report.metric("pipeline_s",
                  med(passes, [](const PipelineSample &s) { return s.total; }),
                  "s");
    report.metric("sim_inst_per_s", med(passes, [](const PipelineSample &s) {
                      return s.simInstructions / s.simulate;
                  }),
                  "inst/s");
    report.metric("corun_inst_per_s", med(passes, [](const PipelineSample &s) {
                      return s.corunInstructions / s.corun;
                  }),
                  "inst/s");
    report.metric("fit_s",
                  med(rounds, [](const TrainSample &s) { return s.fit; }), "s");
    report.metric("crossval_s",
                  med(rounds, [](const TrainSample &s) { return s.crossval; }),
                  "s");
    report.metric("cv_mae", rounds.front().cvMae, "CPI");
    report.info("rounds", std::to_string(count));
    report.info("pipeline.sections", std::to_string(passes.front().rows));
    report.info("pipeline.csv_digest", passes.front().csvDigest);
    report.info("pipeline.model_digest", passes.front().modelDigest);
    report.info("pipeline.cv_mae", std::to_string(passes.front().cvMae));
    report.info("train.rounds", std::to_string(rounds.size()));
    report.info("measured_s", std::to_string(secondsSince(start)));
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    mtperf::setLogLevel(mtperf::LogLevel::Warn);
    mtperf::setGlobalThreadCount(o.threads);
    std::filesystem::create_directories(o.workDir);

    Report report;
    recordFingerprint(o, report);
    try {
        PipelineWorkload pipeline(o, report);
        TrainWorkload train(o, report);
        // The named workload's set-up is the timed one.
        double setup = 0.0;
        auto setUp = [&](const std::string &name, auto &workload) {
            const auto start = Clock::now();
            workload.setup();
            if (name == o.workload)
                setup = secondsSince(start);
        };
        setUp("pipeline", pipeline);
        setUp("train", train);

        if (o.trace) {
            ServeWorkload serve(o, report,
                                "unix:" + o.workDir + "/serve.sock");
            serve.setup();
            measureLayers(o, report, pipeline, train, serve);
        } else {
            report.metric("setup_s", setup, "s");
            measureEndToEnd(o, report, pipeline, train);
        }
    } catch (const std::exception &e) {
        report.check(false, std::string("aborted: ") + e.what());
    }

    if (!o.trace) {
        struct rusage usage;
        getrusage(RUSAGE_SELF, &usage);
        report.metric("peak_rss_mb", usage.ru_maxrss / 1024.0, "MB");
        const double attempted = static_cast<double>(report.attempted());
        report.metric("success_share",
                      attempted > 0
                          ? 1.0 - report.failed() / attempted
                          : 0.0,
                      "share");
    }
    report.print(std::cout);
    return report.correct() ? 0 : 1;
}
